package core

import (
	"liferaft/internal/bucket"
	"liferaft/internal/segment"
	"liferaft/internal/simclock"
)

// NewFileBacked builds the real-I/O stack: the segment store under
// dataDir (written beforehand by segment.Write / cmd/skygen
// -write-segments) serves the buckets, the engine runs on
// simclock.Real, and the disk object keeps the SkyQuery model only for
// the costs that remain modeled (the in-memory match constant Tm and
// workload spill accounting) while real reads record their measured
// elapsed time. The store is validated against part before the first
// read; close it with cfg.Store.Close() when the engine is done.
func NewFileBacked(part *bucket.Partition, alpha float64, materialize bool, dataDir string) (Config, error) {
	set, err := segment.OpenSet(dataDir)
	if err != nil {
		return Config{}, err
	}
	return NewFileBackedFrom(part, alpha, materialize, set)
}

// NewFileBackedFrom is NewFileBacked over an already-opened segment
// set, taking ownership of it (cfg.Store.Close() releases it). Callers
// that just built or probed the store with segment.Ensure hand the open
// set straight over instead of paying a second open-and-verify pass
// over every segment file.
func NewFileBackedFrom(part *bucket.Partition, alpha float64, materialize bool, set *segment.Set) (Config, error) {
	if err := set.Validate(part); err != nil {
		set.Close()
		return Config{}, err
	}
	return newConfig(part, alpha, materialize, simclock.Real{}, segment.NewBackend(set, materialize)), nil
}
