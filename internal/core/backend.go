package core

import (
	"liferaft/internal/bucket"
	"liferaft/internal/cache/disktier"
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

// TierOptions configures the disk cache tier of a tiered file-backed
// engine (NewFileBackedTiered).
type TierOptions struct {
	// Dir is the disk tier's cache directory (created if missing;
	// reopening a warm directory restarts warm).
	Dir string
	// CapacityBytes bounds the tier's cached data bytes.
	CapacityBytes int64
	// PrefetchDepth is copied to Config.PrefetchDepth: how many
	// upcoming buckets the scheduler peeks after each pick. 0 disables
	// prefetch (the tier still caches on demand).
	PrefetchDepth int
	// PrefetchInflight bounds concurrent background promotions
	// (disktier.Config.PromoteInflight); 0 means the tier default.
	PrefetchInflight int
}

// NewFileBackedTiered is NewFileBacked with the disk cache tier layered
// between the engine and the segment files: reads that hit the tier are
// served from mmap'd group regions, misses fall through and promote,
// and (with TierOptions.PrefetchDepth > 0) the scheduler prefetches the
// buckets its own orderings say come next. cfg.Store.Close() closes the
// segment set and the tier (persisting its eviction state).
func NewFileBackedTiered(part *bucket.Partition, alpha float64, materialize bool, dataDir string, topt TierOptions) (Config, error) {
	set, err := segment.OpenSet(dataDir)
	if err != nil {
		return Config{}, err
	}
	return NewFileBackedTieredFrom(part, alpha, materialize, set, topt)
}

// NewFileBackedTieredFrom is NewFileBackedTiered over an already-opened
// segment set, taking ownership of it.
func NewFileBackedTieredFrom(part *bucket.Partition, alpha float64, materialize bool, set *segment.Set, topt TierOptions) (Config, error) {
	if err := set.Validate(part); err != nil {
		set.Close()
		return Config{}, err
	}
	tier, err := disktier.Open(disktier.Config{
		Dir:             topt.Dir,
		CapacityBytes:   topt.CapacityBytes,
		PromoteInflight: topt.PrefetchInflight,
	})
	if err != nil {
		set.Close()
		return Config{}, err
	}
	cfg := newConfig(part, alpha, materialize, simclock.Real{}, segment.NewTieredBackend(set, tier, materialize))
	cfg.PrefetchDepth = topt.PrefetchDepth
	return cfg, nil
}
