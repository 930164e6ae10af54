package segment

import (
	"liferaft/internal/bucket"
	"liferaft/internal/catalog"
	"liferaft/internal/htm"
)

// FileBackend adapts a Set to the bucket.Backend interface: a fill — a
// Scan service, or an index probe into a Resident the store does not
// keep — becomes preads of just the granules its queue's keys select that
// the Resident lacks, each checked against its fence CRC. In cost-only
// mode (the configuration scheduling experiments use) a fill moves and
// checks the same bytes — that is the point — but skips decoding.
//
// A FileBackend serves one scheduling goroutine: fills read through
// scratch the backend owns, and decode into the bucket.Resident they are
// handed. Shards each Fork their own.
type FileBackend struct {
	set         *Set
	materialize bool
	scratch     fillScratch
	// probe is the Resident Probe fills, reused by its next call.
	probe bucket.Resident
}

// NewBackend wraps an opened Set. materialize must match the Store the
// backend serves: a materializing store needs decoded objects, a
// cost-only store needs only the I/O.
func NewBackend(set *Set, materialize bool) *FileBackend {
	return &FileBackend{set: set, materialize: materialize}
}

// Set returns the underlying segment set.
func (b *FileBackend) Set() *Set { return b.set }

// ReadBucket is a pread of bucket i's full data region, verified against
// the bucket's checksum and decoded into a new array. It is not part of
// bucket.Backend — the engine reads through Fill — and only the
// benchmark's segment.read_bucket kernel calls it.
func (b *FileBackend) ReadBucket(i int) ([]catalog.Object, int64, error) {
	return b.set.ReadBucket(i)
}

// Fill implements bucket.Backend: the runs it returns live in the
// backend's fill scratch until its next Fill.
func (b *FileBackend) Fill(i int, r *bucket.Resident, keys []htm.Range) ([][]catalog.Object, int64, error) {
	return b.set.fill(&b.scratch, i, r, keys, b.materialize)
}

// Probe is an index probe for a caller that does not know its keys: a
// fill of every granule of bucket i into a Resident no cache keeps, so it
// reads, verifies and decodes the whole bucket. The objects are valid
// until the next Probe. It is not part of bucket.Backend; the benchmark's
// segment.probe_* kernels call it, and therefore keep reading the whole
// ≈2 000 KB bucket until a benchmark issue re-points them at recorded
// keys.
func (b *FileBackend) Probe(i, _ int) ([]catalog.Object, int64, error) {
	b.probe.Have = b.probe.Have[:0]
	_, n, err := b.Fill(i, &b.probe, everyID)
	if err != nil {
		return nil, 0, err
	}
	return b.probe.Objs, n, nil
}

// everyID is the key of a probe that does not know its keys.
var everyID = []htm.Range{{Start: 0, End: ^htm.ID(0)}}

// Fork implements bucket.Backend: an independent Set over the same
// directory, with its own file descriptors and fill scratch.
func (b *FileBackend) Fork() (bucket.Backend, error) {
	set, err := b.set.Reopen()
	if err != nil {
		return nil, err
	}
	return NewBackend(set, b.materialize), nil
}

// Close implements bucket.Backend.
func (b *FileBackend) Close() error { return b.set.Close() }
