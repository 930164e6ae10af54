package segment

import (
	"math"

	"liferaft/internal/bucket"
	"liferaft/internal/catalog"
	"liferaft/internal/htm"
)

// FileBackend adapts a Set to the bucket.Backend interface: the store's
// sequential scans become full-region preads with checksum
// verification, and index probes become preads of just the granules
// the probed ID ranges overlap. In cost-only mode (the configuration
// scheduling experiments use) reads still move every byte — that is
// the point — but skip decoding.
//
// A FileBackend serves one scheduling goroutine: probes decode into
// scratch the backend owns, and a scan decodes into the array last
// handed back through Recycle. Shards each Fork their own.
type FileBackend struct {
	set         *Set
	materialize bool
	scratch     probeScratch
	// spare is the largest array Recycle was handed since the last scan
	// took one: the next materializing ReadBucket decodes into it.
	spare []catalog.Object
}

// NewBackend wraps an opened Set. materialize must match the Store the
// backend serves: a materializing store needs decoded objects, a
// cost-only store needs only the I/O.
func NewBackend(set *Set, materialize bool) *FileBackend {
	return &FileBackend{set: set, materialize: materialize}
}

// Set returns the underlying segment set.
func (b *FileBackend) Set() *Set { return b.set }

// ReadBucket implements bucket.Backend: a checksum-verified pread of
// the bucket's full data region, decoded into the spare array if there
// is one.
func (b *FileBackend) ReadBucket(i int) ([]catalog.Object, int64, error) {
	if !b.materialize {
		_, n, err := b.set.ReadBucketRaw(i)
		return nil, n, err
	}
	objs, n, err := b.set.readBucketInto(i, b.spare)
	if err == nil {
		b.spare = nil // the caller's now
	}
	return objs, n, err
}

// Recycle implements bucket.Backend. The backend keeps one spare array,
// the largest it is handed, so a warm cache's evictions feed its next
// scans instead of the garbage collector.
func (b *FileBackend) Recycle(objs []catalog.Object) {
	if cap(objs) > cap(b.spare) {
		b.spare = objs[:0]
	}
}

// ProbeRanges implements bucket.Backend. A materializing probe reads,
// verifies and decodes the granules that ranges overlap, into a buffer
// that is valid until the next probe; a cost-only probe reads just the
// len(ranges) head pages an index pass would touch. Either way the
// caller accounts len(ranges) probes, not a scan.
func (b *FileBackend) ProbeRanges(i int, ranges []htm.Range) ([]catalog.Object, int64, error) {
	if !b.materialize {
		read, err := b.set.ReadPages(i, len(ranges))
		return nil, read, err
	}
	return b.set.probeRanges(&b.scratch, i, ranges)
}

// Probe is ProbeRanges for a caller that does not know its keys: it
// probes bucket i over the whole ID span, so it reads, verifies and
// decodes every granule. It is not part of bucket.Backend; the
// benchmark's segment.probe_* kernels call it, and therefore keep
// reading the whole ≈2 000 KB bucket until a benchmark issue re-points
// them at ProbeRanges with recorded ranges.
func (b *FileBackend) Probe(i, _ int) ([]catalog.Object, int64, error) {
	return b.ProbeRanges(i, []htm.Range{{Start: 0, End: math.MaxUint64}})
}

// Fork implements bucket.Backend: an independent Set over the same
// directory, with its own file descriptors and probe scratch.
func (b *FileBackend) Fork() (bucket.Backend, error) {
	set, err := b.set.Reopen()
	if err != nil {
		return nil, err
	}
	return NewBackend(set, b.materialize), nil
}

// Close implements bucket.Backend.
func (b *FileBackend) Close() error { return b.set.Close() }
