package segment

import (
	"fmt"
	"sync/atomic"

	"liferaft/internal/bucket"
	"liferaft/internal/cache/disktier"
	"liferaft/internal/catalog"
	"liferaft/internal/htm"
)

// TieredBackend layers the disk cache tier between the bucket store and
// the segment set: reads that hit the tier are served from the mmap'd
// group region (page touches for cost-only probes, in-place record
// decoding for materializing reads) and misses fall through to the
// segment files while promoting the whole bucket group in the
// background. It also exposes the promotion hook the scheduler's
// Eq.-2-driven prefetcher calls: the tier's caching granule is the
// bucket group — exactly one segment file's data region — so a single
// promotion warms every bucket the group holds.
//
// The tier is shared across forks (one promotion benefits every shard);
// the segment Set is reopened per fork as before so descriptors stay
// shard-private. Foreground hit/miss counters and the probe scratch are
// per fork, giving the per-shard tier metrics without cross-shard
// double counting.
type TieredBackend struct {
	set         *Set
	tier        *disktier.Tier
	tierRefs    *atomic.Int32
	materialize bool
	scratch     probeScratch

	hits   atomic.Int64
	misses atomic.Int64
	// probeSink keeps the page-touch loop from being optimized away.
	probeSink atomic.Uint32
}

// NewTieredBackend wraps an opened Set and an opened disk tier. The
// backend owns the tier: the last Close (across forks) closes it.
func NewTieredBackend(set *Set, tier *disktier.Tier, materialize bool) *TieredBackend {
	refs := &atomic.Int32{}
	refs.Store(1)
	return &TieredBackend{set: set, tier: tier, tierRefs: refs, materialize: materialize}
}

// Set returns the underlying segment set.
func (b *TieredBackend) Set() *Set { return b.set }

// Tier returns the shared disk tier (metrics and benches poll it).
func (b *TieredBackend) Tier() *disktier.Tier { return b.tier }

// ForegroundCounts returns this fork's tier hit/miss counts — the
// per-shard numbers, unlike the tier-global disktier.Stats.
func (b *TieredBackend) ForegroundCounts() (hits, misses int64) {
	return b.hits.Load(), b.misses.Load()
}

// get pins bucket i's group region when resident, resolving the
// bucket's region-relative extent. A corrupt tier entry registers as a
// miss inside the tier (and is dropped there), so the caller falls
// through to the segment files.
func (b *TieredBackend) get(i int) (h disktier.Handle, lo, hi int64, ok bool, err error) {
	g, lo, hi, err := b.set.GroupExtent(i)
	if err != nil {
		return disktier.Handle{}, 0, 0, false, err
	}
	h, ok = b.tier.Get(uint32(g))
	if ok && hi > int64(len(h.Bytes())) {
		// The cached region disagrees with the index — treat as a miss
		// and let the fill path replace it.
		h.Release()
		return disktier.Handle{}, 0, 0, false, nil
	}
	return h, lo, hi, ok, nil
}

// promote schedules a background fill of bucket i's group.
func (b *TieredBackend) promote(i int, prefetch bool) bool {
	g := b.set.GroupOf(i)
	if g < 0 {
		return false
	}
	return b.tier.Promote(uint32(g), prefetch, func() ([]byte, error) {
		return b.set.ReadGroupRegion(g)
	})
}

// PrefetchBucket implements bucket.Prefetcher: promote bucket i's group
// toward the fast tier ahead of its service. Best-effort — residency,
// a pending fill, or an exhausted in-flight budget all return false
// without work.
func (b *TieredBackend) PrefetchBucket(i int) bool { return b.promote(i, true) }

// touchPages walks one byte per block of region — the page-granular
// probe I/O of an mmap'd read, faulting pages in without copying them.
func (b *TieredBackend) touchPages(region []byte) int64 {
	var x byte
	for off := 0; off < len(region); off += BlockSize {
		x ^= region[off]
	}
	b.probeSink.Store(uint32(x))
	return int64(len(region))
}

// ReadBucket implements bucket.Backend: a tier hit serves the bucket
// from the mapped group region (decoded in place when materializing,
// page-touched when cost-only); a miss reads the segment file exactly
// as the untiered backend would and promotes the group behind the
// read.
func (b *TieredBackend) ReadBucket(i int) ([]catalog.Object, int64, error) {
	h, lo, hi, ok, err := b.get(i)
	if err != nil {
		return nil, 0, err
	}
	if ok {
		b.hits.Add(1)
		region := h.Bytes()[lo:hi]
		var objs []catalog.Object
		if b.materialize {
			objs = appendRecords(nil, region, int(b.set.man.ObjectBytes))
		} else {
			b.touchPages(region)
		}
		h.Release()
		return objs, hi - lo, nil
	}
	b.misses.Add(1)
	b.promote(i, false)
	if !b.materialize {
		_, n, err := b.set.ReadBucketRaw(i)
		return nil, n, err
	}
	return b.set.ReadBucket(i)
}

// ProbeRanges implements bucket.Backend: on a tier hit a cost-only
// probe touches just the len(ranges) head pages of the bucket's region,
// a materializing probe verifies and decodes the granules ranges
// overlap straight out of the mapping (see Set.probeRanges). Misses
// fall through to the segment file and promote, like ReadBucket.
func (b *TieredBackend) ProbeRanges(i int, ranges []htm.Range) ([]catalog.Object, int64, error) {
	h, lo, hi, ok, err := b.get(i)
	if err != nil {
		return nil, 0, err
	}
	if ok {
		defer h.Release()
		b.hits.Add(1)
		region := h.Bytes()[lo:hi]
		if b.materialize {
			return b.set.probeRanges(&b.scratch, i, ranges, region)
		}
		want := min(int64(len(ranges))*BlockSize, int64(len(region)))
		return nil, b.touchPages(region[:want]), nil
	}
	b.misses.Add(1)
	b.promote(i, false)
	if !b.materialize {
		read, err := b.set.ReadPages(i, len(ranges))
		return nil, read, err
	}
	return b.set.probeRanges(&b.scratch, i, ranges, nil)
}

// Fork implements bucket.Backend: an independent Set (own descriptors)
// over the same shared tier.
func (b *TieredBackend) Fork() (bucket.Backend, error) {
	set, err := b.set.Reopen()
	if err != nil {
		return nil, err
	}
	if b.tierRefs.Add(1) <= 1 {
		set.Close()
		return nil, fmt.Errorf("segment: fork of a closed tiered backend")
	}
	return &TieredBackend{set: set, tier: b.tier, tierRefs: b.tierRefs, materialize: b.materialize}, nil
}

// Close implements bucket.Backend; the last fork to close also closes
// the shared tier (persisting its eviction state). In-flight
// promotions read through this fork's Set, so they are drained before
// its descriptors go away.
func (b *TieredBackend) Close() error {
	b.tier.WaitIdle()
	err := b.set.Close()
	if b.tierRefs.Add(-1) == 0 {
		if terr := b.tier.Close(); err == nil {
			err = terr
		}
	}
	return err
}
