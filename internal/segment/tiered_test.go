package segment

import (
	"reflect"
	"testing"

	"liferaft/internal/bucket"
	"liferaft/internal/cache/disktier"
)

func openTieredFixture(t *testing.T, part *bucket.Partition, group int, materialize bool, capacity int64) (*TieredBackend, *bucket.Partition) {
	t.Helper()
	dir, _ := writeFixture(t, part, group)
	set, err := OpenSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	tier, err := disktier.Open(disktier.Config{Dir: t.TempDir(), CapacityBytes: capacity})
	if err != nil {
		t.Fatal(err)
	}
	tb := NewTieredBackend(set, tier, materialize)
	t.Cleanup(func() { tb.Close() })
	return tb, part
}

func TestGroupRegionAPIs(t *testing.T) {
	part := fixture(t)
	dir, _ := writeFixture(t, part, 8) // 25 buckets -> 4 groups
	set, err := OpenSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	if set.Groups() != 4 {
		t.Fatalf("Groups() = %d, want 4", set.Groups())
	}
	if g := set.GroupOf(0); g != 0 {
		t.Fatalf("GroupOf(0) = %d", g)
	}
	if g := set.GroupOf(24); g != 3 {
		t.Fatalf("GroupOf(24) = %d", g)
	}
	if g := set.GroupOf(25); g != -1 {
		t.Fatalf("GroupOf(25) = %d, want -1", g)
	}

	// Every bucket of every group must decode bit-identically from the
	// group region slice at its extent.
	for g := 0; g < set.Groups(); g++ {
		region, err := set.ReadGroupRegion(g)
		if err != nil {
			t.Fatalf("group %d: %v", g, err)
		}
		if int64(len(region)) != set.GroupRegionBytes(g) {
			t.Fatalf("group %d region is %d bytes, GroupRegionBytes says %d", g, len(region), set.GroupRegionBytes(g))
		}
		first, n := set.GroupBuckets(g)
		for i := first; i < first+n; i++ {
			gg, lo, hi, err := set.GroupExtent(i)
			if err != nil {
				t.Fatal(err)
			}
			if gg != g {
				t.Fatalf("GroupExtent(%d) group = %d, want %d", i, gg, g)
			}
			want := part.Materialize(i)
			stride := int(set.ObjectBytes())
			got := region[lo:hi]
			if len(got)/stride != len(want) {
				t.Fatalf("bucket %d extent holds %d records, want %d", i, len(got)/stride, len(want))
			}
			for j := range want {
				if decodeObject(got[j*stride:]) != want[j] {
					t.Fatalf("bucket %d object %d diverges when decoded from the group region", i, j)
				}
			}
		}
	}
}

// A warm tiered backend must return bit-identical objects to the plain
// file backend — the mmap decode path against the pread decode path.
func TestTieredBackendParityWarm(t *testing.T) {
	tb, part := openTieredFixture(t, fixture(t), 8, true, 1<<20)
	plain := NewBackend(tb.Set(), true)

	// Cold pass: every read falls through (served by pread) and demand-
	// promotes its group.
	for i := 0; i < part.NumBuckets(); i++ {
		objs, n, err := tb.ReadBucket(i)
		if err != nil {
			t.Fatalf("cold bucket %d: %v", i, err)
		}
		want, wn, _ := plain.ReadBucket(i)
		if !reflect.DeepEqual(objs, want) || n != wn {
			t.Fatalf("cold bucket %d diverges from the plain backend", i)
		}
	}
	// Demand promotion is budgeted and may have skipped groups while
	// earlier fills were pending; warm every group deterministically.
	for g := 0; g < tb.Set().Groups(); g++ {
		first, _ := tb.Set().GroupBuckets(g)
		tb.PrefetchBucket(first)
		tb.Tier().WaitIdle()
	}

	// Warm pass: every read must hit the tier and still match.
	_, missesBefore := tb.ForegroundCounts()
	for i := 0; i < part.NumBuckets(); i++ {
		objs, n, err := tb.ReadBucket(i)
		if err != nil {
			t.Fatalf("warm bucket %d: %v", i, err)
		}
		want, wn, _ := plain.ReadBucket(i)
		if !reflect.DeepEqual(objs, want) || n != wn {
			t.Fatalf("warm bucket %d diverges from the plain backend", i)
		}
		pobjs, _, err := tb.ProbeRanges(i, everyID)
		if err != nil {
			t.Fatalf("warm probe %d: %v", i, err)
		}
		if !reflect.DeepEqual(pobjs, want) {
			t.Fatalf("warm probe %d diverges from the plain backend", i)
		}
	}
	if _, misses := tb.ForegroundCounts(); misses != missesBefore {
		t.Fatalf("warm pass took %d tier misses, want 0 new", misses-missesBefore)
	}
	if hits, _ := tb.ForegroundCounts(); hits < int64(2*part.NumBuckets()) {
		t.Fatalf("warm pass hits = %d, want >= %d", hits, 2*part.NumBuckets())
	}
}

// Cost-only mode: reads return nil objects but account the same byte
// counts warm as cold.
func TestTieredBackendCostOnly(t *testing.T) {
	tb, part := openTieredFixture(t, fixture(t), 8, false, 1<<20)
	for i := 0; i < part.NumBuckets(); i++ {
		objs, n, err := tb.ReadBucket(i)
		if err != nil || objs != nil {
			t.Fatalf("cold cost-only bucket %d: objs=%v err=%v", i, objs, err)
		}
		if n != part.BucketBytes(i) {
			t.Fatalf("cold cost-only bucket %d read %d bytes, want %d", i, n, part.BucketBytes(i))
		}
	}
	tb.Tier().WaitIdle()
	for i := 0; i < part.NumBuckets(); i++ {
		objs, n, err := tb.ReadBucket(i)
		if err != nil || objs != nil {
			t.Fatalf("warm cost-only bucket %d: objs=%v err=%v", i, objs, err)
		}
		if n != part.BucketBytes(i) {
			t.Fatalf("warm cost-only bucket %d read %d bytes, want %d", i, n, part.BucketBytes(i))
		}
		// One warm probe touches at most one page of the bucket region.
		_, pn, err := tb.ProbeRanges(i, everyID)
		if err != nil {
			t.Fatal(err)
		}
		if pn > int64(BlockSize) || pn <= 0 {
			t.Fatalf("warm cost-only probe read %d bytes, want (0,%d]", pn, BlockSize)
		}
	}
}

func TestTieredBackendPrefetch(t *testing.T) {
	tb, part := openTieredFixture(t, fixture(t), 8, true, 1<<20)

	if !tb.PrefetchBucket(0) {
		t.Fatal("PrefetchBucket(0) refused on a cold tier")
	}
	tb.Tier().WaitIdle()
	// Bucket 0's whole group is now resident: the first service of any
	// of its buckets is a tier hit with zero misses.
	first, n := tb.Set().GroupBuckets(0)
	for i := first; i < first+n; i++ {
		objs, _, err := tb.ReadBucket(i)
		if err != nil {
			t.Fatal(err)
		}
		if want := part.Materialize(i); !reflect.DeepEqual(objs, want) {
			t.Fatalf("prefetched bucket %d diverges", i)
		}
	}
	hits, misses := tb.ForegroundCounts()
	if misses != 0 || hits != int64(n) {
		t.Fatalf("after prefetch: hits=%d misses=%d, want %d/0", hits, misses, n)
	}
	// Re-prefetching a resident group is a no-op.
	if tb.PrefetchBucket(0) {
		t.Fatal("PrefetchBucket re-promoted a resident group")
	}
	st := tb.Tier().Stats()
	if st.PrefetchIssued != 1 || st.PrefetchHits != 1 {
		t.Fatalf("tier stats = %+v, want 1 issued / 1 hit", st)
	}
}

// Forks share one tier: a promotion through one fork serves hits on the
// other, and closing one fork leaves the tier open for the rest.
func TestTieredBackendForkSharesTier(t *testing.T) {
	tb, _ := openTieredFixture(t, fixture(t), 8, true, 1<<20)
	fb, err := tb.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if !tb.PrefetchBucket(0) {
		t.Fatal("prefetch refused")
	}
	tb.Tier().WaitIdle()

	fork := fb.(*TieredBackend)
	if _, _, err := fork.ReadBucket(0); err != nil {
		t.Fatal(err)
	}
	if hits, misses := fork.ForegroundCounts(); hits != 1 || misses != 0 {
		t.Fatalf("fork counts = %d/%d, want 1 hit", hits, misses)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	// Tier still serves the surviving fork.
	if _, _, err := tb.ReadBucket(1); err != nil {
		t.Fatal(err)
	}
}

// The Store-level wiring: a store over a tiered backend exposes it as a
// Prefetcher; the plain backend does not.
func TestStorePrefetcherResolution(t *testing.T) {
	tb, _ := openTieredFixture(t, fixture(t), 8, true, 1<<20)
	if _, ok := any(tb).(bucket.Prefetcher); !ok {
		t.Fatal("TieredBackend does not implement bucket.Prefetcher")
	}
	var plain bucket.Backend = NewBackend(tb.Set(), true)
	if _, ok := plain.(bucket.Prefetcher); ok {
		t.Fatal("plain FileBackend unexpectedly implements bucket.Prefetcher")
	}
}
