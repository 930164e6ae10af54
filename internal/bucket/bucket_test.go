package bucket

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"liferaft/internal/catalog"
	"liferaft/internal/disk"
	"liferaft/internal/geom"
	"liferaft/internal/htm"
	"liferaft/internal/simclock"
)

func testCatalog(t *testing.T, n int) *catalog.Catalog {
	t.Helper()
	c, err := catalog.New(catalog.Config{Name: "t", N: n, Seed: 42, GenLevel: 4})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPartitionValidation(t *testing.T) {
	c := testCatalog(t, 100)
	if _, err := NewPartition(c, 0, 0); err == nil {
		t.Error("zero perBucket should fail")
	}
	if _, err := NewPartition(c, -5, 0); err == nil {
		t.Error("negative perBucket should fail")
	}
	if _, err := NewPartition(c, 10, -1); err == nil {
		t.Error("negative objectBytes should fail")
	}
}

func TestEqualSizedBuckets(t *testing.T) {
	c := testCatalog(t, 10000)
	p, err := NewPartition(c, 250, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumBuckets() != 40 {
		t.Fatalf("NumBuckets = %d, want 40", p.NumBuckets())
	}
	for i := 0; i < p.NumBuckets(); i++ {
		b := p.Bucket(i)
		if b.Count() != 250 {
			t.Errorf("bucket %d has %d objects, want 250", i, b.Count())
		}
		if b.Index != i {
			t.Errorf("bucket %d Index = %d", i, b.Index)
		}
	}
	if p.PerBucket() != 250 || p.Catalog() != c {
		t.Error("accessors")
	}
}

func TestLastBucketRemainder(t *testing.T) {
	c := testCatalog(t, 1001)
	p, err := NewPartition(c, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumBuckets() != 11 {
		t.Fatalf("NumBuckets = %d", p.NumBuckets())
	}
	if last := p.Bucket(10); last.Count() != 1 {
		t.Errorf("last bucket count = %d, want 1", last.Count())
	}
}

func TestBucketsCoverAllObjectsOnce(t *testing.T) {
	c := testCatalog(t, 5000)
	p, _ := NewPartition(c, 300, 0)
	var next int64
	for i := 0; i < p.NumBuckets(); i++ {
		b := p.Bucket(i)
		if b.Lo != next {
			t.Fatalf("bucket %d starts at %d, want %d (gap or overlap)", i, b.Lo, next)
		}
		next = b.Hi
	}
	if next != 5000 {
		t.Fatalf("buckets cover %d objects, want 5000", next)
	}
}

func TestSpansOrderedAndValid(t *testing.T) {
	c := testCatalog(t, 8000)
	p, _ := NewPartition(c, 500, 0)
	for i := 0; i < p.NumBuckets(); i++ {
		s := p.Bucket(i).Span
		if !s.Valid() || s.Level() != htm.PaperLevel {
			t.Fatalf("bucket %d span invalid: %v", i, s)
		}
		if i > 0 && p.Bucket(i-1).Span.Start > s.Start {
			t.Fatalf("spans out of order at %d", i)
		}
	}
}

func TestMaterializedObjectsWithinSpan(t *testing.T) {
	c := testCatalog(t, 6000)
	p, _ := NewPartition(c, 400, 0)
	for i := 0; i < p.NumBuckets(); i += 5 {
		b := p.Bucket(i)
		objs := p.Materialize(i)
		if len(objs) != b.Count() {
			t.Fatalf("bucket %d materialized %d objects, want %d", i, len(objs), b.Count())
		}
		for j, o := range objs {
			if j > 0 && objs[j-1].HTMID > o.HTMID {
				t.Fatalf("bucket %d unsorted at %d", i, j)
			}
			if !b.Span.Contains(o.HTMID) {
				t.Fatalf("bucket %d object %d (htm %v) outside span %v", i, j, o.HTMID, b.Span)
			}
		}
	}
}

func TestBucketsForRanges(t *testing.T) {
	c := testCatalog(t, 6000)
	p, _ := NewPartition(c, 400, 0)
	// The exact span of bucket 3 must map back to (at least) bucket 3.
	b3 := p.Bucket(3)
	got := p.BucketsForRanges([]htm.Range{b3.Span})
	found := false
	for _, i := range got {
		if i == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("bucket 3's own span mapped to %v", got)
	}
	// Results sorted, unique, and actually overlapping.
	for i, idx := range got {
		if i > 0 && got[i-1] >= idx {
			t.Fatalf("unsorted/duplicate result: %v", got)
		}
		if !p.Bucket(idx).Span.Overlaps(b3.Span) {
			t.Fatalf("bucket %d does not overlap queried span", idx)
		}
	}
	if got := p.BucketsForRanges(nil); len(got) != 0 {
		t.Error("nil ranges should map to no buckets")
	}
}

func TestBucketsForRangesFindsObjectBuckets(t *testing.T) {
	// Soundness: the cover of a cap around any materialized object must
	// map to the bucket holding that object.
	c := testCatalog(t, 6000)
	p, _ := NewPartition(c, 400, 0)
	for i := 0; i < p.NumBuckets(); i += 3 {
		objs := p.Materialize(i)
		o := objs[len(objs)/2]
		cover := htm.CoverCap(geom.NewCap(o.Pos, geom.ArcsecToRad(10)), htm.PaperLevel)
		got := p.BucketsForRanges(cover)
		found := false
		for _, idx := range got {
			if idx == i {
				found = true
			}
		}
		if !found {
			t.Fatalf("cap around object of bucket %d mapped to %v", i, got)
		}
	}
}

// TestBucketsReachedMatchesCover: the buckets a workload object is assigned
// to are exactly the buckets whose span overlaps the cover of its error
// cap — none of the buckets its bounding range merely crosses — for caps
// anywhere, on trixel edges and vertices, on the octahedron's edges, at a
// pole, and of zero radius, which keeps its own trixel. The result is
// appended after what dst already held.
func TestBucketsReachedMatchesCover(t *testing.T) {
	p, err := NewPartition(testCatalog(t, 20000), 100, 0) // 200 buckets
	if err != nil {
		t.Fatal(err)
	}
	radii := []float64{0, geom.ArcsecToRad(1), geom.ArcsecToRad(30), geom.Radians(0.2), geom.Radians(1)}
	type probe struct {
		what   string
		center geom.Vec3
	}
	var probes []probe
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 150; i++ {
		v := geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		probes = append(probes, probe{"random", v.Normalize()})
	}
	for i := 0; i < 40; i++ {
		level := 2 + rng.Intn(7)
		tri := htm.FromPos(uint64(rng.Int63n(int64(htm.NumTrixels(level)))), level).Triangle()
		for _, v := range []geom.Vec3{tri.V0, tri.V1, tri.V2, tri.V0.Mid(tri.V1), tri.V1.Mid(tri.V2), tri.V2.Mid(tri.V0)} {
			probes = append(probes, probe{fmt.Sprintf("level-%d trixel edge or vertex", level), v})
		}
	}
	for f := 0; f < 8; f++ {
		tri := htm.FaceTriangle(f)
		for _, w := range []float64{0.1, 0.5, 0.9} {
			probes = append(probes, probe{"octahedron edge", tri.V0.Scale(1 - w).Add(tri.V1.Scale(w)).Normalize()})
		}
	}
	probes = append(probes, probe{"north pole", geom.Vec3{Z: 1}}, probe{"south pole", geom.Vec3{Z: -1}})

	prefix := []int{-1, -2}
	multi, phantom := 0, 0
	for _, pr := range probes {
		for _, r := range radii {
			c := geom.NewCap(pr.center, r)
			lo, hi, ok := htm.CapBounds(c, htm.PaperLevel)
			if !ok {
				t.Fatalf("%s %v radius %g: empty cover", pr.what, pr.center, r)
			}
			bounds := htm.Range{Start: lo, End: hi}
			want := p.BucketsForRanges(htm.CoverCap(c, htm.PaperLevel))
			out := p.AppendBucketsReached(slices.Clone(prefix), bounds, c)
			if !slices.Equal(out[:len(prefix)], prefix) {
				t.Fatalf("%s: dst's elements were overwritten: %v", pr.what, out[:len(prefix)])
			}
			if got := out[len(prefix):]; !slices.Equal(got, want) {
				t.Fatalf("%s %v radius %g: buckets %v, the cover overlaps %v", pr.what, pr.center, r, got, want)
			}
			if len(want) > 1 {
				multi++
			}
			if len(p.BucketsForRanges([]htm.Range{bounds})) > len(want) {
				phantom++
			}
			if r == 0 {
				own := htm.Lookup(pr.center, htm.PaperLevel)
				for bi := 0; bi < p.NumBuckets(); bi++ {
					if p.Bucket(bi).Span.Contains(own) && !slices.Contains(want, bi) {
						t.Fatalf("%s: a zero-radius cap lost bucket %d, which holds its own trixel", pr.what, bi)
					}
				}
			}
		}
	}
	if multi < 50 || phantom < 50 {
		t.Fatalf("fixture: %d caps reach two or more buckets and %d have a bounding range crossing a bucket they miss; want 50 of each", multi, phantom)
	}
	t.Logf("%d caps: %d reach two or more buckets, %d have a bounding range crossing a bucket they miss", len(probes)*len(radii), multi, phantom)
}

func TestBucketBytes(t *testing.T) {
	c := testCatalog(t, 1000)
	p, _ := NewPartition(c, 100, 0)
	if got := p.BucketBytes(0); got != 100*DefaultObjectBytes {
		t.Errorf("BucketBytes = %d", got)
	}
	p2, _ := NewPartition(c, 100, 512)
	if got := p2.BucketBytes(0); got != 100*512 {
		t.Errorf("custom BucketBytes = %d", got)
	}
}

func TestPaperGeometry(t *testing.T) {
	// 10,000-object buckets at 4 KiB/object are the paper's 40 MB, which
	// the disk model reads in ~Tb = 1.2 s.
	m := disk.SkyQuery()
	tb, _ := m.Calibrate(10000 * DefaultObjectBytes)
	if tb.Seconds() < 1.1 || tb.Seconds() > 1.3 {
		t.Errorf("paper bucket reads in %v, want ~1.2s", tb)
	}
}

func TestStoreCostAndMaterialization(t *testing.T) {
	c := testCatalog(t, 2000)
	p, _ := NewPartition(c, 200, 0)
	clk := simclock.NewVirtual()
	d := disk.New(disk.SkyQuery(), clk)

	s := NewStore(p, d, true)
	if !s.Materializing() || s.Partition() != p {
		t.Error("accessors")
	}
	// At a threshold of 5%, a queue of 10 scans a 200-object bucket and a
	// queue of 9 or fewer probes it, unless the bucket is cached.
	const th = 0.05
	before := d.Ledger().Charged
	r, runs, _, kind := s.Serve(0, nil, make([]htm.Range, 10), th)
	if objs := slices.Concat(runs...); kind != ReadScan || len(runs) != 1 || len(objs) != 200 {
		t.Errorf("a %s returned %d objects in %d runs; want a scan of 200 in one", kind, len(objs), len(runs))
	}
	if cost := d.Ledger().Charged - before; cost != d.Model().SequentialRead(p.BucketBytes(0)) {
		t.Errorf("scan cost = %v", cost)
	}
	before = d.Ledger().Charged
	if hit, runs, n, kind := s.Serve(0, r, make([]htm.Range, 1), th); hit != r || kind != ReadScan || n != 0 || len(slices.Concat(runs...)) != 200 || d.Ledger().Charged != before {
		t.Errorf("one queued object on the cached bucket: a %s reading %d bytes; want a scan of the cached bucket that reads and charges nothing", kind, n)
	}
	kept, runs2, _, kind := s.Serve(0, nil, make([]htm.Range, 7), th)
	if objs2 := slices.Concat(runs2...); kind != ReadProbe || len(runs2) != 1 || len(objs2) != 200 {
		t.Errorf("a %s returned %d objects in %d runs; want a probe of 200 in one", kind, len(objs2), len(runs2))
	}
	if kept != nil {
		t.Error("the simulated store's probe returned a bucket to cache; it keeps nothing")
	}
	if cost2 := d.Ledger().Charged - before; cost2 != 7*d.Model().SortedProbe() {
		t.Errorf("probe cost = %v", cost2)
	}

	cs := NewStore(p, d, false)
	if cs.Disk() != d {
		t.Error("a store's disk is the one it was built with")
	}
	_, objs3, _, _ := cs.Serve(1, nil, make([]htm.Range, 10), th)
	if objs3 != nil {
		t.Error("cost-only store should not materialize")
	}
	_, objs4, _, _ := cs.Serve(1, nil, make([]htm.Range, 3), th)
	if objs4 != nil {
		t.Error("cost-only probe should not materialize")
	}
	st := d.Stats()
	if st.SeqReads != 2 || st.Probes != 10 {
		t.Errorf("disk stats = %+v", st)
	}
}

// Property: every object ordinal falls in exactly one bucket and
// Materialize returns it there.
func TestQuickOrdinalToBucket(t *testing.T) {
	c := testCatalog(t, 3000)
	p, _ := NewPartition(c, 171, 0)
	f := func(x uint16) bool {
		ord := int64(x) % 3000
		idx := int(ord / 171)
		b := p.Bucket(idx)
		return ord >= b.Lo && ord < b.Hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
