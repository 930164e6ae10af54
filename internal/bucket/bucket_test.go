package bucket

import (
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
	objs, cost := s.ReadBucket(0)
	if len(objs) != 200 {
		t.Errorf("read returned %d objects", len(objs))
	}
	if cost != d.Model().SequentialRead(p.BucketBytes(0)) {
		t.Errorf("scan cost = %v", cost)
	}
	objs2, cost2 := s.ProbeRanges(0, make([]htm.Range, 7))
	if len(objs2) != 200 {
		t.Errorf("probe returned %d objects", len(objs2))
	}
	if cost2 != 7*d.Model().SortedProbe() {
		t.Errorf("probe cost = %v", cost2)
	}

	cs := NewStore(p, d, false)
	objs3, _ := cs.ReadBucket(1)
	if objs3 != nil {
		t.Error("cost-only store should not materialize")
	}
	objs4, _ := cs.ProbeRanges(1, make([]htm.Range, 3))
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
