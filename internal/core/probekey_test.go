package core

import (
	"reflect"
	"testing"

	"liferaft/internal/bucket"
	"liferaft/internal/catalog"
	"liferaft/internal/disk"
	"liferaft/internal/geom"
	"liferaft/internal/htm"
	"liferaft/internal/segment"
	"liferaft/internal/simclock"
	"liferaft/internal/xmatch"
)

// probeMeter records what each fill — every service here is one object's
// queue, under the hybrid threshold, which a file store serves as a fill
// like any other — read of the backend under it.
type probeMeter struct {
	bucket.Backend
	bytes map[int]int64 // bucket -> bytes its fills read
}

func (m *probeMeter) Fill(i int, r *bucket.Resident, keys []htm.Range) ([][]catalog.Object, int64, error) {
	runs, n, err := m.Backend.Fill(i, r, keys)
	m.bytes[i] += n
	return runs, n, err
}

// An object on an edge of the octahedron has a bounding ID range that runs
// over whole faces. It is queued only on the buckets its error circle
// reaches — one assignment per bucket span the cover overlaps, not one per
// bucket between the two ends of its cover — so no bucket the circle misses
// is read at all, and the pairs equal the brute-force join over the whole
// catalog.
func TestSweepingObjectReadsOnlyWhatItsCircleReaches(t *testing.T) {
	part, dir, _, _ := parityFixture(t)
	set, err := segment.OpenSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	meter := &probeMeter{Backend: segment.NewBackend(set, true), bytes: make(map[int]int64)}
	clk := simclock.Real{}
	d := disk.New(parityModel(), clk)
	cfg := Config{
		Store:        bucket.NewStore(part, d, true).WithBackend(meter),
		Policy:       PolicyLifeRaft,
		Alpha:        0.5,
		CacheBuckets: 20,
	}
	s, err := newScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}

	tri := htm.FaceTriangle(0)
	p := tri.V0.Mid(tri.V1)
	radius := geom.Radians(1)
	wo := xmatch.NewWorkloadObject(7, catalog.Object{ID: 1 << 40, Pos: p, HTMID: htm.Lookup(p, htm.PaperLevel)}, radius)
	cover := htm.CoverCap(geom.NewCap(p, radius), htm.PaperLevel)
	reached := part.BucketsForRanges(cover)
	if swept := part.BucketsForRanges(wo.Ranges()); len(swept) < 4*len(reached) {
		t.Fatalf("fixture: the bounding range spans %d buckets, the cover %d; want a sweeping object", len(swept), len(reached))
	}
	if done := s.admit(Job{ID: 7, Objects: []xmatch.WorkloadObject{wo}}, clk.Now()); done != nil {
		t.Fatal("the object overlaps no bucket")
	}
	var res []Result
	for s.pendingWork() {
		done, _ := s.step(clk.Now())
		res = append(res, done...)
	}
	if len(res) != 1 || res[0].Assignments != len(reached) {
		t.Fatalf("%d results, %d assignments; want one query with one per bucket the cover reaches (%d)", len(res), res[0].Assignments, len(reached))
	}
	for _, bi := range reached {
		if xmatch.ChooseStrategy(1, part.Bucket(bi).Count(), s.cfg.HybridThreshold, false) != xmatch.Index {
			t.Fatalf("one object on bucket %d is not under the threshold; the fixture must probe", bi)
		}
	}
	if s.stats.ScanServices != int64(res[0].Assignments) || s.stats.IndexServices != 0 {
		t.Fatalf("%d scan and %d index services for %d assignments; a file store serves every one as a scan-kind fill",
			s.stats.ScanServices, s.stats.IndexServices, res[0].Assignments)
	}
	for bi := range meter.bytes {
		if !htm.RangesOverlap(cover, []htm.Range{part.Bucket(bi).Span}) {
			t.Errorf("bucket %d was read, yet the circle does not reach it", bi)
		}
	}
	if len(meter.bytes) != len(reached) {
		t.Errorf("%d buckets read, the circle reaches %d", len(meter.bytes), len(reached))
	}

	all := part.Catalog().Objects(0, int64(part.Catalog().Total()))
	want := xmatch.BruteForce(all, []xmatch.WorkloadObject{wo}, nil)
	got := append([]xmatch.Pair(nil), res[0].Pairs...)
	xmatch.SortPairs(want)
	xmatch.SortPairs(got)
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("engine found %d pairs, brute force over the catalog %d (want some)", len(got), len(want))
	}
}
