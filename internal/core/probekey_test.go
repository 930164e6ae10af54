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

// probeMeter records what each index probe asked of the backend under it.
type probeMeter struct {
	bucket.Backend
	bytes map[int]int64 // bucket -> bytes its probes read
}

func (m *probeMeter) ProbeRanges(i int, ranges []htm.Range) ([]catalog.Object, int64, error) {
	objs, n, err := m.Backend.ProbeRanges(i, ranges)
	m.bytes[i] += n
	return objs, n, err
}

// An object on an edge of the octahedron has a bounding ID range that runs
// over whole faces, so it is queued on every bucket between the two ends
// of its cover. The engine probes each of those by what the error circle
// reaches there (xmatch.WorkloadObject.RangeIn): the buckets the circle
// does not reach are serviced without a byte read, the others are not read
// from end to end, and the pairs equal the brute-force join over the
// whole catalog.
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
		Store:              bucket.NewStore(part, d, true).WithBackend(meter),
		Disk:               d,
		Clock:              clk,
		Policy:             PolicyLifeRaft,
		Alpha:              0.5,
		CacheBuckets:       20,
		MaterializeResults: true,
	}
	s, err := newScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}

	tri := htm.FaceTriangle(0)
	p := tri.V0.Mid(tri.V1)
	radius := geom.Radians(1)
	wo := xmatch.NewWorkloadObject(7, catalog.Object{ID: 1 << 40, Pos: p, HTMID: htm.Lookup(p, htm.PaperLevel)}, radius)
	if done := s.admit(Job{ID: 7, Objects: []xmatch.WorkloadObject{wo}}, clk.Now()); done != nil {
		t.Fatal("the object overlaps no bucket")
	}
	var res []Result
	for s.pendingWork() {
		done, _ := s.step(clk.Now())
		res = append(res, done...)
	}
	if len(res) != 1 || res[0].Assignments < 20 {
		t.Fatalf("%d results, %d assignments; want one query swept over at least 20 buckets", len(res), res[0].Assignments)
	}
	if s.stats.IndexServices != int64(res[0].Assignments) {
		t.Fatalf("%d of %d services were index probes; the fixture must probe", s.stats.IndexServices, res[0].Assignments)
	}

	all := part.Catalog().Objects(0, int64(part.Catalog().Total()))
	want := xmatch.BruteForce(all, []xmatch.WorkloadObject{wo}, nil)
	got := append([]xmatch.Pair(nil), res[0].Pairs...)
	xmatch.SortPairs(want)
	xmatch.SortPairs(got)
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("engine found %d pairs, brute force over the catalog %d (want some)", len(got), len(want))
	}

	cover := htm.CoverCap(geom.NewCap(p, radius), htm.PaperLevel)
	reached := 0
	for bi, n := range meter.bytes {
		span := part.Bucket(bi).Span
		if htm.RangesOverlap(cover, []htm.Range{span}) {
			reached++
			continue
		}
		if n != 0 {
			t.Errorf("bucket %d: the circle does not reach it, yet its probe read %d bytes", bi, n)
		}
	}
	if len(meter.bytes) != res[0].Assignments || reached == 0 || reached > len(meter.bytes)/4 {
		t.Fatalf("%d buckets probed for %d assignments, the circle reaches %d of them", len(meter.bytes), res[0].Assignments, reached)
	}
}
