package xmatch

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"liferaft/internal/catalog"
	"liferaft/internal/geom"
	"liferaft/internal/htm"
)

// makeField generates a deterministic local field and a workload queue
// whose objects are jittered copies of some locals (guaranteed matches)
// plus unrelated distant objects.
func makeField(seed int64, nLocal, nMatch, nMiss int, radiusArcsec float64) ([]catalog.Object, []WorkloadObject) {
	rng := rand.New(rand.NewSource(seed))
	center := geom.FromRaDec(rng.Float64()*360, rng.Float64()*120-60)
	locals := make([]catalog.Object, nLocal)
	for i := range locals {
		// Scatter within ~0.5 degree.
		p := jitter(rng, center, geom.Radians(0.5))
		locals[i] = catalog.Object{
			ID:    uint64(i),
			Pos:   p,
			HTMID: htm.Lookup(p, htm.PaperLevel),
			Mag:   14 + rng.Float64()*10,
		}
	}
	sortByHTM(locals)
	radius := geom.ArcsecToRad(radiusArcsec)
	var queue []WorkloadObject
	for i := 0; i < nMatch; i++ {
		base := locals[rng.Intn(len(locals))]
		p := jitter(rng, base.Pos, radius*0.8)
		remote := catalog.Object{ID: uint64(1000 + i), Pos: p, HTMID: htm.Lookup(p, htm.PaperLevel)}
		queue = append(queue, NewWorkloadObject(uint64(i%3), remote, radius))
	}
	for i := 0; i < nMiss; i++ {
		p := jitter(rng, center.Scale(-1).Normalize(), geom.Radians(1)) // antipode: no matches
		remote := catalog.Object{ID: uint64(5000 + i), Pos: p, HTMID: htm.Lookup(p, htm.PaperLevel)}
		queue = append(queue, NewWorkloadObject(uint64(i%3), remote, radius))
	}
	return locals, queue
}

func jitter(rng *rand.Rand, v geom.Vec3, maxRad float64) geom.Vec3 {
	return v.Add(geom.Vec3{
		X: rng.NormFloat64() * maxRad / 2,
		Y: rng.NormFloat64() * maxRad / 2,
		Z: rng.NormFloat64() * maxRad / 2,
	}).Normalize()
}

func sortByHTM(objs []catalog.Object) {
	for i := 1; i < len(objs); i++ {
		for j := i; j > 0 && objs[j-1].HTMID > objs[j].HTMID; j-- {
			objs[j-1], objs[j] = objs[j], objs[j-1]
		}
	}
}

func pairsEqual(a, b []Pair) bool {
	SortPairs(a)
	SortPairs(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].QueryID != b[i].QueryID || a[i].Local.ID != b[i].Local.ID || a[i].Remote.ID != b[i].Remote.ID {
			return false
		}
	}
	return true
}

func TestNewWorkloadObjectBounds(t *testing.T) {
	p := geom.FromRaDec(123, 45)
	obj := catalog.Object{ID: 1, Pos: p, HTMID: htm.Lookup(p, htm.PaperLevel)}
	w := NewWorkloadObject(7, obj, geom.ArcsecToRad(5))
	if w.QueryID != 7 || w.MinID > w.MaxID {
		t.Fatalf("workload object malformed: %+v", w)
	}
	// The object's own trixel must fall inside the bounding range.
	if obj.HTMID < w.MinID || obj.HTMID > w.MaxID {
		t.Error("bounding range excludes the object's own trixel")
	}
	rs := w.Ranges()
	if len(rs) != 1 || rs[0].Start != w.MinID || rs[0].End != w.MaxID {
		t.Error("Ranges form")
	}
}

func TestNewWorkloadObjectZeroRadius(t *testing.T) {
	p := geom.FromRaDec(10, 10)
	obj := catalog.Object{ID: 1, Pos: p, HTMID: htm.Lookup(p, htm.PaperLevel)}
	w := NewWorkloadObject(1, obj, 0)
	if w.MinID > obj.HTMID || w.MaxID < obj.HTMID {
		t.Error("zero-radius bounds must include own trixel")
	}
}

func TestJoinsAgreeWithBruteForce(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		locals, queue := makeField(seed, 300, 60, 20, 3)
		want := BruteForce(locals, queue, nil)
		if len(want) == 0 {
			t.Fatalf("seed %d: brute force found no matches; bad fixture", seed)
		}
		if got := MergeJoin(locals, queue, nil); !pairsEqual(got, want) {
			t.Errorf("seed %d: MergeJoin = %d pairs, brute force %d", seed, len(got), len(want))
		}
		if got := IndexJoin(locals, queue, nil); !pairsEqual(got, want) {
			t.Errorf("seed %d: IndexJoin = %d pairs, brute force %d", seed, len(got), len(want))
		}
	}
}

func TestJoinsEmptyInputs(t *testing.T) {
	locals, queue := makeField(1, 50, 10, 0, 3)
	if MergeJoin(nil, queue, nil) != nil || MergeJoin(locals, nil, nil) != nil {
		t.Error("MergeJoin with empty input should be nil")
	}
	if IndexJoin(nil, queue, nil) != nil || IndexJoin(locals, nil, nil) != nil {
		t.Error("IndexJoin with empty input should be nil")
	}
}

func TestMergeJoinDoesNotMutateQueue(t *testing.T) {
	locals, queue := makeField(2, 100, 20, 5, 3)
	before := make([]WorkloadObject, len(queue))
	copy(before, queue)
	MergeJoin(locals, queue, nil)
	if !reflect.DeepEqual(before, queue) {
		t.Error("MergeJoin reordered the caller's queue")
	}
}

func TestPredicatesApplied(t *testing.T) {
	locals, queue := makeField(3, 200, 50, 0, 3)
	all := BruteForce(locals, queue, nil)
	// Queries 0,1,2 are interleaved; restrict query 0 to bright locals.
	preds := map[uint64]Predicate{0: MagnitudeWindow(14, 16)}
	got := MergeJoin(locals, queue, preds)
	for _, p := range got {
		if p.QueryID == 0 && (p.Local.Mag < 14 || p.Local.Mag >= 16) {
			t.Fatalf("predicate violated: %v mag %v", p, p.Local.Mag)
		}
	}
	// Other queries unaffected.
	countQ1 := func(ps []Pair) int {
		n := 0
		for _, p := range ps {
			if p.QueryID == 1 {
				n++
			}
		}
		return n
	}
	if countQ1(got) != countQ1(all) {
		t.Error("predicate on query 0 changed query 1's results")
	}
	// Index join honors predicates identically.
	if got2 := IndexJoin(locals, queue, preds); !pairsEqual(got, got2) {
		t.Error("IndexJoin predicate handling differs from MergeJoin")
	}
}

func TestSeparationWithinRadius(t *testing.T) {
	locals, queue := makeField(4, 200, 40, 10, 2)
	for _, p := range MergeJoin(locals, queue, nil) {
		if p.SepRad > geom.ArcsecToRad(2)+geom.Epsilon {
			t.Fatalf("pair separation %v arcsec exceeds radius", geom.RadToArcsec(p.SepRad))
		}
	}
}

func TestChooseStrategy(t *testing.T) {
	// In-memory buckets always scan.
	if ChooseStrategy(1, 10000, 0.03, true) != Scan {
		t.Error("cached bucket must scan")
	}
	// Small queue: index. 3% of 10000 = 300.
	if ChooseStrategy(299, 10000, 0.03, false) != Index {
		t.Error("queue below threshold should use index")
	}
	if ChooseStrategy(300, 10000, 0.03, false) != Scan {
		t.Error("queue at threshold should scan")
	}
	// Default threshold kicks in for 0.
	if ChooseStrategy(299, 10000, 0, false) != Index {
		t.Error("default threshold")
	}
	// Empty bucket: scan (nothing to probe).
	if ChooseStrategy(10, 0, 0.03, false) != Scan {
		t.Error("empty bucket should scan")
	}
	if Scan.String() != "scan" || Index.String() != "index" {
		t.Error("Strategy strings")
	}
}

func TestPairString(t *testing.T) {
	locals, queue := makeField(5, 100, 10, 0, 3)
	ps := MergeJoin(locals, queue, nil)
	if len(ps) == 0 || ps[0].String() == "" {
		t.Error("Pair String")
	}
}

// Property: MergeJoin and IndexJoin agree with BruteForce on random
// fields of varying density and radius.
func TestQuickJoinEquivalence(t *testing.T) {
	f := func(seed int64, nl, nm uint8, r uint8) bool {
		locals, queue := makeField(seed, int(nl%100)+10, int(nm%30)+1, int(nm%10), float64(r%10)+0.5)
		want := BruteForce(locals, queue, nil)
		return pairsEqual(MergeJoin(locals, queue, nil), want) &&
			pairsEqual(IndexJoin(locals, queue, nil), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMergeJoin1kx300(b *testing.B) {
	locals, queue := makeField(1, 1000, 300, 0, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MergeJoin(locals, queue, nil)
	}
}

func BenchmarkIndexJoin1kx30(b *testing.B) {
	locals, queue := makeField(1, 1000, 30, 0, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IndexJoin(locals, queue, nil)
	}
}

func benchObject() (catalog.Object, float64) {
	p := geom.FromRaDec(200, 30)
	return catalog.Object{ID: 1, Pos: p, HTMID: htm.Lookup(p, htm.PaperLevel)}, geom.ArcsecToRad(3)
}

var sinkWO WorkloadObject

func BenchmarkNewWorkloadObject(b *testing.B) {
	obj, radius := benchObject()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkWO = NewWorkloadObject(1, obj, radius)
	}
}

// TestNewWorkloadObjectZeroAlloc: the bounds come from a walk that builds
// no cover, so pre-processing a shipped object allocates nothing.
func TestNewWorkloadObjectZeroAlloc(t *testing.T) {
	obj, radius := benchObject()
	if n := testing.AllocsPerRun(200, func() { sinkWO = NewWorkloadObject(1, obj, radius) }); n != 0 {
		t.Errorf("NewWorkloadObject allocates %.1f/op, want 0", n)
	}
}

// TestJoinerSteadyStateZeroAlloc: once its buffers have grown to a
// service's size, a Joiner joins without allocating — pairs included.
func TestJoinerSteadyStateZeroAlloc(t *testing.T) {
	locals, queue := makeField(1, 1000, 300, 20, 3)
	preds := map[uint64]Predicate{1: MagnitudeWindow(0, 100)}
	var j Joiner
	whole := [][]catalog.Object{locals}
	if len(j.Merge(whole, queue, preds)) == 0 {
		t.Fatal("no pairs; bad fixture")
	}
	if n := testing.AllocsPerRun(50, func() { j.Merge(whole, queue, preds) }); n != 0 {
		t.Errorf("warm Joiner.Merge allocates %.1f/op, want 0", n)
	}
	// A part of a service: a run of the sorted queue, after the whole.
	SortQueue(queue)
	for _, part := range [][]WorkloadObject{queue[:40], queue[len(queue)-40:]} {
		if n := testing.AllocsPerRun(50, func() { j.Merge(whole, part, preds) }); n != 0 {
			t.Errorf("warm Joiner.Merge over a %d-object run of the queue allocates %.1f/op, want 0", len(part), n)
		}
	}
}

// mergeWholeBucket is Merge as it was before it narrowed the sweep to the
// queue's window: every bucket object is visited. The reference for the
// order of Merge's pairs.
func mergeWholeBucket(bucket []catalog.Object, queue []WorkloadObject) []Pair {
	q := append([]WorkloadObject(nil), queue...)
	SortQueue(q)
	var out []Pair
	var active []WorkloadObject
	next := 0
	for _, local := range bucket {
		for next < len(q) && q[next].MinID <= local.HTMID {
			active = append(active, q[next])
			next++
		}
		w := 0
		for _, wo := range active {
			if wo.MaxID < local.HTMID {
				continue
			}
			active[w] = wo
			w++
			out = verify(out, local, wo, nil)
		}
		active = active[:w]
	}
	return out
}

// TestMergeSweepsOnlyTheQueueWindow: narrowing the sweep to the bucket
// objects between the queue's least MinID and greatest MaxID changes no
// pair and no pair's position — for the whole queue, for narrow runs of
// it at either end of the bucket and in the middle (the parts a split
// service joins), and for queues whose ranges begin before the bucket's
// first object, run on past its last, or miss it altogether. Each queue is
// also merged over the bucket cut at random points into runs, the way a
// fill hands back the granules it decoded: empty runs among them, and for
// every narrow queue runs wholly outside its window, which the sweep skips.
func TestMergeSweepsOnlyTheQueueWindow(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		locals, queue := makeField(seed, 400, 120, 10, 3)
		rng := rand.New(rand.NewSource(seed))
		var runs [][]catalog.Object
		for lo := 0; lo < len(locals); {
			hi := min(lo+rng.Intn(40), len(locals))
			runs = append(runs, locals[lo:hi]) // empty when hi == lo
			if rng.Intn(4) == 0 {
				runs = append(runs, locals[hi:hi])
			}
			lo = hi
		}
		var j Joiner
		SortQueue(queue)
		n := len(queue)
		wide := queue[n/2]
		wide.MinID, wide.MaxID = 0, locals[len(locals)-1].HTMID+1000 // reaches past both ends
		before := queue[0]
		before.MinID, before.MaxID = 0, locals[0].HTMID-1 // ends before the first object
		after := queue[n-1]
		after.MinID, after.MaxID = locals[len(locals)-1].HTMID+1, locals[len(locals)-1].HTMID+9
		cases := map[string][]WorkloadObject{
			"whole":        queue,
			"low end":      queue[:6],
			"high end":     queue[n-16:],
			"middle":       queue[n/2 : n/2+8],
			"one":          queue[n/3 : n/3+1],
			"past the end": append([]WorkloadObject{wide}, queue[n-6:]...),
			"from before":  append([]WorkloadObject{wide}, queue[:3]...),
			"all before":   {before},
			"all after":    {after},
		}
		for name, q := range cases {
			got, want := MergeJoin(locals, q, nil), mergeWholeBucket(locals, q)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d, %s: %d pairs, the whole-bucket sweep finds %d (or in another order)", seed, name, len(got), len(want))
			}
			over := append([]Pair(nil), j.Merge(runs, q, nil)...)
			if !reflect.DeepEqual(over, want) {
				t.Errorf("seed %d, %s: over %d runs, %d pairs; the whole-bucket sweep finds %d (or in another order)", seed, name, len(runs), len(over), len(want))
			}
			// The last two carry ranges their objects do not lie in, which
			// brute force, testing distance alone, knows nothing of.
			if name == "all before" || name == "all after" {
				if len(got) != 0 {
					t.Errorf("seed %d, %s: %d pairs from a range no bucket object is in", seed, name, len(got))
				}
				continue
			}
			if bf := BruteForce(locals, q, nil); !pairsEqual(append([]Pair(nil), got...), bf) || !pairsEqual(over, bf) {
				t.Errorf("seed %d, %s: %d pairs, %d over runs, brute force %d", seed, name, len(got), len(over), len(bf))
			}
		}
	}
}

// TestJoinerReuseMatchesFreshJoins: a Joiner carried across services of
// different shapes returns what the one-shot joins return, in their order.
func TestJoinerReuseMatchesFreshJoins(t *testing.T) {
	var j Joiner
	for seed := int64(0); seed < 8; seed++ {
		locals, queue := makeField(seed, 50+int(seed)*40, 5+int(seed)*9, int(seed), 3)
		if got, want := j.Merge([][]catalog.Object{locals}, queue, nil), MergeJoin(locals, queue, nil); !reflect.DeepEqual(append([]Pair(nil), got...), want) {
			t.Errorf("seed %d: reused Merge differs from MergeJoin", seed)
		}
	}
}
