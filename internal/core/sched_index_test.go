package core

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"liferaft/internal/bucket"
	"liferaft/internal/catalog"
	"liferaft/internal/metric"
	"liferaft/internal/simclock"
	"liferaft/internal/xmatch"
)

// Unit tests for the incremental index primitives: the position-tracked
// heap, the two-level bitset, and the sorted non-destructive walker. The
// end-to-end contract (indexed decisions == exhaustive scans) lives in
// golden_test.go.

func TestQheapOrderAndRemoval(t *testing.T) {
	h := &qheap{slot: posUt, less: func(a, b *bqueue) bool {
		return a.ut > b.ut || (a.ut == b.ut && a.idx < b.idx)
	}}
	rng := rand.New(rand.NewSource(42))
	var qs []*bqueue
	for i := 0; i < 200; i++ {
		q := &bqueue{idx: i, ut: float64(rng.Intn(50))} // many key ties
		for j := range q.pos {
			q.pos[j] = -1
		}
		qs = append(qs, q)
		h.push(q)
	}
	// Random key updates with fix.
	for i := 0; i < 300; i++ {
		q := qs[rng.Intn(len(qs))]
		q.ut = float64(rng.Intn(50))
		h.fix(q)
	}
	// Remove a random half.
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	for _, q := range qs[:100] {
		h.remove(q)
	}
	rest := append([]*bqueue(nil), qs[100:]...)
	// Popping the head repeatedly must yield the exact total order.
	sort.Slice(rest, func(i, j int) bool { return h.less(rest[i], rest[j]) })
	for _, want := range rest {
		got := h.head()
		if got != want {
			t.Fatalf("heap head = idx %d ut %v, want idx %d ut %v",
				got.idx, got.ut, want.idx, want.ut)
		}
		h.remove(got)
	}
	if h.len() != 0 {
		t.Fatalf("%d elements left after draining", h.len())
	}
}

func TestHeapWalkSortedEnumeration(t *testing.T) {
	h := &qheap{slot: posAge, less: func(a, b *bqueue) bool {
		at, bt := a.ageFrontier[0].arrived, b.ageFrontier[0].arrived
		return at.Before(bt) || (at.Equal(bt) && a.idx < b.idx)
	}}
	rng := rand.New(rand.NewSource(7))
	var all []*bqueue
	for i := 0; i < 150; i++ {
		q := &bqueue{idx: i, ageFrontier: []agePoint{
			{arrived: simclock.Epoch.Add(time.Duration(rng.Intn(20)) * time.Second), weight: 1},
		}}
		for j := range q.pos {
			q.pos[j] = -1
		}
		all = append(all, q)
		h.push(q)
	}
	want := append([]*bqueue(nil), all...)
	sort.Slice(want, func(i, j int) bool { return h.less(want[i], want[j]) })
	var w heapWalk
	w.reset(h)
	for i, wq := range want {
		if p := w.peek(); p != wq {
			t.Fatalf("peek %d = idx %d, want idx %d", i, p.idx, wq.idx)
		}
		if g := w.next(); g != wq {
			t.Fatalf("walk %d = idx %d, want idx %d", i, g.idx, wq.idx)
		}
	}
	if w.next() != nil || w.peek() != nil {
		t.Fatal("walk should be exhausted")
	}
	if h.len() != 150 {
		t.Fatal("walk must not consume the heap")
	}
}

func TestBitsetSuccessor(t *testing.T) {
	const n = 100_000
	b := newBitset(n)
	want := map[int]bool{}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		k := rng.Intn(n)
		want[k] = true
		b.set(k)
	}
	var sorted []int
	for k := range want {
		sorted = append(sorted, k)
	}
	sort.Ints(sorted)
	// Successor from every set point, its neighbor, and random probes.
	succ := func(from int) int {
		i := sort.SearchInts(sorted, from)
		if i == len(sorted) {
			return -1
		}
		return sorted[i]
	}
	for i := 0; i < 2000; i++ {
		from := rng.Intn(n + 10)
		if got := b.nextFrom(from); got != succ(from) {
			t.Fatalf("nextFrom(%d) = %d, want %d", from, got, succ(from))
		}
	}
	// Clearing must update the summary level too.
	for _, k := range sorted[:250] {
		b.clear(k)
		delete(want, k)
	}
	sorted = sorted[250:]
	for i := 0; i < 2000; i++ {
		from := rng.Intn(n + 10)
		if got := b.nextFrom(from); got != succ(from) {
			t.Fatalf("after clear: nextFrom(%d) = %d, want %d", from, got, succ(from))
		}
	}
}

// TestRoundRobinSparse: round-robin on a huge, nearly empty bucket space
// must cycle through exactly the non-empty buckets in index order — the
// regime where the seed's per-pick O(NumBuckets) scan collapsed.
func TestRoundRobinSparse(t *testing.T) {
	s := syntheticScheduler(t, 100_000, PolicyRoundRobin, 0)
	occupied := []int{17, 4093, 4096, 55_001, 99_999}
	for _, bi := range occupied {
		s.pushItem(bi, item{wo: xmatch.WorkloadObject{QueryID: 1}, ageWeight: 1})
		s.pushItem(bi, item{wo: xmatch.WorkloadObject{QueryID: 1}, ageWeight: 1})
	}
	s.queries[1] = &queryState{remaining: 2 * len(occupied), result: Result{QueryID: 1}}
	var got []int
	for s.pendingWork() {
		bi, ok := s.pick(simclock.Epoch)
		if !ok {
			t.Fatal("pending work but no pick")
		}
		got = append(got, bi)
		s.serviceBucket(bi, simclock.Epoch)
	}
	if !equalInts(got, occupied) {
		t.Fatalf("sparse RR visited %v, want %v", got, occupied)
	}
	// Wrap-around: refill two buckets with rrNext past both.
	for _, bi := range []int{100, 200} {
		s.pushItem(bi, item{wo: xmatch.WorkloadObject{QueryID: 2}, ageWeight: 1})
	}
	s.queries[2] = &queryState{remaining: 2, result: Result{QueryID: 2}}
	if bi, _ := s.pick(simclock.Epoch); bi != 100 {
		t.Fatalf("wrap-around pick = %d, want 100", bi)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// syntheticScheduler builds a scheduler over an n-bucket partition with
// no real workload attached — queues are driven through pushItem. Used
// by index tests and the pick benchmarks.
func syntheticScheduler(tb testing.TB, n int, policy PolicyKind, alpha float64) *scheduler {
	tb.Helper()
	part := syntheticPartition(tb, n)
	cfg, _ := NewVirtual(part, alpha, false)
	cfg.Policy = policy
	s, err := newScheduler(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

var synthParts sync.Map // numBuckets -> *bucket.Partition

// syntheticPartition returns (and caches) a one-object-per-bucket
// partition with n buckets, the cheapest way to exercise large B.
func syntheticPartition(tb testing.TB, n int) *bucket.Partition {
	tb.Helper()
	if p, ok := synthParts.Load(n); ok {
		return p.(*bucket.Partition)
	}
	cat, err := catalog.New(catalog.Config{
		Name: "synth", N: n, Seed: 9, GenLevel: 4, CacheTrixels: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	part, err := bucket.NewPartition(cat, 1, 0)
	if err != nil {
		tb.Fatal(err)
	}
	synthParts.Store(n, part)
	return part
}

// TestPickFallbackBudget pins the walk-budget fallback: in the
// anti-correlated regime (every high-Ut queue young, every old queue
// cold) the α-mix cannot bound the winner early, the walk must abandon
// itself within budget, and the fallback must agree with the scan.
func TestPickFallbackBudget(t *testing.T) {
	s := syntheticScheduler(t, 10_000, PolicyLifeRaft, 0.5)
	s.obs = NewEngineMetrics(metric.NewRegistry()).Shard(0)
	base := simclock.Epoch
	for bi := 0; bi < 10_000; bi++ {
		n, at := 1, base // old and cold
		if bi%2 == 0 {
			n, at = 7, base.Add(time.Hour) // hot and young
		}
		for k := 0; k < n; k++ {
			s.pushItem(bi, item{wo: xmatch.WorkloadObject{QueryID: 1}, arrived: at, ageWeight: 1})
		}
	}
	now := base.Add(2 * time.Hour)
	got, ok := s.pickLifeRaftIndexed(now)
	if !ok {
		t.Fatal("no pick")
	}
	if s.pickFallbacks == 0 {
		t.Error("anti-correlated state should exhaust the walk budget")
	}
	if got := s.obs.fallbacks.Value(); got != float64(s.pickFallbacks) {
		t.Errorf("liferaft_sched_pick_fallbacks_total = %v, scheduler counted %d", got, s.pickFallbacks)
	}
	want, _ := s.pickLifeRaftScan(now)
	if got != want {
		t.Fatalf("fallback pick %d != scan pick %d", got, want)
	}
	// The realistic fixture trace, by contrast, never falls back — that
	// property is implicitly covered by BenchmarkPick's fresh state; here
	// just confirm a correlated state converges without fallback.
	s2 := syntheticScheduler(t, 10_000, PolicyLifeRaft, 0.5)
	for bi := 0; bi < 10_000; bi++ {
		n := 1 + bi%7
		at := base.Add(time.Duration(bi) * time.Millisecond)
		for k := 0; k < n; k++ {
			s2.pushItem(bi, item{wo: xmatch.WorkloadObject{QueryID: 1}, arrived: at, ageWeight: 1})
		}
	}
	if _, ok := s2.pickLifeRaftIndexed(now); !ok {
		t.Fatal("no pick")
	}
	if s2.pickFallbacks != 0 {
		t.Errorf("correlated state fell back %d times; walk should converge", s2.pickFallbacks)
	}
}

// TestQoSIndexSkipsPickHeaps: with age depreciation the pick always
// scans, so the index must not pay for orderings it never reads.
func TestQoSIndexSkipsPickHeaps(t *testing.T) {
	part := syntheticPartition(t, 100)
	cfg, _ := NewVirtual(part, 0.5, false)
	cfg.AgeDepreciationGamma = 2
	s, err := newScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.idx.ut != nil || s.idx.age != nil {
		t.Error("QoS scheduler maintains pick heaps it never consults")
	}
	if s.idx.needsUt() {
		t.Error("QoS scheduler without a spill cap should not cache Ut")
	}
	cfg2, _ := NewVirtual(part, 0.5, false)
	cfg2.AgeDepreciationGamma = 2
	cfg2.WorkloadMemoryCap = 10
	s2, err := newScheduler(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if s2.idx.spill == nil || !s2.idx.needsUt() {
		t.Error("spill cap still needs the Ut min side under QoS")
	}
}
