package core

import (
	"math"
	"slices"
	"testing"
	"time"

	"liferaft/internal/simclock"
	"liferaft/internal/xmatch"
)

// Unit tests for workload-manager internals: the age dominance frontier,
// the Eq. 1 metric, and policy selection mechanics.

func TestAgeFrontierDominance(t *testing.T) {
	q := &bqueue{idx: 0}
	base := simclock.Epoch
	// Uniform weights: only the first (oldest) point survives.
	for i := 0; i < 10; i++ {
		q.push(item{arrived: base.Add(time.Duration(i) * time.Second), ageWeight: 1})
	}
	if len(q.ageFrontier) != 1 {
		t.Fatalf("uniform-weight frontier has %d points, want 1", len(q.ageFrontier))
	}
	if !q.ageFrontier[0].arrived.Equal(base) {
		t.Fatal("frontier lost the oldest item")
	}
	// A later item with a HIGHER weight must join the frontier: it can
	// overtake the older, lower-weight point as time passes.
	q.push(item{arrived: base.Add(20 * time.Second), ageWeight: 5})
	if len(q.ageFrontier) != 2 {
		t.Fatalf("frontier has %d points after high-weight push, want 2", len(q.ageFrontier))
	}
	// A later item with a lower weight is dominated.
	q.push(item{arrived: base.Add(30 * time.Second), ageWeight: 2})
	if len(q.ageFrontier) != 2 {
		t.Fatalf("dominated push grew the frontier to %d", len(q.ageFrontier))
	}
}

func TestAgeFrontierMatchesBruteForce(t *testing.T) {
	part, jobs := fixture(t)
	cfg, _ := NewVirtual(part, 0.5, false)
	cfg.AgeDepreciationGamma = 3
	s, err := newScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := simclock.Epoch
	for i, j := range jobs[:20] {
		s.admit(j, base.Add(time.Duration(i)*time.Second))
	}
	now := base.Add(time.Hour)
	for _, q := range s.queues {
		got := s.age(q, now)
		want := 0.0
		for _, it := range q.items {
			if a := now.Sub(it.arrived).Seconds() * it.ageWeight; a > want {
				want = a
			}
		}
		if got != want {
			t.Fatalf("bucket %d: frontier age %v != brute force %v", q.idx, got, want)
		}
	}
}

func TestAgeWeightMonotone(t *testing.T) {
	part, _ := fixture(t)
	cfg, _ := NewVirtual(part, 0.5, false)
	cfg.AgeDepreciationGamma = 2
	s, err := newScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Bigger queries age more slowly; weight 1 for zero objects.
	if s.ageWeight(0) != 1 {
		t.Errorf("weight(0) = %v", s.ageWeight(0))
	}
	prev := s.ageWeight(1)
	for _, n := range []int{10, 100, 1000} {
		w := s.ageWeight(n)
		if w >= prev {
			t.Errorf("weight(%d) = %v not < weight of smaller query %v", n, w, prev)
		}
		prev = w
	}
	// γ=0 disables depreciation entirely.
	cfg2, _ := NewVirtual(part, 0.5, false)
	s2, _ := newScheduler(cfg2)
	if s2.ageWeight(1_000_000) != 1 {
		t.Error("γ=0 should not depreciate")
	}
}

func TestWorkloadThroughputEquation(t *testing.T) {
	part, _ := fixture(t)
	cfg, _ := NewVirtual(part, 0, false)
	s, err := newScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := &bqueue{idx: 0}
	if s.workloadThroughput(q) != 0 {
		t.Error("empty queue should have zero throughput")
	}
	for i := 0; i < 100; i++ {
		q.push(item{ageWeight: 1})
	}
	// Out of core: Ut = n / (Tb + Tm*n).
	want := 100 / (s.tbSec + s.tmSec*100)
	if got := s.workloadThroughput(q); got != want {
		t.Errorf("Ut = %v, want %v", got, want)
	}
	// Cached: Ut = n / (Tm*n) = 1/Tm regardless of n.
	s.cache.Put(0, nil, 1)
	wantCached := 100 / (s.tmSec * 100)
	if got := s.workloadThroughput(q); math.Abs(got-wantCached) > 1e-9*wantCached {
		t.Errorf("cached Ut = %v, want %v", got, wantCached)
	}
}

func TestLongerQueueWinsWhenGreedy(t *testing.T) {
	part, _ := fixture(t)
	cfg, _ := NewVirtual(part, 0, false)
	s, err := newScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two synthetic queues: bucket 3 short, bucket 7 long.
	mk := func(s *scheduler, idx, n int, arrived time.Time) {
		for i := 0; i < n; i++ {
			s.pushItem(idx, item{arrived: arrived, ageWeight: 1})
		}
	}
	mk(s, 3, 5, simclock.Epoch)
	mk(s, 7, 500, simclock.Epoch)
	idx, ok := s.pick(simclock.Epoch.Add(time.Minute))
	if !ok || idx != 7 {
		t.Errorf("greedy pick = %d, want the contentious bucket 7", idx)
	}
	// With α=1, the older queue wins even if shorter.
	cfg2, _ := NewVirtual(part, 1, false)
	s2, err := newScheduler(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	mk(s2, 3, 5, simclock.Epoch.Add(-time.Hour))
	mk(s2, 7, 500, simclock.Epoch)
	idx, ok = s2.pick(simclock.Epoch.Add(time.Minute))
	if !ok || idx != 3 {
		t.Errorf("aged pick = %d, want the older bucket 3", idx)
	}
}

func TestCachedBucketPreferredAtAlphaZero(t *testing.T) {
	part, _ := fixture(t)
	cfg, _ := NewVirtual(part, 0, false)
	s, err := newScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(idx, n int) {
		for i := 0; i < n; i++ {
			s.pushItem(idx, item{arrived: simclock.Epoch, ageWeight: 1})
		}
	}
	mk(1, 50)  // cached below
	mk(2, 400) // longer but out of core
	s.cache.Put(1, nil, 1)
	// Eq. 1: a cached bucket's Ut = 1/Tm dwarfs any out-of-core queue
	// (Tb dominates), so the scheduler "favors buckets in memory" (§3.2).
	idx, ok := s.pick(simclock.Epoch.Add(time.Second))
	if !ok || idx != 1 {
		t.Errorf("pick = %d, want cached bucket 1", idx)
	}
}

func TestLeastSharedPicksSmallest(t *testing.T) {
	part, _ := fixture(t)
	cfg, _ := NewVirtual(part, 0, false)
	cfg.Policy = PolicyLeastShared
	s, err := newScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for idx, n := range map[int]int{2: 30, 5: 3, 9: 300, 7: 3} {
		for i := 0; i < n; i++ {
			s.pushItem(idx, item{ageWeight: 1})
		}
	}
	// Buckets 5 and 7 tie on length; the lower index wins.
	idx, ok := s.pick(simclock.Epoch)
	if !ok || idx != 5 {
		t.Errorf("LSF pick = %d, want 5", idx)
	}
	empty, err := newScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := empty.pick(simclock.Epoch); ok {
		t.Error("empty scheduler should report no work")
	}
}

func TestSpillEverythingSpilledStops(t *testing.T) {
	part, jobs := fixture(t)
	cfg, _ := NewVirtual(part, 0.5, false)
	cfg.WorkloadMemoryCap = 1 // pathologically tight
	s, err := newScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.admit(jobs[0], simclock.Epoch)
	s.admit(jobs[1], simclock.Epoch) // second admit spills over already-spilled queues
	// maybeSpill must terminate even when every queue is spilled.
	if s.stats.SpilledObjects == 0 {
		t.Error("expected spills under a cap of 1")
	}
}

func TestStepOnEmptySchedulerReportsNoWork(t *testing.T) {
	part, _ := fixture(t)
	cfg, _ := NewVirtual(part, 0, false)
	s, err := newScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.step(simclock.Epoch); ok {
		t.Error("step with no queues should report no work")
	}
	if s.pendingWork() {
		t.Error("pendingWork on empty scheduler")
	}
}

func TestRoundRobinCyclesInOrder(t *testing.T) {
	part, _ := fixture(t)
	cfg, _ := NewVirtual(part, 0, false)
	cfg.Policy = PolicyRoundRobin
	s, err := newScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{10, 3, 7} {
		s.pushItem(idx, item{wo: xmatch.WorkloadObject{QueryID: 999}, ageWeight: 1})
	}
	s.queries[999] = &queryState{remaining: 3, result: Result{QueryID: 999}}
	// RR visits in ascending index order regardless of insertion order.
	var order []int
	for i := 0; i < 3; i++ {
		idx, ok := s.pick(simclock.Epoch)
		if !ok {
			t.Fatal("ran out")
		}
		order = append(order, idx)
		s.serviceBucket(idx, simclock.Epoch)
	}
	if order[0] != 3 || order[1] != 7 || order[2] != 10 {
		t.Errorf("RR order = %v, want [3 7 10]", order)
	}
	if s.pendingWork() {
		t.Error("all queues serviced but pendingWork still true")
	}
}

// TestRoundRobinSparse: round-robin on a huge, nearly empty bucket space
// must cycle through exactly the non-empty buckets in index order, and wrap
// to the lowest one once rrNext is past them all. The pick scans the five
// active queues, not the 100 000 bucket indices.
func TestRoundRobinSparse(t *testing.T) {
	s := syntheticScheduler(t, 100_000, PolicyRoundRobin, 0)
	occupied := []int{17, 4093, 4096, 55_001, 99_999}
	for _, bi := range []int{55_001, 17, 99_999, 4096, 4093} { // not in index order
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
	if !slices.Equal(got, occupied) {
		t.Fatalf("sparse RR visited %v, want %v", got, occupied)
	}
	// Wrap-around: refill two buckets with rrNext past both.
	for _, bi := range []int{200, 100} {
		s.pushItem(bi, item{wo: xmatch.WorkloadObject{QueryID: 2}, ageWeight: 1})
	}
	s.queries[2] = &queryState{remaining: 2, result: Result{QueryID: 2}}
	if bi, _ := s.pick(simclock.Epoch); bi != 100 {
		t.Fatalf("wrap-around pick = %d, want 100", bi)
	}
}
