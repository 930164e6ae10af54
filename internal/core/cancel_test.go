package core

import (
	"context"
	"testing"
	"time"

	"liferaft/internal/metric"
	"liferaft/internal/simclock"
	"liferaft/internal/xmatch"
)

// bigJob returns a fixture job spanning at least minAssignments bucket
// assignments, so a real-clock engine needs many bucket services (tens of
// milliseconds each) to complete it — long enough that a cancel issued
// right after submission deterministically lands first.
func bigJob(t *testing.T, minObjects int) (job Job, rest []Job) {
	t.Helper()
	_, jobs := fixture(t)
	for i, j := range jobs {
		if len(j.Objects) >= minObjects {
			return j, append(append([]Job{}, jobs[:i]...), jobs[i+1:]...)
		}
	}
	t.Fatalf("no fixture job with >= %d objects", minObjects)
	return Job{}, nil
}

// TestSchedulerCancelDropsQueuedObjects drives the scheduler directly:
// cancelling one of two admitted queries must remove exactly its workload
// objects from the queues and leave the other query's intact.
func TestSchedulerCancelDropsQueuedObjects(t *testing.T) {
	part, jobs := fixture(t)
	cfg, _ := NewVirtual(part, 0.5, false)
	s, err := newScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := cfg.clock().Now()
	a, b := jobs[0], jobs[1]
	if r := s.admit(a, now); r != nil {
		t.Fatal("job a completed on admit; fixture job should have work")
	}
	if r := s.admit(b, now); r != nil {
		t.Fatal("job b completed on admit; fixture job should have work")
	}
	queued := func() (total int, forQuery map[uint64]int) {
		forQuery = make(map[uint64]int)
		for _, q := range s.queues {
			for _, it := range q.items {
				total++
				forQuery[it.wo.QueryID]++
			}
		}
		return
	}
	_, before := queued()
	if before[a.ID] == 0 || before[b.ID] == 0 {
		t.Fatalf("expected queued work for both queries, got %v", before)
	}
	memBefore := s.memObjects

	r := s.cancel(a.ID, now.Add(time.Second))
	if r == nil || !r.Cancelled || r.QueryID != a.ID {
		t.Fatalf("cancel result = %+v", r)
	}
	total, after := queued()
	if after[a.ID] != 0 {
		t.Errorf("%d workload objects of cancelled query %d still queued", after[a.ID], a.ID)
	}
	if after[b.ID] != before[b.ID] {
		t.Errorf("survivor query %d: %d objects queued, want %d", b.ID, after[b.ID], before[b.ID])
	}
	if want := memBefore - before[a.ID]; s.memObjects != want {
		t.Errorf("memObjects = %d, want %d", s.memObjects, want)
	}
	if total != after[b.ID] {
		t.Errorf("queues hold %d objects, want only survivor's %d", total, after[b.ID])
	}
	if s.stats.Cancelled != 1 || s.stats.CancelledObjects != int64(before[a.ID]) {
		t.Errorf("stats cancelled=%d objects=%d, want 1/%d",
			s.stats.Cancelled, s.stats.CancelledObjects, before[a.ID])
	}
	// Cancelling again (or an unknown query) is a no-op.
	if r := s.cancel(a.ID, now); r != nil {
		t.Error("double cancel should return nil")
	}
	if r := s.cancel(999999, now); r != nil {
		t.Error("cancel of unknown query should return nil")
	}
	// The frontier rebuild must keep the scheduler consistent: draining
	// the survivor completes it.
	for s.pendingWork() {
		if _, ok := s.step(cfg.clock().Now()); !ok {
			t.Fatal("pending work but step found none")
		}
	}
	if len(s.queries) != 0 {
		t.Errorf("%d queries still tracked after drain", len(s.queries))
	}
}

// TestLiveCancelDropsWork submits a long-running job on the real clock and
// cancels it: the cancel reaches every shard, the delivered (merged) result
// must be marked Cancelled, and the engine must report the query cancelled
// once however many shards dropped workload objects for it.
func TestLiveCancelDropsWork(t *testing.T) {
	part, _ := fixture(t)
	job, _ := bigJob(t, 60)
	forEachK(t, func(t *testing.T, k int) {
		cfg := NewOn(part, 0.5, false, simclock.Real{})
		cfg.Shards = k
		l, err := NewLive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := l.SubmitCtx(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Cancel(job.ID); err != nil {
			t.Fatal(err)
		}
		r, ok := <-ch
		if !ok {
			t.Fatal("channel closed without a result")
		}
		if !r.Cancelled {
			t.Fatalf("result not cancelled: %+v", r)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		stats, ok := l.Stats()
		if !ok {
			t.Fatal("stats unavailable after Close")
		}
		if stats.Cancelled != 1 || stats.CancelledObjects == 0 {
			t.Errorf("stats cancelled=%d objects=%d, want 1 and > 0",
				stats.Cancelled, stats.CancelledObjects)
		}
		if stats.Completed != 0 {
			t.Errorf("completed = %d, want 0 (only query was cancelled)", stats.Completed)
		}
		if err := l.Cancel(1); err != ErrClosed {
			t.Errorf("Cancel after Close = %v, want ErrClosed", err)
		}
	})
}

// TestLiveSubmitCtx covers the context path: an expired context cancels
// the query, a background context behaves exactly like Submit. Each is
// one whole query in the exported counts, however many shards it had
// parts on.
func TestLiveSubmitCtx(t *testing.T) {
	part, _ := fixture(t)
	job, rest := bigJob(t, 60)
	forEachK(t, func(t *testing.T, k int) {
		cfg := NewOn(part, 0.5, false, simclock.Real{})
		cfg.Shards = k
		em := NewEngineMetrics(metric.NewRegistry())
		cfg.Metrics = em
		l, err := NewLive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()

		ctx, cancel := context.WithCancel(context.Background())
		cancel() // expired before submission
		ch, err := l.SubmitCtx(ctx, job)
		if err != nil {
			t.Fatal(err)
		}
		r, ok := <-ch
		if !ok || !r.Cancelled {
			t.Fatalf("result = %+v ok=%v, want a cancelled result", r, ok)
		}

		// A background context passes through untouched.
		ch, err = l.SubmitCtx(context.Background(), rest[0])
		if err != nil {
			t.Fatal(err)
		}
		r, ok = <-ch
		if !ok || r.Cancelled || r.QueryID != rest[0].ID {
			t.Fatalf("background-ctx result = %+v ok=%v", r, ok)
		}

		completed, cancelled := em.queries.With("completed").Value(), em.queries.With("cancelled").Value()
		if completed != 1 || cancelled != 1 {
			t.Errorf("liferaft_engine_queries_total: completed %v cancelled %v, want 1 and 1", completed, cancelled)
		}
		if n, width := em.fanout.Count(), em.fanout.Sum(); n != 2 || width < 2 || width > float64(2*k) {
			t.Errorf("liferaft_engine_fanout_shards: %d queries over %v shards, want 2 over 2..%d", n, width, 2*k)
		}
	})
}

// TestCancelTouchesOnlyOwningQueues: cancelling a query must examine only
// the queues on its admission-time membership list, not sweep every
// queue. A 1-object query cancelled among thousands of unrelated queues
// must leave the scheduler's cancel-visit counter at the query's own
// bucket count.
func TestCancelTouchesOnlyOwningQueues(t *testing.T) {
	s := syntheticScheduler(t, 10_000, PolicyLifeRaft, 0.5)
	now := simclock.Epoch
	// 4,000 unrelated queues from a backdrop query.
	backdrop := &queryState{result: Result{QueryID: 1, Arrived: now}, arrived: now}
	for bi := 0; bi < 4000; bi++ {
		s.pushItem(bi, item{wo: xmatch.WorkloadObject{QueryID: 1}, arrived: now, ageWeight: 1})
		backdrop.buckets = append(backdrop.buckets, bi)
		backdrop.remaining++
	}
	s.queries[1] = backdrop
	// The victim: a tiny query owning 3 buckets, two shared with the
	// backdrop's range and one far away.
	victim := &queryState{result: Result{QueryID: 2, Arrived: now}, arrived: now}
	for _, bi := range []int{10, 2000, 9000} {
		s.pushItem(bi, item{wo: xmatch.WorkloadObject{QueryID: 2}, arrived: now, ageWeight: 1})
		victim.buckets = append(victim.buckets, bi)
		victim.remaining++
	}
	s.queries[2] = victim

	s.cancelVisited = 0
	r := s.cancel(2, now.Add(time.Second))
	if r == nil || !r.Cancelled {
		t.Fatalf("cancel result = %+v", r)
	}
	if s.cancelVisited != 3 {
		t.Errorf("cancel examined %d queues, want exactly the 3 owning ones", s.cancelVisited)
	}
	if s.stats.CancelledObjects != 3 {
		t.Errorf("cancelled objects = %d, want 3", s.stats.CancelledObjects)
	}
	// Unrelated queues must be untouched; shared buckets keep the
	// backdrop's item.
	for _, bi := range []int{10, 2000} {
		q := s.queues[bi]
		if q == nil || len(q.items) != 1 || q.items[0].wo.QueryID != 1 {
			t.Errorf("bucket %d: backdrop item disturbed: %+v", bi, q)
		}
	}
	if s.queues[9000] != nil {
		t.Error("bucket 9000 should be gone (victim was its only tenant)")
	}
	if s.pendingItems != 4000 {
		t.Errorf("pendingItems = %d, want 4000", s.pendingItems)
	}
}

// TestCancelVisitsScaleWithQueryNotQueues: driven through the public
// admit path — cancel cost is bounded by the query's own assignments
// even when the scheduler holds far more work from other queries.
func TestCancelVisitsScaleWithQueryNotQueues(t *testing.T) {
	part, jobs := fixture(t)
	cfg, _ := NewVirtual(part, 0.5, false)
	s, err := newScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := cfg.clock().Now()
	// Load every fixture job but the last; cancel only the last.
	for _, j := range jobs[:len(jobs)-1] {
		s.admit(j, now)
	}
	last := jobs[len(jobs)-1]
	if r := s.admit(last, now); r != nil {
		t.Skip("last fixture job has no work; pick another")
	}
	assignments := s.queries[last.ID].result.Assignments
	s.cancelVisited = 0
	if r := s.cancel(last.ID, now.Add(time.Second)); r == nil {
		t.Fatal("cancel returned nil")
	}
	if s.cancelVisited > assignments {
		t.Errorf("cancel visited %d queues for a query with %d assignments",
			s.cancelVisited, assignments)
	}
	if len(s.queues) == 0 {
		t.Error("unrelated work vanished")
	}
}
