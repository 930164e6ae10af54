package core

import (
	"testing"
	"time"

	"liferaft/internal/bucket"
	"liferaft/internal/shard"
	"liferaft/internal/simclock"
	"liferaft/internal/workload"
)

// TestStarvationBoundAtAlphaOne asserts the starvation half of LifeRaft's
// claim where it is exact. At α = 1 and γ = 0 the pick (Eq. 2) weighs age
// alone, every age weight is 1, and so the bucket holding the oldest
// queued work unit wins. Take a unit admitted on bucket b that arrived at
// t, and let S(t) be the shard's other buckets that hold a unit which
// arrived at or before t, once every admission due at t has landed. Any
// bucket picked before b holds a unit at least as old as b's oldest, so it
// is in S(t); after its service everything it holds arrived later than t,
// so it cannot win again before b. The unit is therefore serviced before
// more than |S(t)| other services start.
//
// The test replays shardFixture's jobs with Poisson arrivals 2 ms apart
// on average, over 20 seeds at K = 1, 2 and 4: one scheduler per shard,
// driven as replayGolden drives one, admitting only the buckets shard.Map
// deals that shard. A workload memory cap of 60 spills queues and every
// 5th job is cancelled two services after it arrived, and every shard-run
// must do both. Neither moves the bound: a spilled queue keeps its age,
// and a cancel only removes units. The same traces at α = 0.25 must break
// the bound at least once, or the check could not fail.
//
// QoS weights void the bound. With γ > 0 a unit's age is depreciated by
// 1/(1+γ·ln(1+objects)), so a later unit of a small query can outrank an
// earlier unit of a large one: a bucket serviced once can win again before
// b, on units that arrived after t.
func TestStarvationBoundAtAlphaOne(t *testing.T) {
	part, jobs := shardFixture(t)
	const seeds = 20
	runs, loose := 0, 0
	for _, k := range []int{1, 2, 4} {
		m, err := shard.NewMap(part, k)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= seeds; seed++ {
			offsets := workload.Poisson{RatePerSec: 500}.Offsets(len(jobs), seed)
			for sh := 0; sh < k; sh++ {
				owns := func(b int) bool { return m.Owner(b) == sh }
				if v := replayAgeBound(t, part, jobs, offsets, owns, 1); v > 0 {
					t.Errorf("K=%d seed %d shard %d: %d units waited past the α = 1 bound", k, seed, sh, v)
				}
				loose += replayAgeBound(t, part, jobs, offsets, owns, 0.25)
				runs++
			}
		}
	}
	if loose == 0 {
		t.Errorf("no unit waited past the bound at α = 0.25 over %d shard-runs: the check cannot fail", runs)
	}
	t.Logf("%d shard-runs: 0 violations at α = 1, %d at α = 0.25", runs, loose)
}

// replayAgeBound replays jobs on one shard's scheduler at the given α and
// returns how many (query, bucket) admissions waited for more services
// than the α = 1 bound allows.
func replayAgeBound(t *testing.T, part *bucket.Partition, jobs []Job, offsets []time.Duration,
	owns func(int) bool, alpha float64) (violations int) {
	t.Helper()
	cfg, clk := NewVirtual(part, alpha, false)
	cfg.WorkloadMemoryCap = 60
	cfg.ownsBucket = owns
	s, err := newScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := clk.Now()
	var events simclock.EventQueue[int]
	for i := range jobs {
		events.Push(start.Add(offsets[i]), i)
	}

	// A wait is one query's units on one bucket: admitted when from
	// services had started, allowed limit more before the bucket's.
	type wait struct {
		qid         uint64
		from, limit int
	}
	waits := make(map[int][]wait)
	type cancelAt struct {
		step int
		qid  uint64
	}
	var cancels []cancelAt
	steps := 0
	for {
		now := clk.Now()
		batch := events.PopUntil(now)
		for _, ev := range batch {
			j := jobs[ev.Value]
			if s.admit(j, ev.At) == nil && ev.Value%5 == 2 {
				cancels = append(cancels, cancelAt{steps + 2, j.ID})
			}
		}
		// The limits are taken once the whole batch has landed.
		for _, ev := range batch {
			qs := s.queries[jobs[ev.Value].ID]
			if qs == nil {
				continue // no work on this shard
			}
			seen := make(map[int]bool)
			for _, b := range qs.buckets {
				if seen[b] {
					continue
				}
				seen[b] = true
				others := 0
				for _, q := range s.active {
					if q.idx != b && holdsArrivedBy(q, ev.At) {
						others++
					}
				}
				waits[b] = append(waits[b], wait{qs.job.ID, steps, others})
			}
		}
		for len(cancels) > 0 && cancels[0].step <= steps {
			qid := cancels[0].qid
			cancels = cancels[1:]
			if s.cancel(qid, now) == nil {
				continue // already complete
			}
			for b, ws := range waits {
				kept := ws[:0]
				for _, w := range ws {
					if w.qid != qid {
						kept = append(kept, w)
					}
				}
				waits[b] = kept
			}
		}
		if !s.pendingWork() {
			at, ok := events.PeekTime()
			if !ok {
				break
			}
			clk.Sleep(at.Sub(now))
			continue
		}
		b, ok := s.pick(now)
		if !ok {
			t.Fatalf("step %d: pending work but no pick", steps)
		}
		for _, w := range waits[b] {
			if steps-w.from > w.limit {
				violations++
			}
		}
		delete(waits, b)
		s.serviceBucket(b, now)
		steps++
	}
	if s.stats.SpilledObjects == 0 || s.stats.Cancelled == 0 {
		t.Errorf("α = %v: run spilled %d objects and cancelled %d queries; both must happen",
			alpha, s.stats.SpilledObjects, s.stats.Cancelled)
	}
	return violations
}

// holdsArrivedBy reports whether q holds a unit that arrived at or before t.
func holdsArrivedBy(q *bqueue, t time.Time) bool {
	for _, it := range q.items {
		if !it.arrived.After(t) {
			return true
		}
	}
	return false
}
