package core

import (
	"context"
	"math"
	"reflect"
	"strconv"
	"testing"
	"time"

	"liferaft/internal/bucket"
	"liferaft/internal/catalog"
	"liferaft/internal/metric"
	"liferaft/internal/simclock"
	"liferaft/internal/xmatch"
)

// TestLiveTickClockChargesModelOnce runs a materializing Live engine on a
// clock that wakes every sleeper on the next millisecond. Answers are the
// brute-force ones, every shard's clock advances by what its disk charged
// to within one tick (at the parent of this change: one tick or more per
// service), and the schedule's counts are those of the same run on the
// exact clock — pacing changes when things happen, not what happens.
// Queries go in one at a time so the counts do not depend on how
// submissions interleave with the service loop.
func TestLiveTickClockChargesModelOnce(t *testing.T) {
	const tick = time.Millisecond
	part, jobs := shardFixture(t)
	jobs = jobs[:16]

	var locals []catalog.Object
	for b := 0; b < part.NumBuckets(); b++ {
		locals = append(locals, part.Materialize(b)...)
	}
	want := make(map[uint64][]xmatch.Pair, len(jobs))
	for _, j := range jobs {
		p := xmatch.BruteForce(locals, j.Objects, map[uint64]xmatch.Predicate{j.ID: j.Pred})
		xmatch.SortPairs(p)
		want[j.ID] = p
	}

	run := func(t *testing.T, k int, clk simclock.Clock, em *EngineMetrics) (RunStats, int) {
		t.Helper()
		cfg := NewOn(part, 0.25, true, clk)
		cfg.Shards = k
		cfg.Metrics = em
		l, err := NewLive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		assignments := 0
		for _, j := range jobs {
			ch, err := l.SubmitCtx(context.Background(), j)
			if err != nil {
				t.Fatal(err)
			}
			r := <-ch
			assignments += r.Assignments
			xmatch.SortPairs(r.Pairs)
			if len(r.Pairs) != len(want[j.ID]) || len(r.Pairs) > 0 && !reflect.DeepEqual(r.Pairs, want[j.ID]) {
				t.Fatalf("q%d: %d pairs, brute force %d", j.ID, len(r.Pairs), len(want[j.ID]))
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		st, ok := l.Stats()
		if !ok {
			t.Fatal("no stats after Close")
		}
		return st, assignments
	}

	forEachK(t, func(t *testing.T, k int) {
		exact, exactAssignments := run(t, k, simclock.NewVirtual(), nil)
		em := NewEngineMetrics(metric.NewRegistry())
		coarse, assignments := run(t, k, simclock.NewVirtualTick(tick), em)
		t.Logf("%d assignments in %d services (scan %d, index %d), clock +%v", assignments,
			coarse.BucketsServed, coarse.ScanServices, coarse.IndexServices, coarse.Makespan)
		if coarse.ScanServices == 0 || coarse.IndexServices == 0 {
			t.Errorf("%d scan and %d index services: the run must exercise both", coarse.ScanServices, coarse.IndexServices)
		}
		if assignments != exactAssignments || coarse.Disk.Matches != int64(assignments) {
			t.Errorf("assignments %d (exact clock %d), matches charged %d", assignments, exactAssignments, coarse.Disk.Matches)
		}
		for s, sh := range coarse.PerShard {
			got, ref := sh.Stats, exact.PerShard[s].Stats
			if got.BucketsServed != ref.BucketsServed || got.ScanServices != ref.ScanServices ||
				got.IndexServices != ref.IndexServices || got.Disk != ref.Disk {
				t.Errorf("shard %d: served %d (scan %d, index %d), disk %v; on the exact clock %d (%d, %d), %v", s,
					got.BucketsServed, got.ScanServices, got.IndexServices, got.Disk,
					ref.BucketsServed, ref.ScanServices, ref.IndexServices, ref.Disk)
			}
			if ref.Makespan != ref.Disk.BusyTime {
				t.Errorf("shard %d: exact clock advanced %v, charged %v", s, ref.Makespan, ref.Disk.BusyTime)
			}
			// BusyTime is the reads plus Tm × this shard's assignments.
			if over := got.Makespan - got.Disk.BusyTime; over < 0 || over >= tick {
				t.Errorf("shard %d: clock advanced %v over %d services, charged %v (Tm × %d + reads): off by %v, want [0, %v)",
					s, got.Makespan, got.BucketsServed, got.Disk.BusyTime, got.Disk.Matches, over, tick)
			}
			// The exported account is the same one: on the simulated store
			// everything busy was charged, and nothing here is computed on
			// the clock, so nothing is credited.
			shard := strconv.Itoa(s)
			charged, slept, credited := em.model.With(shard, "charged").Value(), em.model.With(shard, "slept").Value(), em.model.With(shard, "credited").Value()
			if math.Abs(charged-got.Disk.BusyTime.Seconds()) > 1e-9 || math.Abs(slept-got.Makespan.Seconds()) > 1e-9 || credited != 0 {
				t.Errorf("shard %d: liferaft_disk_model_seconds_total charged %v slept %v credited %v, want %v, %v, 0",
					s, charged, slept, credited, got.Disk.BusyTime.Seconds(), got.Makespan.Seconds())
			}
		}
	})
}

// TestTickClockFourQueriesDriveBothArms: four queries at a time, each over
// 16 consecutive buckets, all four regions in the same half of the curve,
// on the clock that wakes late. Dealt round-robin, every query has half
// its buckets on each of two shards, so both arms are charged the same
// work and every query responds sooner than it does at K = 1. (With a
// contiguous range per shard the whole load sits on shard 0: the other
// arm is charged nothing and K = 2 responds exactly like K = 1.)
func TestTickClockFourQueriesDriveBothArms(t *testing.T) {
	const clients, laps = 4, 4
	fix, _ := shardFixture(t)
	part, err := bucket.NewPartition(fix.Catalog(), 100, 0) // 128 buckets
	if err != nil {
		t.Fatal(err)
	}
	var jobs []Job
	var offs []time.Duration
	for lap := 0; lap < laps; lap++ {
		for c := 0; c < clients; c++ {
			jobs = append(jobs, spanQuery(part, uint64(len(jobs)+1), 16*c, 16, 20))
			// Each lap arrives together, after the one before has drained.
			offs = append(offs, time.Duration(lap)*10*time.Second)
		}
	}
	run := func(k int) (map[uint64]Result, RunStats) {
		cfg := NewOn(part, 0.25, true, simclock.NewVirtualTick(time.Millisecond))
		cfg.Shards = k
		cfg.CacheBuckets = 1 // every service pays its read: equal work per bucket
		res, stats, err := Run(cfg, jobs, offs)
		if err != nil {
			t.Fatal(err)
		}
		return byQueryID(res), stats
	}

	solo, _ := run(1)
	both, stats := run(2)
	// Disk.BusyTime is what the arm's ledger was charged.
	a, b := stats.PerShard[0].Stats.Disk.BusyTime, stats.PerShard[1].Stats.Disk.BusyTime
	t.Logf("arms charged %v and %v; q1 responds in %v at K=2, %v at K=1", a, b, both[1].ResponseTime(), solo[1].ResponseTime())
	if math.Abs(float64(a-b)) > 0.1*float64(max(a, b)) {
		t.Errorf("arms charged %v and %v: more than 10%% apart", a, b)
	}
	for _, j := range jobs {
		if r1, r2 := solo[j.ID].ResponseTime(), both[j.ID].ResponseTime(); r2 >= r1 {
			t.Errorf("q%d: K=2 response %v, K=1 %v", j.ID, r2, r1)
		}
	}
}

// stepClock is an exact clock on which reading the time takes `step`, so
// time passes while the engine computes, as it does on a real clock.
type stepClock struct {
	*simclock.Virtual
	step time.Duration
}

func (c stepClock) Now() time.Time {
	c.Advance(c.step)
	return c.Virtual.Now()
}

// TestServiceCreditsJoinTimeAgainstItsCharge: Tm models the join, so the
// time a materializing service spent joining comes off that service's
// match charge; a cost-only engine joins nothing and is credited nothing.
func TestServiceCreditsJoinTimeAgainstItsCharge(t *testing.T) {
	const step = 10 * time.Microsecond // well under one object's Tm
	part, jobs := fixture(t)
	for _, materialize := range []bool{true, false} {
		s, err := newScheduler(NewOn(part, 0.25, materialize, stepClock{simclock.NewVirtual(), step}))
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs[:8] {
			s.admit(j, s.cfg.Clock.Now())
		}
		matches := 0
		for s.pendingWork() {
			done, _ := s.step(s.cfg.Clock.Now())
			for _, r := range done {
				matches += r.Matches
			}
		}
		l := s.cfg.Disk.Ledger()
		want := time.Duration(0)
		if materialize {
			// One reading before the join and one after it (each service
			// here is one part).
			want = time.Duration(s.stats.BucketsServed) * step
			if matches == 0 {
				t.Fatal("the services produced no pairs")
			}
		}
		if l.Credited != want || l.Slept+l.Credited-l.Charged != l.Credit {
			t.Errorf("materialize=%v: %d services, ledger %+v, want %v credited", materialize, s.stats.BucketsServed, l, want)
		}
	}
}
