package core

import (
	"context"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"liferaft/internal/bucket"
	"liferaft/internal/catalog"
	"liferaft/internal/geom"
	"liferaft/internal/metric"
	"liferaft/internal/simclock"
	"liferaft/internal/xmatch"
)

// hotBucket is the bucket of the sharded fixture the split-service tests
// aim their queries at: hotJob draws its objects from the middle of it.
const hotBucket = 5

// hotJob is a query of `units` work units, all of them in hotBucket: one
// for each of that many of its objects, searched at 5 arcsec, leaving out
// those in a trixel the bucket shares with a neighbour (adjacent spans
// overlap by it, and admission goes by span).
func hotJob(part *bucket.Partition, id uint64, units int) Job {
	job := Job{ID: id}
	for _, o := range part.Materialize(hotBucket) {
		wo := xmatch.NewWorkloadObject(id, o, geom.ArcsecToRad(5))
		if len(job.Objects) < units && len(part.BucketsForRanges(wo.Ranges())) == 1 {
			job.Objects = append(job.Objects, wo)
		}
	}
	return job
}

// warmJob is a scan-sized query that leaves hotBucket in the cache, so
// the services after it charge nothing but Tm per unit.
func warmJob(part *bucket.Partition, id uint64) Job { return hotJob(part, id, 20) }

// arms builds one scheduler per clock over the whole partition — each with
// a disk, store and cache of its own — and makes sibling workers of them,
// as NewLive does for its shards. No goroutine runs: the tests drive the
// schedulers and the workers' help themselves.
func arms(t testing.TB, part *bucket.Partition, clks ...simclock.Clock) ([]*scheduler, []*shardWorker) {
	t.Helper()
	scheds := make([]*scheduler, len(clks))
	for i, clk := range clks {
		s, err := newScheduler(NewOn(part, 0.25, true, clk))
		if err != nil {
			t.Fatal(err)
		}
		scheds[i] = s
	}
	return scheds, newWorkers(scheds)
}

// serve admits job and steps s until nothing is pending, returning the
// job's result.
func serve(t testing.TB, s *scheduler, job Job) Result {
	t.Helper()
	var res *Result
	if r := s.admit(job, s.cfg.Clock.Now()); r != nil {
		res = r
	}
	for s.pendingWork() {
		done, _ := s.step(s.cfg.Clock.Now())
		for _, r := range done {
			if r.QueryID == job.ID {
				r := r
				res = &r
			}
		}
	}
	if res == nil {
		t.Fatalf("q%d never completed", job.ID)
	}
	return *res
}

// helpUntil runs w's help on every wake-up until stop closes.
func helpUntil(w *shardWorker, s *scheduler, stop <-chan struct{}) {
	for {
		select {
		case <-w.offers:
			w.help(s)
		case <-stop:
			return
		}
	}
}

func charged(s *scheduler) time.Duration { return s.cfg.Disk.Ledger().Charged }

// partsOf is how many parts s's last service was cut into.
func partsOf(s *scheduler) int { return int(s.fj.claims.Load() >> 32) }

// TestSplitServiceEqualsWhole: a scan service cut into parts, with a second
// arm taking whichever of them it gets to first, yields what the same
// service yields whole on one arm — the brute-force pairs, the same match
// and assignment counts, one service — and the two arms together are
// charged Tm for each unit exactly once. The pairs come part by part, so
// their order is the split service's own, but it is the same order whoever
// ran which part: the owner alone produces it too. Queue sizes cover one
// part (under two parts' worth: not split), two, five, and a tail of a
// single unit.
func TestSplitServiceEqualsWhole(t *testing.T) {
	part, _ := shardFixture(t)
	var locals []catalog.Object
	for b := 0; b < part.NumBuckets(); b++ {
		locals = append(locals, part.Materialize(b)...)
	}
	for _, c := range []struct{ units, parts int }{
		{2*servicePartUnits - 1, 1},
		{2 * servicePartUnits, 2},
		{5 * servicePartUnits, 5},
		{2*servicePartUnits + 1, 3},
	} {
		job := hotJob(part, 7, c.units)
		want := xmatch.BruteForce(locals, job.Objects, nil)
		xmatch.SortPairs(want)

		solo, _ := arms(t, part, simclock.NewVirtual())
		serve(t, solo[0], warmJob(part, 1))
		soloBefore, soloServed := charged(solo[0]), solo[0].stats.BucketsServed
		whole := serve(t, solo[0], job)
		if partsOf(solo[0]) != 1 {
			t.Fatalf("%d units: a scheduler with no siblings cut its service into %d parts", c.units, partsOf(solo[0]))
		}

		pair, ws := arms(t, part, simclock.NewVirtual(), simclock.NewVirtual())
		owner, helper := pair[0], pair[1]
		serve(t, owner, warmJob(part, 1))
		before, served := charged(owner)+charged(helper), owner.stats.BucketsServed
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); helpUntil(ws[1], helper, stop) }()
		split := serve(t, owner, job)
		close(stop)
		wg.Wait()

		if got := partsOf(owner); got != c.parts {
			t.Errorf("%d units: %d parts, want %d", c.units, got, c.parts)
		}
		if whole.Assignments != c.units || split.Assignments != c.units {
			t.Fatalf("%d units: %d assignments whole, %d split: the query must sit in one bucket", c.units, whole.Assignments, split.Assignments)
		}
		if split.Matches != whole.Matches || split.Matches != len(want) {
			t.Errorf("%d units: %d matches split, %d whole, brute force %d", c.units, split.Matches, whole.Matches, len(want))
		}
		lone, _ := arms(t, part, simclock.NewVirtual(), simclock.NewVirtual())
		serve(t, lone[0], warmJob(part, 1))
		if alone := serve(t, lone[0], job); !reflect.DeepEqual(split.Pairs, alone.Pairs) || charged(lone[1]) != 0 {
			t.Errorf("%d units: the pairs, or their order, depend on who ran which part (unhelped owner: %d pairs; its sibling charged %v)", c.units, len(alone.Pairs), charged(lone[1]))
		}
		if c.parts == 1 && !reflect.DeepEqual(split.Pairs, whole.Pairs) {
			t.Errorf("%d units: a one-part service's pairs differ from the whole one's", c.units)
		}
		xmatch.SortPairs(split.Pairs)
		if !reflect.DeepEqual(split.Pairs, want) {
			t.Errorf("%d units: %d pairs, brute force %d", c.units, len(split.Pairs), len(want))
		}
		if a, b := owner.stats.BucketsServed-served, solo[0].stats.BucketsServed-soloServed; a != 1 || b != 1 {
			t.Errorf("%d units: %d services split, %d whole, want one each", c.units, a, b)
		}
		if len(owner.queries)+len(owner.queues)+owner.pendingItems != 0 {
			t.Errorf("%d units: %d queries, %d queues, %d items left after the service", c.units, len(owner.queries), len(owner.queues), owner.pendingItems)
		}
		tm := owner.cfg.Disk.Model().Match(c.units)
		if got := charged(owner) + charged(helper) - before; got != tm || charged(solo[0])-soloBefore != tm {
			t.Errorf("%d units: both arms charged %v, the whole service %v, want Tm × %d = %v", c.units, got, charged(solo[0])-soloBefore, c.units, tm)
		}
		if got := owner.cfg.Disk.Stats().Matches + helper.cfg.Disk.Stats().Matches; got != solo[0].cfg.Disk.Stats().Matches {
			t.Errorf("%d units: %d matches charged on both arms, %d whole", c.units, got, solo[0].cfg.Disk.Stats().Matches)
		}
	}
}

// TestIdleArmStealsParts holds the owner inside its first part — on the
// query's predicate, which the join calls — so that what the helper does
// meanwhile is decided: with an empty inbox it takes every other part,
// with a submission arriving during its first it stops after that one.
// The helper's clock is moved up to the service's start before it runs
// anything, its arm is charged for what it ran and the owner's for the
// rest, and the service — the owner's clock, the query's completion — ends
// with the latest part, whoever ran it.
func TestIdleArmStealsParts(t *testing.T) {
	const parts = 5
	part, _ := shardFixture(t)
	tmPart := time.Duration(servicePartUnits) * NewOn(part, 0, false, simclock.NewVirtual()).Disk.Model().MatchCost
	for _, c := range []struct {
		name        string
		interrupted bool // a submission reaches the helper's inbox during its first part
		helped      int
	}{
		{"helper takes the rest", false, parts - 1},
		{"helper stops for its inbox", true, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			ownerClk, helperClk := simclock.NewVirtual(), simclock.NewVirtual()
			pair, ws := arms(t, part, ownerClk, helperClk)
			owner, helper := pair[0], pair[1]
			serve(t, owner, warmJob(part, 1))
			start := ownerClk.Now()
			if !helperClk.Now().Before(start) {
				t.Fatal("the helper's clock must start behind the service")
			}

			// The first call is the owner's (it runs part 0 before anyone
			// can have claimed another); the second is the helper's first.
			var calls atomic.Int32
			entered, release := make(chan struct{}), make(chan struct{})
			job := hotJob(part, 7, parts*servicePartUnits)
			job.Pred = func(_, _ catalog.Object) bool {
				switch calls.Add(1) {
				case 1:
					close(entered)
					<-release
				case 2:
					if c.interrupted {
						ws[1].inbox <- submission{}
					}
				}
				return true
			}
			var res Result
			done := make(chan struct{})
			go func() { defer close(done); res = serve(t, owner, job) }()
			<-entered
			if !ws[1].help(helper) {
				t.Fatal("an idle helper beside a split service in progress ran no part")
			}
			if got := charged(helper); got != time.Duration(c.helped)*tmPart {
				t.Errorf("helper charged %v, want %d parts of %v", got, c.helped, tmPart)
			}
			if got, want := helperClk.Now(), start.Add(time.Duration(c.helped)*tmPart); !got.Equal(want) {
				t.Errorf("helper's clock reads start + %v, want start + %v: joined to the service's start, then its own parts", got.Sub(start), want.Sub(start))
			}
			ownerBefore := charged(owner)
			close(release)
			<-done

			ownParts := parts - c.helped
			if got := charged(owner) - ownerBefore; got != time.Duration(ownParts)*tmPart {
				t.Errorf("owner charged %v, want %d parts of %v", got, ownParts, tmPart)
			}
			latest := start.Add(time.Duration(max(ownParts, c.helped)) * tmPart)
			if !res.Completed.Equal(latest) || !ownerClk.Now().Equal(latest) {
				t.Errorf("query completed at start + %v, owner's clock at start + %v, want the latest part's end, start + %v",
					res.Completed.Sub(start), ownerClk.Now().Sub(start), latest.Sub(start))
			}
			if res.Matches < parts*servicePartUnits {
				t.Errorf("%d matches for %d objects drawn from the bucket itself", res.Matches, parts*servicePartUnits)
			}
		})
	}
}

// TestLateHelperFindsNothing: a wake-up consumed after the service it was
// sent for has ended leads the helper to a record with nothing to claim —
// it runs nothing, is charged nothing, and leaves the record as it found
// it. Then the race detector's half: a helper that never stops looking
// while the owner runs split services back to back only ever touches a
// service it holds a part of, and every unit is still charged once.
func TestLateHelperFindsNothing(t *testing.T) {
	part, _ := shardFixture(t)
	pair, ws := arms(t, part, simclock.NewVirtual(), simclock.NewVirtual())
	owner, helper := pair[0], pair[1]
	serve(t, owner, warmJob(part, 1))

	serve(t, owner, hotJob(part, 2, 3*servicePartUnits))
	if partsOf(owner) != 3 || charged(helper) != 0 {
		t.Fatalf("%d parts, helper charged %v: the owner must have run all three parts alone", partsOf(owner), charged(helper))
	}
	select {
	case <-ws[1].offers:
	default:
		t.Fatal("a split service left no wake-up behind")
	}
	claims, clk := owner.fj.claims.Load(), helper.cfg.Clock.Now()
	if ws[1].help(helper) {
		t.Error("a helper woken after the service ended ran a part")
	}
	if charged(helper) != 0 || !helper.cfg.Clock.Now().Equal(clk) || owner.fj.claims.Load() != claims {
		t.Errorf("late helper: charged %v, clock moved %v, claims %#x -> %#x", charged(helper), helper.cfg.Clock.Now().Sub(clk), claims, owner.fj.claims.Load())
	}

	const services = 40
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				ws[1].help(helper)
				runtime.Gosched()
			}
		}
	}()
	before := charged(owner) + charged(helper)
	units := 0
	for i := 0; i < services; i++ {
		// Alternate sizes, so a stale claim count would name a part the
		// next service does not have.
		n := (2 + i%4) * servicePartUnits
		r := serve(t, owner, hotJob(part, uint64(10+i), n))
		if r.Matches < n || r.Assignments != n {
			t.Fatalf("service %d: %d matches, %d assignments for %d units", i, r.Matches, r.Assignments, n)
		}
		units += n
	}
	close(stop)
	wg.Wait()
	if got, want := charged(owner)+charged(helper)-before, owner.cfg.Disk.Model().Match(units); got != want {
		t.Errorf("%d units over %d services: both arms charged %v, want %v", units, services, got, want)
	}
	if charged(helper) == 0 {
		t.Log("the helper never won a part (the owner outran it every time)")
	}
}

// TestOneHotBucketScalesWithShards, beside TestOneQueryScalesWithShards:
// that one's query has a bucket for every arm; this one's ≈300 units sit
// in a single bucket, one service of one shard. On the wall clock, with
// the bucket cached, it lasts Tm × 300 on one arm at K = 1; at K = 2 the
// other shard's worker, with nothing of its own, takes two of its five
// parts and it finishes in about three fifths of that.
func TestOneHotBucketScalesWithShards(t *testing.T) {
	part, _ := shardFixture(t)
	const units = 300
	var locals []catalog.Object
	for b := 0; b < part.NumBuckets(); b++ {
		locals = append(locals, part.Materialize(b)...)
	}
	want := xmatch.BruteForce(locals, hotJob(part, 2, units).Objects, nil)
	xmatch.SortPairs(want)

	// The best of a few tries: the machine is shared, and one late timer
	// must not decide the ratio.
	best := func(k int) time.Duration {
		cfg := NewOn(part, 0.25, true, simclock.Real{})
		cfg.Shards = k
		l, err := NewLive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		submit := func(j Job) Result {
			ch, err := l.SubmitCtx(context.Background(), j)
			if err != nil {
				t.Fatal(err)
			}
			return <-ch
		}
		submit(warmJob(part, 1))
		least := time.Duration(1 << 62)
		for try := uint64(0); try < 4; try++ {
			r := submit(hotJob(part, 2+try, units))
			xmatch.SortPairs(r.Pairs)
			for i := range r.Pairs {
				r.Pairs[i].QueryID = 2
			}
			if !reflect.DeepEqual(r.Pairs, want) {
				t.Errorf("K=%d: %d pairs, brute force %d", k, len(r.Pairs), len(want))
			}
			least = min(least, r.ResponseTime())
		}
		return least
	}
	solo, both := best(1), best(2)
	t.Logf("one %d-unit bucket service: %v at K=1, %v at K=2 (%.2fx)", units, solo, both, float64(both)/float64(solo))
	if float64(both) > 0.7*float64(solo) {
		t.Errorf("K=2 takes %v, %.2fx the K=1 time %v, want <= 0.70x", both, float64(both)/float64(solo), solo)
	}
}

// TestSplitServiceCancelCloseInterleavings: queries whose work is a few
// hot buckets — every service split, siblings helping — completed,
// cancelled mid-flight, and cancelled while Close runs. Each gets exactly
// one terminal Result, a completed one carries the brute-force pairs, and
// no goroutine outlives Close.
func TestSplitServiceCancelCloseInterleavings(t *testing.T) {
	const m = 12
	part, _ := shardFixture(t)
	var locals []catalog.Object
	for b := 0; b < part.NumBuckets(); b++ {
		locals = append(locals, part.Materialize(b)...)
	}
	jobs := make([]Job, m)
	want := make([]int, m)
	for i := range jobs {
		// Three hot buckets, on different shards at every K > 1.
		jobs[i] = spanQuery(part, uint64(i+1), hotBucket+i%3, 1, 3*servicePartUnits+i)
		want[i] = len(xmatch.BruteForce(locals, jobs[i].Objects, nil))
	}
	modes := []struct {
		name       string
		cancelHalf bool
		raceClose  bool
	}{
		{name: "complete"},
		{name: "cancel-half", cancelHalf: true},
		{name: "close-races-cancels", cancelHalf: true, raceClose: true},
	}
	forEachK(t, func(t *testing.T, k int) {
		for _, mode := range modes {
			t.Run(mode.name, func(t *testing.T) {
				before := runtime.NumGoroutine()
				em := NewEngineMetrics(metric.NewRegistry())
				cfg := NewOn(part, 0.5, true, simclock.Real{})
				cfg.Shards = k
				cfg.Metrics = em
				l, err := NewLive(cfg)
				if err != nil {
					t.Fatal(err)
				}
				chans := make([]<-chan Result, m)
				cancels := make([]context.CancelFunc, m)
				for i, job := range jobs {
					ctx, cancel := context.WithCancel(context.Background())
					cancels[i] = cancel
					defer cancel()
					if chans[i], err = l.SubmitCtx(ctx, job); err != nil {
						t.Fatal(err)
					}
				}
				closed := make(chan error, 1)
				if mode.raceClose {
					go func() { closed <- l.Close() }()
				}
				if mode.cancelHalf {
					for i := 0; i < m; i += 2 {
						cancels[i]()
					}
				}
				for i, ch := range chans {
					r, ok := <-ch
					if !ok || r.QueryID != jobs[i].ID {
						t.Fatalf("query %d: result %+v ok=%v", jobs[i].ID, r, ok)
					}
					if _, again := <-ch; again {
						t.Fatalf("query %d delivered twice", jobs[i].ID)
					}
					if !r.Cancelled && (r.Matches != want[i] || len(r.Pairs) != want[i]) {
						t.Errorf("query %d: %d matches, %d pairs, brute force %d", jobs[i].ID, r.Matches, len(r.Pairs), want[i])
					}
				}
				if !mode.raceClose {
					go func() { closed <- l.Close() }()
				}
				if err := <-closed; err != nil {
					t.Fatal(err)
				}
				stats, _ := l.Stats()
				if stats.Completed+stats.Cancelled != m {
					t.Errorf("completed %d + cancelled %d, want %d queries", stats.Completed, stats.Cancelled, m)
				}
				own, helped := 0.0, 0.0
				for s := 0; s < k; s++ {
					own += em.parts.With(strconv.Itoa(s), "own").Value()
					helped += em.parts.With(strconv.Itoa(s), "helped").Value()
				}
				t.Logf("%d services in %d parts, %d of them run by a sibling", stats.BucketsServed, int(own+helped), int(helped))
				if k == 1 && int64(own) != stats.BucketsServed {
					t.Errorf("K=1: %d parts for %d services, want one each", int(own), stats.BucketsServed)
				}
				if k > 1 && mode.name == "complete" && int64(own+helped) <= stats.BucketsServed {
					t.Errorf("%d parts for %d services: nothing was split", int(own+helped), stats.BucketsServed)
				}
				if after := settleGoroutines(before); after > before {
					t.Errorf("%d goroutines after Close, %d before NewLive", after, before)
				}
			})
		}
	})
}

// BenchmarkServiceParts: one 300-unit scan service of a cached bucket on
// the clock that wakes sleepers late, whole (no sibling awake: the owner
// runs every part) and beside one idle helper. allocs/op is the
// split path's steady state and must read 0.
func BenchmarkServiceParts(b *testing.B) {
	part, _ := shardFixture(b)
	for _, helpers := range []int{0, 1} {
		b.Run("helpers="+strconv.Itoa(helpers), func(b *testing.B) {
			pair, ws := arms(b, part, simclock.NewVirtualTick(time.Millisecond), simclock.NewVirtualTick(time.Millisecond))
			owner := pair[0]
			stop := make(chan struct{})
			var wg sync.WaitGroup
			defer wg.Wait()
			defer close(stop)
			if helpers == 1 {
				wg.Add(1)
				go func() { defer wg.Done(); helpUntil(ws[1], pair[1], stop) }()
			}
			// One query that never completes (a sentinel unit), its 300
			// units pushed back after every service.
			job := hotJob(part, 1, 300)
			now := owner.cfg.Clock.Now()
			owner.admit(job, now)
			qs := owner.queries[job.ID]
			qs.remaining++
			items := append([]item(nil), owner.queues[hotBucket].items...)
			service := func() {
				owner.serviceBucket(hotBucket, owner.cfg.Clock.Now())
				qs.result.Pairs = qs.result.Pairs[:0]
				for _, it := range items {
					qs.remaining++
					owner.pushItem(hotBucket, it)
				}
			}
			for i := 0; i < 64; i++ { // warm the part buffers, and the runtime's wait queues
				service()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				service()
			}
			b.StopTimer()
			if want := (300 + servicePartUnits - 1) / servicePartUnits; partsOf(owner) != want {
				b.Fatalf("%d parts, want %d", partsOf(owner), want)
			}
		})
	}
}
