package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"liferaft/internal/bucket"
	"liferaft/internal/geom"
	"liferaft/internal/simclock"
	"liferaft/internal/stats"
	"liferaft/internal/workload"
	"liferaft/internal/xmatch"
)

// liveShardCounts is the K every Live behaviour test runs under: there is
// one engine, so one shard, two, and four must behave alike.
var liveShardCounts = []int{1, 2, 4}

// settleGoroutines waits, up to five seconds, for the process to be back at
// `want` goroutines or fewer, and returns the count it ended on.
func settleGoroutines(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// forEachK runs body as a subtest per shard count.
func forEachK(t *testing.T, body func(t *testing.T, k int)) {
	t.Helper()
	for _, k := range liveShardCounts {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) { body(t, k) })
	}
}

// TestLiveConcurrentSubmitters hammers the live engine from one goroutine
// per query (run under -race in CI) and checks exactly-once merged delivery
// against a trace replay of the same jobs, the merged statistics, and the
// closed-engine contract.
func TestLiveConcurrentSubmitters(t *testing.T) {
	part, jobs := shardFixture(t)
	replay, _, err := Run(shardCfg(part, 1, true), jobs, make([]time.Duration, len(jobs)))
	if err != nil {
		t.Fatal(err)
	}
	want := byQueryID(replay)
	forEachK(t, func(t *testing.T, k int) {
		l, err := NewLive(shardCfg(part, k, true))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.SetAlpha(0.5); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		results := make([]Result, len(jobs))
		errs := make([]error, len(jobs))
		for i, job := range jobs {
			wg.Add(1)
			go func(i int, job Job) {
				defer wg.Done()
				ch, err := l.SubmitCtx(context.Background(), job)
				if err != nil {
					errs[i] = err
					return
				}
				r, ok := <-ch
				if !ok {
					errs[i] = ErrClosed
					return
				}
				results[i] = r
				if _, again := <-ch; again {
					errs[i] = fmt.Errorf("query %d delivered twice", job.ID)
				}
			}(i, job)
		}
		wg.Wait()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			if errs[i] != nil {
				t.Fatalf("job %d: %v", i, errs[i])
			}
			w := want[jobs[i].ID]
			if r.QueryID != jobs[i].ID {
				t.Fatalf("job %d: result for query %d", i, r.QueryID)
			}
			if r.Assignments != w.Assignments || r.Matches != w.Matches {
				t.Errorf("q%d: assignments/matches %d/%d, replay %d/%d",
					r.QueryID, r.Assignments, r.Matches, w.Assignments, w.Matches)
			}
		}
		stats, ok := l.Stats()
		if !ok {
			t.Fatal("no stats after Close")
		}
		if stats.Completed != len(jobs) {
			t.Errorf("completed %d, want %d", stats.Completed, len(jobs))
		}
		if len(stats.PerShard) != k {
			t.Errorf("PerShard has %d entries, want %d", len(stats.PerShard), k)
		}
		if _, err := l.SubmitCtx(context.Background(), jobs[0]); err != ErrClosed {
			t.Errorf("submit after close: %v, want ErrClosed", err)
		}
		if err := l.Close(); err != nil {
			t.Errorf("second close: %v", err)
		}
	})
}

// TestLiveCloseWaitsForDrain: queries submitted before Close must all
// complete even when Close races the scheduler.
func TestLiveCloseWaitsForDrain(t *testing.T) {
	part, jobs := fixture(t)
	forEachK(t, func(t *testing.T, k int) {
		cfg, _ := NewVirtual(part, 0, false)
		cfg.Shards = k
		l, err := NewLive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var chans []<-chan Result
		for _, j := range jobs[:20] {
			ch, err := l.SubmitCtx(context.Background(), j)
			if err != nil {
				t.Fatal(err)
			}
			chans = append(chans, ch)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		for i, ch := range chans {
			select {
			case _, ok := <-ch:
				if !ok {
					t.Fatalf("channel %d closed without a result", i)
				}
			default:
				t.Fatalf("channel %d empty after Close returned", i)
			}
		}
	})
}

// TestLiveClockNeverBehindACompletion: a closed-loop client that is handed
// a result and reads Clock() to stamp its next request must not read an
// instant before that result's completion, or the next request is billed
// for the last one's service. (The serving layer stamps admissions exactly
// so; a virtual parent clock that moved only on Submit read one whole
// response behind.)
func TestLiveClockNeverBehindACompletion(t *testing.T) {
	part, jobs := fixture(t)
	forEachK(t, func(t *testing.T, k int) {
		cfg, _ := NewVirtual(part, 0, false)
		cfg.Shards = k
		l, err := NewLive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		for _, j := range jobs[:10] {
			ch, err := l.SubmitCtx(context.Background(), j)
			if err != nil {
				t.Fatal(err)
			}
			r := <-ch
			if now := l.Clock().Now(); now.Before(r.Completed) {
				t.Fatalf("query %d completed at %v, Clock() then read %v", r.QueryID, r.Completed, now)
			}
		}
	})
}

// TestLiveEmptyJobCompletesImmediately covers the no-overlap admit path.
func TestLiveEmptyJobCompletesImmediately(t *testing.T) {
	part, _ := fixture(t)
	forEachK(t, func(t *testing.T, k int) {
		cfg, _ := NewVirtual(part, 0, false)
		cfg.Shards = k
		l, err := NewLive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		ch, err := l.SubmitCtx(context.Background(), Job{ID: 424242})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case r := <-ch:
			if r.QueryID != 424242 || r.Assignments != 0 {
				t.Errorf("result = %+v", r)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("empty job never completed")
		}
	})
}

func TestLiveStatsBeforeClose(t *testing.T) {
	part, _ := fixture(t)
	cfg, _ := NewVirtual(part, 0, false)
	l, err := NewLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := l.Stats(); ok {
		t.Error("stats should be unavailable before Close")
	}
	l.Close()
}

func TestLiveRejectsBadConfig(t *testing.T) {
	if _, err := NewLive(Config{}); err == nil {
		t.Error("NewLive with empty config should fail")
	}
}

// TestRealIOStoreNeedsRealClock: the engine observes the store's backend
// (there is no option restating it) and refuses to charge real I/O to a
// virtual clock.
func TestRealIOStoreNeedsRealClock(t *testing.T) {
	part, jobs := fixture(t)
	cfg, _ := NewVirtual(part, 0, false)
	cfg.Store = cfg.Store.WithBackend(struct{ bucket.Backend }{})
	if l, err := NewLive(cfg); err == nil {
		l.Close()
		t.Error("NewLive: real-I/O store on a virtual clock should fail")
	}
	if _, _, err := Run(cfg, jobs[:1], []time.Duration{0}); err == nil {
		t.Error("Run: real-I/O store on a virtual clock should fail")
	}
}

// TestTunerEndToEnd drives the full §4 adaptive loop on real engine runs:
// measure curves at two saturations, register them, and check that the
// selected α is (weakly) larger at the lower saturation.
func TestTunerEndToEnd(t *testing.T) {
	part, jobs := fixture(t)
	sub := jobs[:60]
	measure := func(rate float64) ([]float64, error) {
		offs := workload.Poisson{RatePerSec: rate}.Offsets(len(sub), 11)
		curve, err := BuildCurve(nil, func(alpha float64) ([]Result, RunStats, error) {
			cfg, _ := NewVirtual(part, alpha, false)
			return Run(cfg, sub, offs)
		})
		if err != nil {
			return nil, err
		}
		tn, err := NewTuner(0.2)
		if err != nil {
			return nil, err
		}
		if err := tn.AddCurve(rate, curve); err != nil {
			return nil, err
		}
		a, err := tn.Alpha(rate)
		return []float64{a}, err
	}
	low, err := measure(0.5)
	if err != nil {
		t.Fatal(err)
	}
	high, err := measure(50)
	if err != nil {
		t.Fatal(err)
	}
	if low[0] < high[0] {
		t.Errorf("low-saturation α %v should be >= high-saturation α %v", low[0], high[0])
	}
}

// TestAdaptiveRetunes drives the full §4 closed loop: a live engine whose
// α follows the saturation estimate through the tuner's curves.
func TestAdaptiveRetunes(t *testing.T) {
	part, jobs := fixture(t)
	cfg, _ := NewVirtual(part, 0, false)
	l, err := NewLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tn, _ := NewTuner(0.2)
	// Curves shaped like the paper's: slow arrivals -> α=1, fast -> α=0.25.
	tn.AddCurve(0.1, stats.Curve{
		{Alpha: 0.25, Throughput: 0.10, RespTime: 50},
		{Alpha: 1.0, Throughput: 0.10, RespTime: 20},
	})
	tn.AddCurve(10, stats.Curve{
		{Alpha: 0.25, Throughput: 3.0, RespTime: 300},
		{Alpha: 1.0, Throughput: 1.5, RespTime: 280},
	})
	est, _ := NewSaturationEstimator(30 * time.Second)
	ad, err := NewAdaptive(l, tn, est, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	defer ad.Close()

	// Slow phase, then a burst: the estimator must cross the dead band
	// and trigger at least two retunes (initial + shift).
	clk := cfg.Clock.(*simclock.Virtual)
	var chans []<-chan Result
	for i := 0; i < 10; i++ {
		ch, err := ad.SubmitCtx(context.Background(), jobs[i])
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
		clk.Advance(10 * time.Second) // 0.1 q/s
	}
	for i := 10; i < 40; i++ {
		ch, err := ad.SubmitCtx(context.Background(), jobs[i])
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
		clk.Advance(100 * time.Millisecond) // 10 q/s burst
	}
	for _, ch := range chans {
		if _, ok := <-ch; !ok {
			t.Fatal("dropped query")
		}
	}
	if ad.Retunes() < 2 {
		t.Errorf("retunes = %d, want >= 2 (slow phase then burst)", ad.Retunes())
	}
}

func TestAdaptiveValidation(t *testing.T) {
	part, _ := fixture(t)
	cfg, _ := NewVirtual(part, 0, false)
	l, _ := NewLive(cfg)
	defer l.Close()
	tn, _ := NewTuner(0.2)
	est, _ := NewSaturationEstimator(time.Minute)
	if _, err := NewAdaptive(nil, tn, est, 0.25); err == nil {
		t.Error("nil live should fail")
	}
	if _, err := NewAdaptive(l, nil, est, 0.25); err == nil {
		t.Error("nil tuner should fail")
	}
	if _, err := NewAdaptive(l, tn, nil, 0.25); err == nil {
		t.Error("nil estimator should fail")
	}
	if _, err := NewAdaptive(l, tn, est, 0); err == nil {
		t.Error("zero threshold should fail")
	}
}

func TestSetAlphaClampsAndRejectsClosed(t *testing.T) {
	part, _ := fixture(t)
	forEachK(t, func(t *testing.T, k int) {
		cfg, _ := NewVirtual(part, 0, false)
		cfg.Shards = k
		l, err := NewLive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.SetAlpha(2); err != nil { // clamped, accepted
			t.Fatal(err)
		}
		if err := l.SetAlpha(-1); err != nil {
			t.Fatal(err)
		}
		l.Close()
		if err := l.SetAlpha(0.5); err != ErrClosed {
			t.Errorf("SetAlpha after Close = %v", err)
		}
	})
}

// spreadJobs builds n small queries that each own one workload object in
// each of four buckets spread evenly over the shard fixture's partition,
// so every query fans out to every shard for K up to 4 and, on the real
// clock, stays in flight for a few modeled bucket services.
func spreadJobs(t *testing.T, n int) (*bucket.Partition, []Job) {
	t.Helper()
	part, _ := shardFixture(t)
	cat := part.Catalog()
	stride := int64(cat.Total() / 4)
	jobs := make([]Job, n)
	for q := range jobs {
		id := uint64(7000 + q)
		for b := int64(0); b < 4; b++ {
			o := cat.Objects(b*stride+int64(q), b*stride+int64(q)+1)[0]
			jobs[q].Objects = append(jobs[q].Objects, xmatch.NewWorkloadObject(id, o, geom.ArcsecToRad(5)))
		}
		jobs[q].ID = id
	}
	return part, jobs
}

// TestLiveRelayGoroutines counts what a query costs in goroutines: with M
// queries in flight under cancellable contexts the engine holds at most M
// goroutines beyond its K shard workers (the design holds none: workers
// deliver into the query's merge record and context.AfterFunc issues the
// cancel), every query receives exactly one Result whether it completes,
// is cancelled mid-flight, or has its cancel race Close, and after Close
// the process is back to its pre-NewLive goroutine count.
func TestLiveRelayGoroutines(t *testing.T) {
	const m = 16
	part, jobs := spreadJobs(t, m)
	modes := []struct {
		name       string
		cancelHalf bool // cancel every other query mid-flight
		raceClose  bool // Close concurrently with the cancels
	}{
		{name: "complete"},
		{name: "cancel-half", cancelHalf: true},
		{name: "close-races-cancels", cancelHalf: true, raceClose: true},
	}
	forEachK(t, func(t *testing.T, k int) {
		for _, mode := range modes {
			t.Run(mode.name, func(t *testing.T) {
				before := runtime.NumGoroutine()
				cfg := NewOn(part, 0.5, false, simclock.Real{})
				cfg.Shards = k
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
				if relays := runtime.NumGoroutine() - before - k; relays > m {
					t.Errorf("%d relay goroutines for %d in-flight queries, want at most one each", relays, m)
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
				}
				if !mode.raceClose {
					go func() { closed <- l.Close() }()
				}
				if err := <-closed; err != nil {
					t.Fatal(err)
				}
				if stats, _ := l.Stats(); stats.Completed+stats.Cancelled != m {
					t.Errorf("completed %d + cancelled %d, want %d queries", stats.Completed, stats.Cancelled, m)
				}
				if after := settleGoroutines(before); after > before {
					t.Errorf("%d goroutines after Close, %d before NewLive", after, before)
				}
			})
		}
	})
}
