package core

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"liferaft/internal/bucket"
	"liferaft/internal/cache"
	"liferaft/internal/catalog"
	"liferaft/internal/disk"
	"liferaft/internal/geom"
	"liferaft/internal/simclock"
	"liferaft/internal/stats"
	"liferaft/internal/workload"
)

// The test fixture builds one small archive, partition, and query trace,
// shared across tests (construction is the expensive part).
var (
	fixOnce sync.Once
	fixPart *bucket.Partition
	fixJobs []Job
)

func fixture(t *testing.T) (*bucket.Partition, []Job) {
	t.Helper()
	fixOnce.Do(func() {
		local, err := catalog.New(catalog.Config{
			Name: "sdss", N: 60000, Seed: 1, GenLevel: 4, CacheTrixels: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		// The remote archive re-observes the same sky (see NewDerived):
		// cross-matches only exist between correlated catalogs.
		remote, err := catalog.NewDerived(local, catalog.DerivedConfig{
			Name: "twomass", Seed: 2, Fraction: 0.8,
			JitterRad: geom.ArcsecToRad(1.5), CacheTrixels: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		fixPart, err = bucket.NewPartition(local, 300, 0) // 200 buckets
		if err != nil {
			t.Fatal(err)
		}
		cfg := workload.DefaultTraceConfig(3)
		cfg.NumQueries = 120
		cfg.MinSelectivity, cfg.MaxSelectivity = 0.2, 1.0
		tr, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range tr.Queries {
			objs := workload.Materialize(q, remote, cfg.Seed)
			fixJobs = append(fixJobs, Job{ID: q.ID, Objects: objs, Pred: q.Predicate()})
		}
	})
	return fixPart, fixJobs
}

// satOffsets returns arrivals fast enough to saturate the engine (service
// demand per query far exceeds the interval), the regime of Figure 7.
func satOffsets(n int) []time.Duration { return uniformOffsets(n, 100*time.Millisecond) }

func uniformOffsets(n int, interval time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i) * interval
	}
	return out
}

func mustRun(t *testing.T, cfg Config, jobs []Job, offs []time.Duration) ([]Result, RunStats) {
	t.Helper()
	res, stats, err := Run(cfg, jobs, offs)
	if err != nil {
		t.Fatal(err)
	}
	return res, stats
}

func TestConfigValidation(t *testing.T) {
	part, _ := fixture(t)
	good, _ := NewVirtual(part, 0.5, false)
	bad := []func(Config) Config{
		func(c Config) Config { c.Store = nil; return c },
		func(c Config) Config { c.Disk = nil; return c },
		func(c Config) Config { c.Clock = nil; return c },
		func(c Config) Config { c.Policy = "bogus"; return c },
		func(c Config) Config { c.Alpha = -0.1; return c },
		func(c Config) Config { c.Alpha = 1.1; return c },
		func(c Config) Config { c.HybridThreshold = 1.5; return c },
		func(c Config) Config { c.HybridThreshold = -0.5; return c },
		func(c Config) Config { c.AgeDepreciationGamma = -1; return c },
		func(c Config) Config { c.WorkloadMemoryCap = -1; return c },
		func(c Config) Config { c.CachePolicy = "bogus"; return c },
	}
	for i, mut := range bad {
		if _, _, err := Run(mut(good), nil, nil); err == nil {
			t.Errorf("mutation %d should fail", i)
		}
	}
}

func TestRunEmptyAndMismatched(t *testing.T) {
	part, _ := fixture(t)
	cfg, _ := NewVirtual(part, 0.5, false)
	res, stats := mustRun(t, cfg, nil, nil)
	if len(res) != 0 || stats.Completed != 0 {
		t.Error("empty run should complete nothing")
	}
	if _, _, err := Run(cfg, make([]Job, 2), make([]time.Duration, 1)); err == nil {
		t.Error("mismatched lengths should fail")
	}
	if _, _, err := Run(cfg, make([]Job, 1), []time.Duration{-time.Second}); err == nil {
		t.Error("negative offset should fail")
	}
}

// TestRunRejectsDuplicateQueryID: two jobs under one ID would merge into
// one result; the fan-in refuses the trace, at every shard count.
func TestRunRejectsDuplicateQueryID(t *testing.T) {
	part, jobs := fixture(t)
	for _, k := range []int{1, 2} {
		cfg, _ := NewVirtual(part, 0.5, false)
		cfg.Shards = k
		dup := []Job{jobs[0], jobs[1], jobs[0]}
		_, _, err := Run(cfg, dup, make([]time.Duration, len(dup)))
		if err == nil || !strings.Contains(err.Error(), "already in flight") {
			t.Errorf("K=%d: duplicate query ID: got %v, want an \"already in flight\" error", k, err)
		}
	}
}

func TestConservation(t *testing.T) {
	part, jobs := fixture(t)
	for _, alpha := range []float64{0, 0.5, 1} {
		cfg, _ := NewVirtual(part, alpha, false)
		res, stats := mustRun(t, cfg, jobs, uniformOffsets(len(jobs), 2*time.Second))
		if len(res) != len(jobs) {
			t.Fatalf("α=%v: %d results for %d jobs", alpha, len(res), len(jobs))
		}
		seen := make(map[uint64]bool)
		for _, r := range res {
			if seen[r.QueryID] {
				t.Fatalf("α=%v: query %d completed twice", alpha, r.QueryID)
			}
			seen[r.QueryID] = true
			if r.Completed.Before(r.Arrived) {
				t.Fatalf("α=%v: query %d completed before arrival", alpha, r.QueryID)
			}
		}
		if stats.Completed != len(jobs) {
			t.Fatalf("α=%v: stats.Completed = %d", alpha, stats.Completed)
		}
		if stats.BucketsServed == 0 || stats.Makespan <= 0 {
			t.Fatalf("α=%v: empty stats: %+v", alpha, stats)
		}
		if stats.String() == "" {
			t.Error("stats String")
		}
	}
}

func TestDeterminism(t *testing.T) {
	part, jobs := fixture(t)
	run := func() ([]Result, RunStats) {
		cfg, _ := NewVirtual(part, 0.25, false)
		return mustRun(t, cfg, jobs, uniformOffsets(len(jobs), 3*time.Second))
	}
	r1, s1 := run()
	r2, s2 := run()
	if s1.Makespan != s2.Makespan || s1.BucketsServed != s2.BucketsServed {
		t.Fatalf("stats differ across identical runs: %v vs %v", s1, s2)
	}
	for i := range r1 {
		if r1[i].QueryID != r2[i].QueryID || !r1[i].Completed.Equal(r2[i].Completed) {
			t.Fatalf("completion order differs at %d", i)
		}
	}
}

// resultsByQuery collects materialized pairs keyed by query for
// cross-policy comparison.
func pairKeySet(res []Result) map[uint64]map[[2]uint64]bool {
	out := make(map[uint64]map[[2]uint64]bool)
	for _, r := range res {
		m := make(map[[2]uint64]bool, len(r.Pairs))
		for _, p := range r.Pairs {
			m[[2]uint64{p.Local.ID, p.Remote.ID}] = true
		}
		out[r.QueryID] = m
	}
	return out
}

func samePairs(a, b map[uint64]map[[2]uint64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for q, pa := range a {
		pb, ok := b[q]
		if !ok || len(pa) != len(pb) {
			return false
		}
		for k := range pa {
			if !pb[k] {
				return false
			}
		}
	}
	return true
}

// TestSchedulingDoesNotChangeAnswers is the core correctness property:
// LifeRaft at any α, round-robin, NoShare, and IndexOnly must all produce
// exactly the same cross-match pairs for every query — scheduling may
// only change *when* work happens.
func TestSchedulingDoesNotChangeAnswers(t *testing.T) {
	part, jobs := fixture(t)
	sub := jobs[:40]
	offs := uniformOffsets(len(sub), time.Second)

	ref := func() map[uint64]map[[2]uint64]bool {
		cfg, _ := NewVirtual(part, 0, true)
		res, _, err := RunNoShare(cfg, sub, offs)
		if err != nil {
			t.Fatal(err)
		}
		return pairKeySet(res)
	}()

	total := 0
	for _, m := range ref {
		total += len(m)
	}
	if total == 0 {
		t.Fatal("reference run found no matches; fixture too sparse")
	}

	for _, alpha := range []float64{0, 0.5, 1} {
		cfg, _ := NewVirtual(part, alpha, true)
		res, _ := mustRun(t, cfg, sub, offs)
		if !samePairs(ref, pairKeySet(res)) {
			t.Errorf("α=%v: pair set differs from NoShare reference", alpha)
		}
	}
	cfgRR, _ := NewVirtual(part, 0, true)
	cfgRR.Policy = PolicyRoundRobin
	res, _ := mustRun(t, cfgRR, sub, offs)
	if !samePairs(ref, pairKeySet(res)) {
		t.Error("round-robin: pair set differs")
	}
	cfgIdx, _ := NewVirtual(part, 0, true)
	resIdx, _, err := RunIndexOnly(cfgIdx, sub, offs)
	if err != nil {
		t.Fatal(err)
	}
	if !samePairs(ref, pairKeySet(resIdx)) {
		t.Error("index-only: pair set differs")
	}
}

// TestThroughputOrdering reproduces the headline result (Figure 7a):
// greedy LifeRaft well above NoShare, and IndexOnly far below NoShare.
func TestThroughputOrdering(t *testing.T) {
	part, jobs := fixture(t)
	offs := satOffsets(len(jobs))

	tput := func(alpha float64) float64 {
		cfg, _ := NewVirtual(part, alpha, false)
		_, stats := mustRun(t, cfg, jobs, offs)
		return stats.Throughput()
	}
	greedy, aged := tput(0), tput(1)

	cfgNS, _ := NewVirtual(part, 0, false)
	_, nsStats, err := RunNoShare(cfgNS, jobs, offs)
	if err != nil {
		t.Fatal(err)
	}
	noShare := nsStats.Throughput()

	cfgIO, _ := NewVirtual(part, 0, false)
	_, ioStats, err := RunIndexOnly(cfgIO, jobs, offs)
	if err != nil {
		t.Fatal(err)
	}
	indexOnly := ioStats.Throughput()

	if greedy < 1.5*noShare {
		t.Errorf("greedy throughput %.4f not >= 1.5x NoShare %.4f (paper: 2x)", greedy, noShare)
	}
	if greedy < aged {
		t.Errorf("greedy %.4f below α=1 %.4f", greedy, aged)
	}
	if aged < noShare {
		t.Errorf("even α=1 should beat NoShare via sharing: %.4f vs %.4f", aged, noShare)
	}
	if indexOnly > noShare/2 {
		t.Errorf("index-only %.4f should be far below NoShare %.4f (paper: 7x)", indexOnly, noShare)
	}
}

// TestAgedBiasOrdersCompletions: α=1 must track arrival order much more
// closely than α=0 (rank correlation of completion vs arrival).
func TestAgedBiasOrdersCompletions(t *testing.T) {
	part, jobs := fixture(t)
	offs := satOffsets(len(jobs))
	corr := func(alpha float64) float64 {
		cfg, _ := NewVirtual(part, alpha, false)
		res, _ := mustRun(t, cfg, jobs, offs)
		// Spearman-style: correlation between completion rank and ID
		// (IDs arrive in order).
		n := float64(len(res))
		var sum float64
		for rank, r := range res {
			d := float64(rank) - float64(r.QueryID)
			sum += d * d
		}
		return 1 - 6*sum/(n*(n*n-1))
	}
	cGreedy, cAged := corr(0), corr(1)
	if cAged < 0.8 {
		t.Errorf("α=1 completion/arrival correlation %.2f, want >= 0.8", cAged)
	}
	if cAged <= cGreedy {
		t.Errorf("α=1 correlation %.2f should exceed α=0's %.2f", cAged, cGreedy)
	}
}

// TestResponseTimeShape reproduces Figure 7b's shape: NoShare has the
// worst mean response time; α=1 beats α=0.
func TestResponseTimeShape(t *testing.T) {
	part, jobs := fixture(t)
	offs := satOffsets(len(jobs))
	meanResp := func(res []Result) float64 {
		xs := make([]float64, len(res))
		for i, r := range res {
			xs[i] = r.ResponseTime().Seconds()
		}
		return stats.Summarize(xs).Mean
	}
	cfg0, _ := NewVirtual(part, 0, false)
	res0, _ := mustRun(t, cfg0, jobs, offs)
	cfg1, _ := NewVirtual(part, 1, false)
	res1, _ := mustRun(t, cfg1, jobs, offs)
	cfgNS, _ := NewVirtual(part, 0, false)
	resNS, _, err := RunNoShare(cfgNS, jobs, offs)
	if err != nil {
		t.Fatal(err)
	}
	r0, r1, rNS := meanResp(res0), meanResp(res1), meanResp(resNS)
	if rNS <= r0 || rNS <= r1 {
		t.Errorf("NoShare response %.1fs should be worst (α0=%.1fs α1=%.1fs)", rNS, r0, r1)
	}
	if r1 >= r0 {
		t.Errorf("α=1 response %.1fs should beat α=0's %.1fs", r1, r0)
	}
}

// TestCacheHitRateByAlpha reproduces the §6 observation: the greedy
// scheduler services far more requests from the cache than the pure
// age-based one (paper: 40% vs 7%).
func TestCacheHitRateByAlpha(t *testing.T) {
	part, jobs := fixture(t)
	offs := satOffsets(len(jobs))
	hitRate := func(alpha float64) float64 {
		cfg, _ := NewVirtual(part, alpha, false)
		_, stats := mustRun(t, cfg, jobs, offs)
		return stats.Cache.HitRate()
	}
	greedy, aged := hitRate(0), hitRate(1)
	if greedy <= aged {
		t.Errorf("greedy hit rate %.2f should exceed age-based %.2f", greedy, aged)
	}
}

func TestHybridJoinUsed(t *testing.T) {
	part, jobs := fixture(t)
	cfg, _ := NewVirtual(part, 0.5, false)
	_, stats := mustRun(t, cfg, jobs, satOffsets(len(jobs)))
	if stats.ScanServices == 0 || stats.IndexServices == 0 {
		t.Errorf("heterogeneous workload should use both strategies: %+v", stats)
	}
	// Threshold 0 is replaced by the default, so index still appears;
	// a threshold close to 1 forces index for nearly everything.
	cfgIdx, _ := NewVirtual(part, 0.5, false)
	cfgIdx.HybridThreshold = 0.999
	_, statsIdx := mustRun(t, cfgIdx, jobs, satOffsets(len(jobs)))
	if statsIdx.IndexServices <= stats.IndexServices {
		t.Error("raising the threshold should increase index services")
	}
}

func TestRoundRobinFairness(t *testing.T) {
	part, jobs := fixture(t)
	cfg, _ := NewVirtual(part, 0, false)
	cfg.Policy = PolicyRoundRobin
	res, stats := mustRun(t, cfg, jobs, uniformOffsets(len(jobs), 2*time.Second))
	if len(res) != len(jobs) {
		t.Fatalf("RR completed %d of %d", len(res), len(jobs))
	}
	if stats.BucketsServed == 0 {
		t.Fatal("RR served nothing")
	}
}

func TestQoSDepreciationHelpsShortQueries(t *testing.T) {
	part, jobs := fixture(t)
	// Split fixture jobs into "long" (many objects) and "short" ones.
	var sizes []int
	for _, j := range jobs {
		sizes = append(sizes, len(j.Objects))
	}
	// Median split.
	med := median(sizes)
	shortMean := func(gamma float64) float64 {
		cfg, _ := NewVirtual(part, 0.75, false)
		cfg.AgeDepreciationGamma = gamma
		res, _ := mustRun(t, cfg, jobs, satOffsets(len(jobs)))
		var xs []float64
		for _, r := range res {
			if len(jobs[r.QueryID].Objects) <= med {
				xs = append(xs, r.ResponseTime().Seconds())
			}
		}
		return stats.Summarize(xs).Mean
	}
	plain, qos := shortMean(0), shortMean(4)
	if qos >= plain {
		t.Errorf("age depreciation should cut short-query response: γ=4 %.1fs vs γ=0 %.1fs", qos, plain)
	}
}

func median(xs []int) int {
	ys := make([]int, len(xs))
	copy(ys, xs)
	for i := 1; i < len(ys); i++ {
		for j := i; j > 0 && ys[j-1] > ys[j]; j-- {
			ys[j-1], ys[j] = ys[j], ys[j-1]
		}
	}
	return ys[len(ys)/2]
}

func TestWorkloadOverflowSpills(t *testing.T) {
	part, jobs := fixture(t)
	sub := jobs[:60]
	offs := uniformOffsets(len(sub), time.Second)

	cfgRef, _ := NewVirtual(part, 0.5, true)
	resRef, _ := mustRun(t, cfgRef, sub, offs)

	cfgCap, _ := NewVirtual(part, 0.5, true)
	cfgCap.WorkloadMemoryCap = 500
	resCap, statsCap := mustRun(t, cfgCap, sub, offs)

	if statsCap.SpilledObjects == 0 || statsCap.SpillFetches == 0 {
		t.Fatalf("tight cap should spill: %+v", statsCap)
	}
	if !samePairs(pairKeySet(resRef), pairKeySet(resCap)) {
		t.Error("overflow changed query answers")
	}
}

func TestCachePolicies(t *testing.T) {
	part, jobs := fixture(t)
	for _, p := range []cache.PolicyName{cache.PolicyLRU, cache.PolicyClock, cache.PolicyTwoQueue} {
		cfg, _ := NewVirtual(part, 0, false)
		cfg.CachePolicy = p
		res, _ := mustRun(t, cfg, jobs[:30], uniformOffsets(30, time.Second))
		if len(res) != 30 {
			t.Errorf("policy %s completed %d", p, len(res))
		}
	}
}

func TestImmediateCompletionForEmptyJob(t *testing.T) {
	part, _ := fixture(t)
	cfg, _ := NewVirtual(part, 0.5, false)
	res, _ := mustRun(t, cfg, []Job{{ID: 7}}, []time.Duration{time.Second})
	if len(res) != 1 || res[0].QueryID != 7 {
		t.Fatalf("empty job should complete immediately: %+v", res)
	}
	if res[0].ResponseTime() != 0 {
		t.Errorf("empty job response time = %v", res[0].ResponseTime())
	}
}

func TestLiveEngine(t *testing.T) {
	part, jobs := fixture(t)
	cfg, _ := NewVirtual(part, 0.25, true)
	l, err := NewLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub := jobs[:30]
	chans := make([]<-chan Result, len(sub))
	for i, j := range sub {
		ch, err := l.SubmitCtx(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, ch := range chans {
			r, ok := <-ch
			if !ok {
				t.Errorf("channel %d closed without result", i)
				return
			}
			if r.QueryID != sub[i].ID {
				t.Errorf("result %d has ID %d", i, r.QueryID)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("live engine timed out")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	stats, ok := l.Stats()
	if !ok || stats.Completed != len(sub) {
		t.Errorf("live stats = %+v ok=%v", stats, ok)
	}
	if _, err := l.SubmitCtx(context.Background(), sub[0]); err != ErrClosed {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Error("Close must be idempotent")
	}
}

func TestTunerSelection(t *testing.T) {
	// Curves shaped like the paper's Figure 4.
	low := stats.Curve{
		{Alpha: 0, Throughput: 0.105, RespTime: 220},
		{Alpha: 0.25, Throughput: 0.102, RespTime: 180},
		{Alpha: 0.5, Throughput: 0.100, RespTime: 150},
		{Alpha: 0.75, Throughput: 0.099, RespTime: 120},
		{Alpha: 1, Throughput: 0.098, RespTime: 100},
	}
	high := stats.Curve{
		{Alpha: 0, Throughput: 0.40, RespTime: 420},
		{Alpha: 0.25, Throughput: 0.33, RespTime: 330},
		{Alpha: 0.5, Throughput: 0.26, RespTime: 320},
		{Alpha: 0.75, Throughput: 0.23, RespTime: 310},
		{Alpha: 1, Throughput: 0.20, RespTime: 300},
	}
	tn, err := NewTuner(0.20)
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.AddCurve(0.1, low); err != nil {
		t.Fatal(err)
	}
	if err := tn.AddCurve(0.5, high); err != nil {
		t.Fatal(err)
	}
	// Low saturation: the paper picks α=1.0; high saturation: α=0.25.
	a, err := tn.Alpha(0.09)
	if err != nil || a != 1.0 {
		t.Errorf("low-saturation α = %v (%v), want 1.0", a, err)
	}
	a, err = tn.Alpha(0.6)
	if err != nil || a != 0.25 {
		t.Errorf("high-saturation α = %v (%v), want 0.25", a, err)
	}

	if _, err := NewTuner(-1); err == nil {
		t.Error("negative tolerance")
	}
	if err := tn.AddCurve(0, low); err == nil {
		t.Error("zero saturation")
	}
	if err := tn.AddCurve(1, nil); err == nil {
		t.Error("empty curve")
	}
	empty, _ := NewTuner(0.2)
	if _, err := empty.Alpha(0.1); err == nil {
		t.Error("empty tuner should error")
	}
}

func TestBuildCurve(t *testing.T) {
	part, jobs := fixture(t)
	sub := jobs[:25]
	curve, err := BuildCurve([]float64{0, 1}, func(alpha float64) ([]Result, RunStats, error) {
		cfg, _ := NewVirtual(part, alpha, false)
		return Run(cfg, sub, uniformOffsets(len(sub), time.Second))
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 2 || curve[0].Alpha != 0 || curve[1].Alpha != 1 {
		t.Fatalf("curve = %+v", curve)
	}
	for _, p := range curve {
		if p.Throughput <= 0 || p.RespTime <= 0 {
			t.Fatalf("degenerate point %+v", p)
		}
	}
	if _, err := BuildCurve(nil, func(float64) ([]Result, RunStats, error) {
		return nil, RunStats{}, nil
	}); err != nil {
		t.Error("default alphas should be used")
	}
}

func TestSaturationEstimator(t *testing.T) {
	est, err := NewSaturationEstimator(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSaturationEstimator(0); err == nil {
		t.Error("zero half-life")
	}
	now := simclock.Epoch
	// 0.5 q/s arrivals.
	for i := 0; i < 300; i++ {
		est.Observe(now)
		now = now.Add(2 * time.Second)
	}
	if r := est.Rate(); math.Abs(r-0.5) > 0.1 {
		t.Errorf("estimated rate %v, want ~0.5", r)
	}
	// Coincident arrivals bump the estimate instead of dividing by zero.
	before := est.Rate()
	est.Observe(now)
	est.Observe(now)
	if est.Rate() <= before {
		t.Error("coincident arrivals should nudge rate up")
	}
}

func TestNewVirtualDefaults(t *testing.T) {
	part, _ := fixture(t)
	cfg, clk := NewVirtual(part, 0.25, true)
	if cfg.Alpha != 0.25 || !cfg.MaterializeResults || cfg.CacheBuckets != 20 {
		t.Errorf("NewVirtual config = %+v", cfg)
	}
	if clk == nil || cfg.Clock != simclock.Clock(clk) {
		t.Error("clock not wired")
	}
	tb, _ := cfg.Disk.Model().Calibrate(part.BucketBytes(0))
	if tb <= 0 {
		t.Error("calibration")
	}
}

func TestDuplicateQueryIDPanics(t *testing.T) {
	part, jobs := fixture(t)
	cfg, _ := NewVirtual(part, 0, false)
	s, err := newScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.admit(jobs[0], simclock.Epoch)
	defer func() {
		if recover() == nil {
			t.Error("duplicate admit should panic")
		}
	}()
	s.admit(jobs[0], simclock.Epoch)
}

// TestWorkConservingIdle: the engine must jump the clock across idle gaps
// rather than spin, and complete everything.
func TestWorkConservingIdle(t *testing.T) {
	part, jobs := fixture(t)
	sub := jobs[:10]
	offs := make([]time.Duration, len(sub))
	for i := range offs {
		offs[i] = time.Duration(i) * time.Hour // massive gaps
	}
	cfg, _ := NewVirtual(part, 0, false)
	res, stats := mustRun(t, cfg, sub, offs)
	if len(res) != len(sub) {
		t.Fatalf("completed %d of %d", len(res), len(sub))
	}
	if stats.Makespan < 9*time.Hour {
		t.Errorf("makespan %v should span the arrival gaps", stats.Makespan)
	}
	// Under extreme idleness every query is serviced promptly on arrival.
	for _, r := range res {
		if r.ResponseTime() > time.Hour {
			t.Errorf("query %d waited %v despite idle system", r.QueryID, r.ResponseTime())
		}
	}
}

func BenchmarkSchedulerStep(b *testing.B) {
	local, _ := catalog.New(catalog.Config{Name: "l", N: 60000, Seed: 1, GenLevel: 4, CacheTrixels: true})
	remote, _ := catalog.New(catalog.Config{Name: "r", N: 60000, Seed: 2, GenLevel: 4, CacheTrixels: true})
	part, _ := bucket.NewPartition(local, 300, 0)
	tcfg := workload.DefaultTraceConfig(3)
	tcfg.NumQueries = 60
	tr, _ := workload.Generate(tcfg)
	var jobs []Job
	for _, q := range tr.Queries {
		jobs = append(jobs, Job{ID: q.ID, Objects: workload.Materialize(q, remote, tcfg.Seed)})
	}
	offs := satOffsets(len(jobs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg, _ := NewVirtual(part, 0.5, false)
		if _, _, err := Run(cfg, jobs, offs); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = disk.SkyQuery // keep import for benchmark variants
