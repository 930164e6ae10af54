package core

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"liferaft/internal/bucket"
	"liferaft/internal/catalog"
	"liferaft/internal/geom"
	"liferaft/internal/simclock"
	"liferaft/internal/workload"
	"liferaft/internal/xmatch"
)

// The sharded fixture is the acceptance workload: a uniform (no hotspot)
// trace over exactly 32 equal buckets.
var (
	shardOnce sync.Once
	shardPart *bucket.Partition
	shardJobs []Job
)

func shardFixture(t testing.TB) (*bucket.Partition, []Job) {
	t.Helper()
	shardOnce.Do(func() {
		local, err := catalog.New(catalog.Config{
			Name: "sdss", N: 12800, Seed: 11, GenLevel: 4, CacheTrixels: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		remote, err := catalog.NewDerived(local, catalog.DerivedConfig{
			Name: "twomass", Seed: 12, Fraction: 0.8,
			JitterRad: geom.ArcsecToRad(1.5), CacheTrixels: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		shardPart, err = bucket.NewPartition(local, 400, 0) // 32 buckets
		if err != nil {
			t.Fatal(err)
		}
		cfg := workload.DefaultTraceConfig(13)
		cfg.NumQueries = 96
		cfg.HotFraction = 0 // uniform: no hotspots
		cfg.MinSelectivity, cfg.MaxSelectivity = 0.3, 1.0
		tr, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range tr.Queries {
			objs := workload.Materialize(q, remote, cfg.Seed)
			shardJobs = append(shardJobs, Job{ID: q.ID, Objects: objs, Pred: q.Predicate()})
		}
	})
	return shardPart, shardJobs
}

// runEngine is the bare one-disk replay loop — one scheduler, its arrivals
// on an event queue, no shard workers — and the reference
// TestShardedOneShardMatchesLegacy and perShardReference hold Run to.
func runEngine(cfg Config, jobs []Job, offsets []time.Duration) ([]Result, RunStats, error) {
	if len(jobs) != len(offsets) {
		return nil, RunStats{}, fmt.Errorf("core: %d jobs but %d offsets", len(jobs), len(offsets))
	}
	s, err := newScheduler(cfg)
	if err != nil {
		return nil, RunStats{}, err
	}
	start := cfg.clock().Now()
	var events simclock.EventQueue[Job]
	for i, j := range jobs {
		if offsets[i] < 0 {
			return nil, RunStats{}, fmt.Errorf("core: negative offset for job %d", i)
		}
		events.Push(start.Add(offsets[i]), j)
	}

	var results []Result
	for {
		now := cfg.clock().Now()
		for _, ev := range events.PopUntil(now) {
			if r := s.admit(ev.Value, ev.At); r != nil {
				results = append(results, *r)
			}
		}
		if !s.pendingWork() {
			at, ok := events.PeekTime()
			if !ok {
				break // drained
			}
			// Idle until the next arrival.
			cfg.clock().Sleep(at.Sub(now))
			continue
		}
		// step's slice aliases scheduler scratch (valid until the next
		// step); the append copies the Results out before then.
		done, _ := s.step(now)
		results = append(results, done...)
	}
	return results, s.finalize(cfg.clock().Now().Sub(start), len(results)), nil
}

func shardCfg(part *bucket.Partition, shards int, materialize bool) Config {
	cfg, _ := NewVirtual(part, 0.25, materialize)
	cfg.Shards = shards
	return cfg
}

func byQueryID(res []Result) map[uint64]Result {
	out := make(map[uint64]Result, len(res))
	for _, r := range res {
		out[r.QueryID] = r
	}
	return out
}

func TestShardsValidation(t *testing.T) {
	part, jobs := shardFixture(t)
	cfg := shardCfg(part, -1, false)
	if _, _, err := Run(cfg, jobs[:1], []time.Duration{0}); err == nil {
		t.Error("negative Shards should fail")
	}
	cfg = shardCfg(part, 2, false)
	if _, _, err := Run(cfg, jobs[:2], []time.Duration{0}); err == nil {
		t.Error("mismatched lengths should fail on the sharded path")
	}
	if _, _, err := Run(cfg, jobs[:1], []time.Duration{-time.Second}); err == nil {
		t.Error("negative offset should fail on the sharded path")
	}
}

// TestShardedOneShardMatchesLegacy runs Run with K=1 (one shard owning
// every bucket) and requires it to reproduce the bare single-disk replay
// loop (runEngine, the per-shard worker body) exactly: same per-query results, same
// aggregate statistics modulo the PerShard breakdown.
func TestShardedOneShardMatchesLegacy(t *testing.T) {
	part, jobs := shardFixture(t)
	offs := uniformOffsets(len(jobs), 500*time.Millisecond)

	legacyRes, legacyStats, err := runEngine(shardCfg(part, 0, true), jobs, offs)
	if err != nil {
		t.Fatal(err)
	}
	shardedRes, shardedStats, err := Run(shardCfg(part, 1, true), jobs, offs)
	if err != nil {
		t.Fatal(err)
	}

	if len(shardedStats.PerShard) != 1 {
		t.Fatalf("PerShard has %d entries, want 1", len(shardedStats.PerShard))
	}
	agg := shardedStats
	agg.PerShard = nil
	if !reflect.DeepEqual(agg, legacyStats) {
		t.Errorf("sharded K=1 stats diverge:\n sharded %+v\n legacy  %+v", agg, legacyStats)
	}

	// The legacy engine's result order within one service batch is map
	// order; compare per query.
	lm, sm := byQueryID(legacyRes), byQueryID(shardedRes)
	if len(lm) != len(sm) {
		t.Fatalf("%d sharded results for %d legacy", len(sm), len(lm))
	}
	for id, lr := range lm {
		sr, ok := sm[id]
		if !ok {
			t.Fatalf("query %d missing from sharded results", id)
		}
		if !reflect.DeepEqual(sr, lr) {
			t.Fatalf("query %d diverges:\n sharded %+v\n legacy  %+v", id, sr, lr)
		}
	}
}

// TestShardedConservation checks, for several K, that the sharded engine
// completes every query exactly once with the same total assignments and
// matches as the single-disk engine, and that the merged statistics are
// consistent with their per-shard breakdown.
func TestShardedConservation(t *testing.T) {
	part, jobs := shardFixture(t)
	offs := uniformOffsets(len(jobs), 200*time.Millisecond)
	_, legacyStats, err := Run(shardCfg(part, 1, true), jobs, offs)
	if err != nil {
		t.Fatal(err)
	}
	legacyRes, _, err := Run(shardCfg(part, 1, true), jobs, offs)
	if err != nil {
		t.Fatal(err)
	}
	lm := byQueryID(legacyRes)

	for _, k := range []int{2, 3, 4, 8, 64} {
		cfg := shardCfg(part, k, true)
		res, stats, err := Run(cfg, jobs, offs)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(jobs) {
			t.Fatalf("k=%d: %d results for %d jobs", k, len(res), len(jobs))
		}
		if stats.Completed != len(jobs) {
			t.Fatalf("k=%d: stats.Completed %d", k, stats.Completed)
		}
		for _, r := range res {
			l := lm[r.QueryID]
			if r.Assignments != l.Assignments {
				t.Fatalf("k=%d q%d: %d assignments, legacy %d",
					k, r.QueryID, r.Assignments, l.Assignments)
			}
			if r.Matches != l.Matches {
				t.Fatalf("k=%d q%d: %d matches, legacy %d",
					k, r.QueryID, r.Matches, l.Matches)
			}
			if r.Completed.Before(r.Arrived) {
				t.Fatalf("k=%d q%d completed before arrival", k, r.QueryID)
			}
		}
		// Merged counters must equal the per-shard sums, and the
		// breakdown must cover every bucket and query exactly.
		if len(stats.PerShard) != k {
			t.Fatalf("k=%d: PerShard has %d entries", k, len(stats.PerShard))
		}
		var served, scans, indexes, buckets int64
		var makespan time.Duration
		for s, ss := range stats.PerShard {
			if ss.Shard != s {
				t.Fatalf("k=%d: PerShard[%d].Shard = %d", k, s, ss.Shard)
			}
			served += ss.Stats.BucketsServed
			scans += ss.Stats.ScanServices
			indexes += ss.Stats.IndexServices
			buckets += int64(ss.Buckets)
			if ss.Stats.Makespan > makespan {
				makespan = ss.Stats.Makespan
			}
		}
		if served != stats.BucketsServed || scans != stats.ScanServices || indexes != stats.IndexServices {
			t.Fatalf("k=%d: aggregate counters diverge from PerShard sums", k)
		}
		if buckets != int64(part.NumBuckets()) {
			t.Fatalf("k=%d: shards own %d buckets, partition has %d",
				k, buckets, part.NumBuckets())
		}
		if makespan != stats.Makespan {
			t.Fatalf("k=%d: makespan %v is not the slowest shard's %v",
				k, stats.Makespan, makespan)
		}
		if end := cfg.clock().Now().Sub(simclock.Epoch); end != stats.Makespan {
			t.Fatalf("k=%d: the run's clock ends %v after its start, makespan %v", k, end, stats.Makespan)
		}
		// The same total work was done; only its distribution moved.
		if stats.ScanServices+stats.IndexServices != stats.BucketsServed {
			t.Fatalf("k=%d: services don't sum to buckets served", k)
		}
		if stats.Disk.Matches != legacyStats.Disk.Matches {
			t.Fatalf("k=%d: %d matches charged, legacy %d",
				k, stats.Disk.Matches, legacyStats.Disk.Matches)
		}
	}
}

// TestShardedSingleShardQuery submits one query whose workload objects
// all land on shard 0 (the lowest-ordinal objects, all in bucket 0):
// it must complete correctly while every other shard stays idle.
func TestShardedSingleShardQuery(t *testing.T) {
	part, _ := shardFixture(t)
	cat := part.Catalog()
	var wos []xmatch.WorkloadObject
	for _, o := range cat.Objects(0, 32) {
		wos = append(wos, xmatch.NewWorkloadObject(1, o, geom.ArcsecToRad(5)))
	}
	job := Job{ID: 1, Objects: wos}
	cfg := shardCfg(part, 4, true)
	res, stats, err := Run(cfg, []Job{job}, []time.Duration{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Assignments == 0 {
		t.Fatalf("bad result %+v", res)
	}
	if stats.PerShard[0].Stats.BucketsServed == 0 {
		t.Error("shard 0 serviced nothing")
	}
	for s := 1; s < 4; s++ {
		if ss := stats.PerShard[s]; ss.Stats.BucketsServed != 0 || ss.Jobs != 0 {
			t.Errorf("shard %d should be idle, got %+v", s, ss)
		}
	}
}

// TestShardedNoWorkQuery: a query with no workload objects completes on
// arrival through the sharded path, as it does on the single-disk one.
func TestShardedNoWorkQuery(t *testing.T) {
	part, jobs := shardFixture(t)
	empty := Job{ID: 999}
	mixed := append([]Job{empty}, jobs[:4]...)
	offs := uniformOffsets(len(mixed), time.Second)
	res, stats, err := Run(shardCfg(part, 4, false), mixed, offs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(mixed) || stats.Completed != len(mixed) {
		t.Fatalf("%d results, completed %d, want %d", len(res), stats.Completed, len(mixed))
	}
	r := byQueryID(res)[999]
	if !r.Completed.Equal(r.Arrived) {
		t.Errorf("empty query should complete on arrival, got %+v", r)
	}
}

// TestShardedThroughputScaling is the acceptance criterion: on the
// uniform 32-bucket trace, four shards must deliver at least twice the
// virtual-clock scan throughput of one.
func TestShardedThroughputScaling(t *testing.T) {
	part, jobs := shardFixture(t)
	// A saturating uniform stream: service demand far exceeds the
	// arrival interval, so makespan is disk-bound, not arrival-bound.
	offs := uniformOffsets(len(jobs), time.Millisecond)
	vqps := func(k int) float64 {
		t.Helper()
		_, stats, err := Run(shardCfg(part, k, false), jobs, offs)
		if err != nil {
			t.Fatal(err)
		}
		return stats.Throughput()
	}
	q1, q4 := vqps(1), vqps(4)
	if q4 < 2*q1 {
		t.Errorf("shards=4 throughput %.3f/s < 2x shards=1 %.3f/s", q4, q1)
	}
	t.Logf("virtual throughput: shards=1 %.3f/s, shards=4 %.3f/s (%.2fx)", q1, q4, q4/q1)
}

// TestShardedRunDeterministic: two identical sharded runs must agree
// exactly (worker goroutines may interleave, but each shard's virtual
// schedule and the merge are deterministic).
func TestShardedRunDeterministic(t *testing.T) {
	part, jobs := shardFixture(t)
	offs := uniformOffsets(len(jobs), 300*time.Millisecond)
	resA, statsA, err := Run(shardCfg(part, 4, true), jobs, offs)
	if err != nil {
		t.Fatal(err)
	}
	resB, statsB, err := Run(shardCfg(part, 4, true), jobs, offs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(statsA, statsB) {
		t.Errorf("stats diverge across identical runs:\n a %+v\n b %+v", statsA, statsB)
	}
	if !reflect.DeepEqual(resA, resB) {
		t.Error("results diverge across identical runs")
	}
}

// TestShardedPairsMatchLegacy compares the materialized pair sets of a
// sharded run against the single-disk engine, pair by pair.
func TestShardedPairsMatchLegacy(t *testing.T) {
	part, jobs := shardFixture(t)
	offs := uniformOffsets(len(jobs), 400*time.Millisecond)
	legacy, _, err := Run(shardCfg(part, 1, true), jobs, offs)
	if err != nil {
		t.Fatal(err)
	}
	sharded, _, err := Run(shardCfg(part, 4, true), jobs, offs)
	if err != nil {
		t.Fatal(err)
	}
	key := func(p xmatch.Pair) [3]uint64 { return [3]uint64{p.QueryID, p.Local.ID, p.Remote.ID} }
	sortPairs := func(ps []xmatch.Pair) [][3]uint64 {
		out := make([][3]uint64, len(ps))
		for i, p := range ps {
			out[i] = key(p)
		}
		sort.Slice(out, func(a, b int) bool {
			x, y := out[a], out[b]
			if x[0] != y[0] {
				return x[0] < y[0]
			}
			if x[1] != y[1] {
				return x[1] < y[1]
			}
			return x[2] < y[2]
		})
		return out
	}
	lm, sm := byQueryID(legacy), byQueryID(sharded)
	for id, lr := range lm {
		if !reflect.DeepEqual(sortPairs(lr.Pairs), sortPairs(sm[id].Pairs)) {
			t.Fatalf("query %d: pair sets diverge between sharded and single-disk", id)
		}
	}
}

// TestLiveShardedClockAdvances: the parent virtual clock must track the
// shard clocks while a sharded live engine runs — a saturation
// estimator and empty-fan-out completion stamps read it — not
// stay frozen at the engine start until Close.
func TestLiveShardedClockAdvances(t *testing.T) {
	part, jobs := shardFixture(t)
	cfg := shardCfg(part, 2, false)
	start := cfg.clock().Now()
	l, err := NewLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range jobs[:6] {
		ch, err := l.SubmitCtx(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		<-ch
	}
	if !cfg.clock().Now().After(start) {
		t.Error("parent clock frozen during sharded live run")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// spanQuery is a region query over n consecutive buckets starting at
// first: per objects from the middle of each, searched at 5 arcsec.
func spanQuery(part *bucket.Partition, id uint64, first, n, per int) Job {
	job := Job{ID: id}
	for b := first; b < first+n; b++ {
		objs := part.Materialize(b)
		for _, o := range objs[len(objs)/2-per/2:][:per] {
			job.Objects = append(job.Objects, xmatch.NewWorkloadObject(id, o, geom.ArcsecToRad(5)))
		}
	}
	return job
}

// TestOneQueryScalesWithShards: buckets are dealt to shards round-robin,
// so one query over 16 consecutive buckets has an equal share of its work
// on every shard and finishes in about 1/K the time — with the same
// pairs. (With a contiguous range per shard it would sit on one arm and
// take the K = 1 time at every K.)
func TestOneQueryScalesWithShards(t *testing.T) {
	part, _ := shardFixture(t)
	job := spanQuery(part, 1, 0, 16, 40)
	var locals []catalog.Object
	for b := 0; b < part.NumBuckets(); b++ {
		locals = append(locals, part.Materialize(b)...)
	}
	want := xmatch.BruteForce(locals, job.Objects, nil)
	xmatch.SortPairs(want)
	if len(want) < len(job.Objects) {
		t.Fatalf("brute force found %d pairs for %d objects drawn from the catalog itself", len(want), len(job.Objects))
	}

	var solo time.Duration
	for _, c := range []struct {
		k     int
		bound float64 // of the K = 1 makespan
	}{{1, 1}, {2, 0.65}, {4, 0.4}} {
		res, stats, err := Run(shardCfg(part, c.k, true), []Job{job}, []time.Duration{0})
		if err != nil {
			t.Fatal(err)
		}
		if c.k == 1 {
			solo = stats.Makespan
		}
		got := float64(stats.Makespan) / float64(solo)
		t.Logf("K=%d: makespan %v (%.2fx), %d services", c.k, stats.Makespan, got, stats.BucketsServed)
		if got > c.bound {
			t.Errorf("K=%d: makespan %v is %.2fx the K=1 makespan %v, want <= %.2fx", c.k, stats.Makespan, got, solo, c.bound)
		}
		xmatch.SortPairs(res[0].Pairs)
		if !reflect.DeepEqual(res[0].Pairs, want) {
			t.Errorf("K=%d: %d pairs, brute force %d", c.k, len(res[0].Pairs), len(want))
		}
		for _, ss := range stats.PerShard {
			if ss.Jobs != 1 {
				t.Errorf("K=%d: shard %d saw %d jobs, want the query on every shard", c.k, ss.Shard, ss.Jobs)
			}
		}
	}
}
