// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation, at CI scale. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports the figure's headline statistic as a custom
// metric alongside the usual ns/op, so `go test -bench` output doubles as
// a reproduction summary.
package liferaft_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"liferaft"
	"liferaft/internal/core"
	"liferaft/internal/exper"
)

var (
	benchOnce sync.Once
	benchEnv  *exper.Env
	benchErr  error
)

func env(b *testing.B) *exper.Env {
	b.Helper()
	benchOnce.Do(func() {
		scale := exper.CI()
		scale.NumQueries = 400
		benchEnv, benchErr = exper.NewEnv(scale)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv
}

// BenchmarkFig2HybridJoin regenerates the Figure 2 scan-vs-index sweep.
func BenchmarkFig2HybridJoin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := exper.Fig2(nil)
		if len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig5WorkloadReuse regenerates the Figure 5 top-bucket
// characterization.
func BenchmarkFig5WorkloadReuse(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exper.Fig5(e)
	}
}

// BenchmarkFig6WorkloadSkew regenerates the Figure 6 cumulative-share
// characterization.
func BenchmarkFig6WorkloadSkew(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exper.Fig6(e)
	}
}

// BenchmarkFig7Schedulers regenerates the Figure 7 algorithm comparison
// (NoShare, LifeRaft across α, RR) and reports the headline greedy-over-
// NoShare throughput ratio.
func BenchmarkFig7Schedulers(b *testing.B) {
	e := env(b)
	offs := e.SaturatedOffsets()
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		_, ns, err := core.RunNoShare(e.Config(0), e.Jobs, offs)
		if err != nil {
			b.Fatal(err)
		}
		_, greedy, err := core.Run(e.Config(0), e.Jobs, offs)
		if err != nil {
			b.Fatal(err)
		}
		ratio = greedy.Throughput() / ns.Throughput()
	}
	b.ReportMetric(ratio, "greedy/noshare-x")
}

// BenchmarkFig8Saturation regenerates one curve of the Figure 8 sweep
// (all α at the highest saturation) via BuildCurve, as exper.Fig8 does.
func BenchmarkFig8Saturation(b *testing.B) {
	e := env(b)
	cap, err := e.Capacity()
	if err != nil {
		b.Fatal(err)
	}
	offs := e.PoissonOffsets(1.25 * cap)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := core.BuildCurve(core.DefaultAlphas, func(alpha float64) ([]core.Result, core.RunStats, error) {
			return core.Run(e.Config(alpha), e.Jobs, offs)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Tradeoff builds the Figure 4 trade-off curve at one
// saturation via BuildCurve.
func BenchmarkFig4Tradeoff(b *testing.B) {
	e := env(b)
	cap, err := e.Capacity()
	if err != nil {
		b.Fatal(err)
	}
	offs := e.PoissonOffsets(0.5 * cap)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := core.BuildCurve(nil, func(alpha float64) ([]core.Result, core.RunStats, error) {
			return core.Run(e.Config(alpha), e.Jobs, offs)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexOnly regenerates the §5 index-only-vs-NoShare comparison
// and reports the slowdown.
func BenchmarkIndexOnly(b *testing.B) {
	e := env(b)
	offs := e.SaturatedOffsets()
	b.ResetTimer()
	var slowdown float64
	for i := 0; i < b.N; i++ {
		_, ns, err := core.RunNoShare(e.Config(0), e.Jobs, offs)
		if err != nil {
			b.Fatal(err)
		}
		_, io, err := core.RunIndexOnly(e.Config(0), e.Jobs, offs)
		if err != nil {
			b.Fatal(err)
		}
		slowdown = ns.Throughput() / io.Throughput()
	}
	b.ReportMetric(slowdown, "noshare/indexonly-x")
}

// BenchmarkCacheHitRates regenerates the §6 cache observation (α=0 vs α=1)
// and reports both hit rates.
func BenchmarkCacheHitRates(b *testing.B) {
	e := env(b)
	offs := e.SaturatedOffsets()
	b.ResetTimer()
	var greedy, aged float64
	for i := 0; i < b.N; i++ {
		_, s0, err := core.Run(e.Config(0), e.Jobs, offs)
		if err != nil {
			b.Fatal(err)
		}
		_, s1, err := core.Run(e.Config(1), e.Jobs, offs)
		if err != nil {
			b.Fatal(err)
		}
		greedy, aged = s0.Cache.HitRate(), s1.Cache.HitRate()
	}
	b.ReportMetric(100*greedy, "hit%-α0")
	b.ReportMetric(100*aged, "hit%-α1")
}

// BenchmarkAblationPolicies compares most-contentious-first with
// least-sharable-first and round-robin (the §6 policy discussion).
func BenchmarkAblationPolicies(b *testing.B) {
	e := env(b)
	offs := e.SaturatedOffsets()
	for _, pk := range []core.PolicyKind{core.PolicyLifeRaft, core.PolicyLeastShared, core.PolicyRoundRobin} {
		b.Run(string(pk), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := e.Config(0)
				cfg.Policy = pk
				if _, _, err := core.Run(cfg, e.Jobs, offs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The sharded benchmark environment: a uniform (no hotspot) trace over
// exactly 32 equal buckets, the acceptance workload for the sharded
// engine.
var (
	shardOnce sync.Once
	shardPart *liferaft.Partition
	shardJobs []liferaft.Job
	shardOffs []time.Duration
	shardErr  error
)

func shardEnv(b *testing.B) (*liferaft.Partition, []liferaft.Job, []time.Duration) {
	b.Helper()
	shardOnce.Do(func() {
		local, err := liferaft.NewCatalog(liferaft.CatalogConfig{
			Name: "sdss", N: 12800, Seed: 11, GenLevel: 4, CacheTrixels: true,
		})
		if err != nil {
			shardErr = err
			return
		}
		remote, err := liferaft.NewDerivedCatalog(local, liferaft.DerivedConfig{
			Name: "twomass", Seed: 12, Fraction: 0.8,
			JitterRad: liferaft.ArcsecToRad(1.5), CacheTrixels: true,
		})
		if err != nil {
			shardErr = err
			return
		}
		shardPart, err = liferaft.NewPartition(local, 400, 0) // 32 buckets
		if err != nil {
			shardErr = err
			return
		}
		tcfg := liferaft.DefaultTraceConfig(13)
		tcfg.NumQueries = 96
		tcfg.HotFraction = 0 // uniform
		tcfg.MinSelectivity, tcfg.MaxSelectivity = 0.3, 1.0
		trace, err := liferaft.GenerateTrace(tcfg)
		if err != nil {
			shardErr = err
			return
		}
		for _, q := range trace.Queries {
			shardJobs = append(shardJobs, liferaft.Job{
				ID: q.ID, Objects: liferaft.MaterializeQuery(q, remote, tcfg.Seed), Pred: q.Predicate(),
			})
		}
		// A saturating uniform stream: makespan is disk-bound.
		shardOffs = make([]time.Duration, len(shardJobs))
		for i := range shardOffs {
			shardOffs[i] = time.Duration(i) * time.Millisecond
		}
	})
	if shardErr != nil {
		b.Fatal(shardErr)
	}
	return shardPart, shardJobs, shardOffs
}

// BenchmarkShardedRun replays the uniform 32-bucket trace through the
// sharded engine at 1, 2, 4, and 8 shards, reporting the virtual-clock
// query throughput (vqps) so the scan-throughput scaling across modeled
// disks is visible alongside the wall-clock cost of the replay itself.
// The acceptance bar is >= 2x vqps at shards=4 versus shards=1
// (TestShardedThroughputScaling in internal/core enforces it).
func BenchmarkShardedRun(b *testing.B) {
	part, jobs, offs := shardEnv(b)
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			var vqps float64
			for i := 0; i < b.N; i++ {
				cfg, _ := liferaft.NewVirtualConfig(part, 0.25, false)
				cfg.Shards = k
				_, stats, err := liferaft.Run(cfg, jobs, offs)
				if err != nil {
					b.Fatal(err)
				}
				vqps = stats.Throughput()
			}
			b.ReportMetric(vqps, "vqps")
		})
	}
}

// BenchmarkEndToEndQuery measures the public-API cost of one materialized
// cross-match query through the engine (the quickstart path).
func BenchmarkEndToEndQuery(b *testing.B) {
	e := env(b)
	job := e.Jobs[0]
	for job.Objects == nil {
		b.Fatal("fixture job empty")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg, _ := liferaft.NewVirtualConfig(e.Part, 0.25, false)
		if _, _, err := liferaft.Run(cfg, []liferaft.Job{job}, []time.Duration{0}); err != nil {
			b.Fatal(err)
		}
	}
}
