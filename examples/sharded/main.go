// Sharded execution: replay one uniform query trace through the LifeRaft
// engine at 1, 2, 4, and 8 disk/worker shards and print the virtual-clock
// scan-throughput scaling, the per-shard breakdown, and the invariance of
// the query answers across shard counts. Buckets are dealt to shards
// round-robin along the HTM curve (bucket i to shard i mod K), so a
// query's consecutive buckets spread over the arms: the per-shard "jobs"
// column counts query parts and sums to more than the query count.
//
//	go run ./examples/sharded
package main

import (
	"fmt"
	"log"
	"time"

	"liferaft"
)

func main() {
	// The acceptance geometry: 32 equal buckets under a uniform trace.
	local, err := liferaft.NewCatalog(liferaft.CatalogConfig{
		Name: "sdss", N: 12_800, Seed: 11, GenLevel: 4, CacheTrixels: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	remote, err := liferaft.NewDerivedCatalog(local, liferaft.DerivedConfig{
		Name: "twomass", Seed: 12, Fraction: 0.8,
		JitterRad: liferaft.ArcsecToRad(1.5), CacheTrixels: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	part, err := liferaft.NewPartition(local, 400, 0)
	if err != nil {
		log.Fatal(err)
	}

	tcfg := liferaft.DefaultTraceConfig(13)
	tcfg.NumQueries = 96
	tcfg.HotFraction = 0 // uniform sky coverage
	tcfg.MinSelectivity, tcfg.MaxSelectivity = 0.3, 1.0
	trace, err := liferaft.GenerateTrace(tcfg)
	if err != nil {
		log.Fatal(err)
	}
	var jobs []liferaft.Job
	for _, q := range trace.Queries {
		jobs = append(jobs, liferaft.Job{
			ID: q.ID, Objects: liferaft.MaterializeQuery(q, remote, tcfg.Seed), Pred: q.Predicate(),
		})
	}
	// A saturating stream: one arrival per virtual millisecond.
	offs := make([]time.Duration, len(jobs))
	for i := range offs {
		//lifevet:allow durovf -- demo binary: i indexes the generated job list
		offs[i] = time.Duration(i) * time.Millisecond
	}
	fmt.Printf("%d buckets, %d queries, uniform arrivals\n\n", part.NumBuckets(), len(jobs))

	var base float64
	var matches1 int
	for _, shards := range []int{1, 2, 4, 8} {
		cfg, _ := liferaft.NewVirtualConfig(part, 0.25, true)
		cfg.Shards = shards // the only knob that changes
		results, stats, err := liferaft.Run(cfg, jobs, offs)
		if err != nil {
			log.Fatal(err)
		}
		matches := 0
		for _, r := range results {
			matches += r.Matches
		}
		qps := stats.Throughput()
		if shards == 1 {
			base, matches1 = qps, matches
		}
		fmt.Printf("shards=%d: makespan %8v  throughput %7.1f q/s (%.2fx)  matches %d\n",
			shards, stats.Makespan.Round(time.Millisecond), qps, qps/base, matches)
		for _, ss := range stats.PerShard {
			fmt.Printf("   shard %d: %2d buckets, %3d jobs, %3d services, disk busy %v\n",
				ss.Shard, ss.Buckets, ss.Jobs, ss.Stats.BucketsServed,
				ss.Stats.Disk.BusyTime.Round(time.Millisecond))
		}
		if matches != matches1 {
			log.Fatalf("answers changed with shards=%d: %d matches vs %d", shards, matches, matches1)
		}
	}
	fmt.Println("\nsame answers at every shard count; only the wall clock moved")
}
