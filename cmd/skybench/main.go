// Command skybench regenerates the paper's tables and figures (and this
// reproduction's ablations) from the experiment harness. Wall-clock
// throughput, latency, bytes and allocations are not measured here: they
// come from bench/ (BENCHMARK.json), and the scheduler hot path's ns/op
// and allocs/op from go test -bench 'Pick|Step' -benchmem ./internal/core.
//
// Usage:
//
//	skybench [-scale ci|mid|paper] [-exp all|fig2|fig4|fig5|fig6|fig7|fig8|indexonly|cache|ablations]
//
// Examples:
//
//	skybench                      # every experiment at CI scale
//	skybench -scale mid -exp fig7 # the headline comparison at 2,000 buckets
//
// The vqps checksum of the CI-scale replay is internal/exper's
// TestCISaturatedVQPSMatchesRecorded, and the serving layer's overload
// behaviour is internal/server's TestLoadSteadyTenantBoundedP99.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"liferaft/internal/exper"
)

func main() {
	scaleName := flag.String("scale", "ci", "experiment scale: ci, mid, or paper")
	expName := flag.String("exp", "all", "experiment: all, fig2, fig4, fig5, fig6, fig7, fig8, indexonly, cache, ablations")
	shards := flag.Int("shards", 1, "disk/worker shards per engine (1 = one shard of the same engine)")
	flag.Parse()

	if err := run(*scaleName, *expName, *shards); err != nil {
		fmt.Fprintf(os.Stderr, "skybench: %v\n", err)
		os.Exit(1)
	}
}

func run(scaleName, expName string, shards int) error {
	scale, err := exper.ScaleByName(scaleName)
	if err != nil {
		return err
	}
	if shards < 1 {
		return fmt.Errorf("-shards %d must be >= 1", shards)
	}
	scale.Shards = shards
	if expName == "fig2" {
		// Figure 2 needs no environment: it is a property of the paper's
		// bucket geometry and the disk model.
		exper.Fig2(nil).Fprint(os.Stdout)
		return nil
	}
	fmt.Printf("building %s-scale environment (%d objects, %d queries)...\n",
		scale.Name, scale.LocalN, scale.NumQueries)
	start := time.Now()
	env, err := exper.NewEnv(scale)
	if err != nil {
		return err
	}
	fmt.Printf("environment ready in %v: %d buckets, %d jobs\n",
		time.Since(start).Round(time.Millisecond), env.Part.NumBuckets(), len(env.Jobs))

	type experiment struct {
		name string
		run  func() error
	}
	show := func(t exper.Table, err error) error {
		if err != nil {
			return err
		}
		t.Fprint(os.Stdout)
		return nil
	}
	var fig8curves []exper.SaturationCurve
	all := []experiment{
		{"fig2", func() error { exper.Fig2(env).Fprint(os.Stdout); return nil }},
		{"fig5", func() error { exper.Fig5(env).Fprint(os.Stdout); return nil }},
		{"fig6", func() error { exper.Fig6(env).Fprint(os.Stdout); return nil }},
		{"fig7", func() error { return show(exper.Fig7(env)) }},
		{"fig8", func() error {
			t, curves, err := exper.Fig8(env)
			fig8curves = curves
			return show(t, err)
		}},
		{"fig4", func() error { return show(exper.Fig4(env, fig8curves)) }},
		{"indexonly", func() error { return show(exper.IndexOnlyExp(env)) }},
		{"cache", func() error { return show(exper.CacheHitRates(env)) }},
		{"ablations", func() error {
			if err := show(exper.AblationCacheSize(env)); err != nil {
				return err
			}
			if err := show(exper.AblationHybridThreshold(env)); err != nil {
				return err
			}
			if err := show(exper.AblationPolicy(env)); err != nil {
				return err
			}
			if err := show(exper.AblationQoS(env)); err != nil {
				return err
			}
			return show(exper.AblationOverflow(env))
		}},
	}
	if expName == "all" {
		for _, e := range all {
			t := time.Now()
			if err := e.run(); err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
			fmt.Printf("  [%s done in %v]\n", e.name, time.Since(t).Round(time.Millisecond))
		}
		return nil
	}
	for _, e := range all {
		if e.name == expName {
			return e.run()
		}
	}
	return fmt.Errorf("unknown experiment %q", expName)
}
