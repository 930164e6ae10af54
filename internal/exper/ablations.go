package exper

import (
	"fmt"
	"sort"

	"liferaft/internal/core"
)

// This file contains the ablation studies: design
// choices the paper fixes (the LRU cache's 20 buckets, the 3% hybrid
// threshold, most-contentious-first) swept to show why those choices hold,
// plus the §6 extensions (QoS age depreciation, workload overflow).

// AblationCacheSize sweeps the bucket cache capacity at α=0 (the paper
// fixes 20 buckets). The experiments run on the simulated store, whose
// entries are whole buckets, so a capacity of n holds n buckets.
func AblationCacheSize(env *Env) (Table, error) {
	offs := env.SaturatedOffsets()
	t := Table{
		Title:  "Ablation: bucket cache capacity (α=0)",
		Header: []string{"buckets", "throughput (q/s)", "hit rate"},
	}
	for _, n := range []int{1, 5, 20, 80} {
		cfg := env.Config(0)
		cfg.CacheBuckets = n
		_, stats, err := core.Run(cfg, env.Jobs, offs)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", n), f3(stats.Throughput()), pct(stats.Cache.HitRate())})
	}
	t.Notes = append(t.Notes, "a single-bucket cache is the Map-Reduce shared-scan analogue §6 contrasts against")
	return t, nil
}

// AblationHybridThreshold sweeps the indexed-join threshold around the
// paper's 3% break-even.
func AblationHybridThreshold(env *Env) (Table, error) {
	offs := env.SaturatedOffsets()
	t := Table{
		Title:  "Ablation: hybrid join threshold (α=0.5)",
		Header: []string{"threshold", "throughput (q/s)", "scan services", "index services"},
	}
	for _, th := range []float64{0.003, 0.01, 0.03, 0.1, 0.3} {
		cfg := env.Config(0.5)
		cfg.HybridThreshold = th
		_, stats, err := core.Run(cfg, env.Jobs, offs)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			pct(th), f3(stats.Throughput()),
			fmt.Sprintf("%d", stats.ScanServices), fmt.Sprintf("%d", stats.IndexServices),
		})
	}
	return t, nil
}

// AblationPolicy compares most-contentious-first (LifeRaft α=0) with the
// least-sharable-first discipline of Agrawal et al. and round-robin — the
// §6 policy discussion.
func AblationPolicy(env *Env) (Table, error) {
	offs := env.SaturatedOffsets()
	t := Table{
		Title:  "Ablation: batch policy (§6 discussion)",
		Header: []string{"policy", "throughput (q/s)", "mean resp (s)"},
	}
	run := func(name string, cfg core.Config) error {
		res, stats, err := core.Run(cfg, env.Jobs, offs)
		if err != nil {
			return err
		}
		t.Rows = append(t.Rows, []string{name, f3(stats.Throughput()), f2(respSummary(res).Mean)})
		return nil
	}
	if err := run("most-contentious (α=0)", env.Config(0)); err != nil {
		return Table{}, err
	}
	cfgLSF := env.Config(0)
	cfgLSF.Policy = core.PolicyLeastShared
	if err := run("least-sharable-first", cfgLSF); err != nil {
		return Table{}, err
	}
	cfgRR := env.Config(0)
	cfgRR.Policy = core.PolicyRoundRobin
	if err := run("round-robin", cfgRR); err != nil {
		return Table{}, err
	}
	t.Notes = append(t.Notes, "§6 predicts most-contentious-first wins on scientific workloads")
	return t, nil
}

// AblationQoS evaluates the §6 future-work extension: depreciating the age
// bias of long queries to protect interactive ones.
func AblationQoS(env *Env) (Table, error) {
	offs := env.SaturatedOffsets()
	sizes := make([]int, len(env.Jobs))
	for i, j := range env.Jobs {
		sizes[i] = len(j.Objects)
	}
	med := medianInt(sizes)
	t := Table{
		Title:  "Extension: QoS age depreciation for long queries (α=0.75)",
		Header: []string{"gamma", "short resp (s)", "long resp (s)", "throughput (q/s)"},
	}
	for _, gamma := range []float64{0, 2, 4} {
		cfg := env.Config(0.75)
		cfg.AgeDepreciationGamma = gamma
		res, stats, err := core.Run(cfg, env.Jobs, offs)
		if err != nil {
			return Table{}, err
		}
		var short, long []float64
		for _, r := range res {
			rt := r.ResponseTime().Seconds()
			if len(env.Jobs[r.QueryID].Objects) <= med {
				short = append(short, rt)
			} else {
				long = append(long, rt)
			}
		}
		t.Rows = append(t.Rows, []string{
			f2(gamma), f2(mean(short)), f2(mean(long)), f3(stats.Throughput()),
		})
	}
	t.Notes = append(t.Notes, "γ>0 trades long-query latency for interactive-query latency at steady throughput")
	return t, nil
}

// AblationOverflow evaluates the §6 workload-overflow extension: bounding
// queue memory by spilling cold queues to disk.
func AblationOverflow(env *Env) (Table, error) {
	offs := env.SaturatedOffsets()
	// Find a cap that actually binds: half the peak in-memory queue
	// estimate (total assignments / 4 is a robust small cap).
	total := 0
	for _, j := range env.Jobs {
		total += len(j.Objects)
	}
	t := Table{
		Title:  "Extension: workload overflow to disk (α=0.5)",
		Header: []string{"memory cap (objs)", "throughput (q/s)", "spilled objs", "fetches"},
	}
	for _, cap := range []int{0, total / 4, total / 40} {
		cfg := env.Config(0.5)
		cfg.WorkloadMemoryCap = cap
		_, stats, err := core.Run(cfg, env.Jobs, offs)
		if err != nil {
			return Table{}, err
		}
		label := "unbounded"
		if cap > 0 {
			label = fmt.Sprintf("%d", cap)
		}
		t.Rows = append(t.Rows, []string{
			label, f3(stats.Throughput()),
			fmt.Sprintf("%d", stats.SpilledObjects), fmt.Sprintf("%d", stats.SpillFetches),
		})
	}
	t.Notes = append(t.Notes, "answers are unchanged under spilling; only I/O and timing shift")
	return t, nil
}

func medianInt(xs []int) int {
	ys := make([]int, len(xs))
	copy(ys, xs)
	sort.Ints(ys)
	return ys[len(ys)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
