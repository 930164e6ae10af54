package exper

import (
	"fmt"
	"sort"
	"time"

	"liferaft/internal/core"
	"liferaft/internal/disk"
	"liferaft/internal/stats"
)

// respSummary summarizes response times in seconds.
func respSummary(results []core.Result) stats.Summary {
	xs := make([]float64, len(results))
	for i, r := range results {
		xs[i] = r.ResponseTime().Seconds()
	}
	return stats.Summarize(xs)
}

// Fig2 regenerates Figure 2: the speed-up of a non-indexed sequential scan
// over an indexed join as a function of the workload-queue-to-bucket size
// ratio, for the paper's 10,000-object / 40 MB bucket geometry. The paper
// observes a break-even at ~3% of the bucket size and up to a twenty-fold
// gap at large queues.
func Fig2(_ *Env) Table {
	m := disk.SkyQuery()
	const bucketObjects = 10_000
	bucketBytes := int64(bucketObjects) * 4096 // 40 MB
	tb, tm := m.Calibrate(bucketBytes)

	t := Table{
		Title:  "Figure 2: scan vs. indexed join by workload queue ratio",
		Header: []string{"queue/bucket", "queue objs", "scan (s)", "index (s)", "scan speed-up"},
	}
	var breakEven float64
	prevRatio, prevSpeedup := 0.0, 0.0
	for _, ratio := range []float64{0.001, 0.002, 0.003, 0.005, 0.01, 0.02, 0.03, 0.05, 0.1, 0.2, 0.5, 1.0} {
		q := int(ratio * bucketObjects)
		if q < 1 {
			q = 1
		}
		scan := tb + time.Duration(q)*tm
		index := time.Duration(q)*m.SortedProbe() + time.Duration(q)*tm
		speedup := index.Seconds() / scan.Seconds()
		if breakEven == 0 && prevSpeedup < 1 && speedup >= 1 {
			// Interpolate the exact crossing between the two samples.
			frac := (1 - prevSpeedup) / (speedup - prevSpeedup)
			breakEven = prevRatio + frac*(ratio-prevRatio)
		}
		prevRatio, prevSpeedup = ratio, speedup
		t.Rows = append(t.Rows, []string{
			f3(ratio), fmt.Sprintf("%d", q),
			f3(scan.Seconds()), f3(index.Seconds()), f2(speedup),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("break-even at queue/bucket ≈ %s (paper: ~3%%)", pct(breakEven)),
		fmt.Sprintf("Tb=%v Tm=%v derived from the disk model (paper: 1.2s, 0.13ms)", tb, tm),
	)
	return t
}

// jobBuckets maps each job to the sorted distinct bucket indices its
// workload objects touch.
func (e *Env) jobBuckets() [][]int {
	out := make([][]int, len(e.Jobs))
	for i, j := range e.Jobs {
		seen := map[int]bool{}
		for _, wo := range j.Objects {
			for _, bi := range e.Part.AppendBucketsReached(nil, wo.Range(), wo.Cap()) {
				seen[bi] = true
			}
		}
		bs := make([]int, 0, len(seen))
		for b := range seen {
			bs = append(bs, b)
		}
		sort.Ints(bs)
		out[i] = bs
	}
	return out
}

// Fig5 regenerates Figure 5: the top ten buckets by reuse, the queries
// touching them, and their temporal clustering. The paper reports the top
// ten buckets are accessed by 61% of queries and that overlapping queries
// are close in time.
func Fig5(env *Env) Table {
	jb := env.jobBuckets()
	touches := map[int][]int{} // bucket -> touching query numbers, ascending
	for q, bs := range jb {
		for _, b := range bs {
			touches[b] = append(touches[b], q)
		}
	}
	type bt struct {
		bucket int
		qs     []int
	}
	ranked := make([]bt, 0, len(touches))
	for b, qs := range touches {
		ranked = append(ranked, bt{b, qs})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if len(ranked[i].qs) != len(ranked[j].qs) {
			return len(ranked[i].qs) > len(ranked[j].qs)
		}
		return ranked[i].bucket < ranked[j].bucket
	})
	if len(ranked) > 10 {
		ranked = ranked[:10]
	}
	t := Table{
		Title:  "Figure 5: top ten buckets by reuse",
		Header: []string{"rank", "bucket", "queries", "first q", "last q", "median gap"},
	}
	inTop := map[int]bool{}
	for rank, e := range ranked {
		gaps := make([]float64, 0, len(e.qs)-1)
		for i := 1; i < len(e.qs); i++ {
			gaps = append(gaps, float64(e.qs[i]-e.qs[i-1]))
		}
		sort.Float64s(gaps)
		med := stats.Percentile(gaps, 0.5)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", rank+1), fmt.Sprintf("%d", e.bucket),
			fmt.Sprintf("%d", len(e.qs)),
			fmt.Sprintf("%d", e.qs[0]), fmt.Sprintf("%d", e.qs[len(e.qs)-1]),
			f2(med),
		})
		for _, q := range e.qs {
			inTop[q] = true
		}
	}
	frac := float64(len(inTop)) / float64(len(env.Jobs))
	t.Notes = append(t.Notes,
		fmt.Sprintf("top-10 buckets are accessed by %s of queries (paper: 61%%)", pct(frac)),
		"small median gaps show the temporal clustering the paper's scatter plot depicts")
	return t
}

// Fig6 regenerates Figure 6: the cumulative workload captured by the
// top-ranked buckets. The paper reports 2% of buckets capture 50% of the
// workload objects.
func Fig6(env *Env) Table {
	counts := make([]float64, env.Part.NumBuckets())
	for _, j := range env.Jobs {
		for _, wo := range j.Objects {
			for _, bi := range env.Part.AppendBucketsReached(nil, wo.Range(), wo.Cap()) {
				counts[bi]++
			}
		}
	}
	nonEmpty := 0
	for _, c := range counts {
		if c > 0 {
			nonEmpty++
		}
	}
	cum := stats.CumulativeShare(counts)
	t := Table{
		Title:  "Figure 6: cumulative workload by bucket",
		Header: []string{"top buckets", "fraction of buckets", "share of workload"},
	}
	n := len(counts)
	for _, frac := range []float64{0.01, 0.02, 0.05, 0.10, 0.20, 0.50, 1.00} {
		k := int(frac * float64(n))
		if k < 1 {
			k = 1
		}
		if k > n {
			k = n
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", k), pct(frac), pct(cum[k-1])})
	}
	rank50 := stats.RankForShare(counts, 0.5)
	t.Notes = append(t.Notes,
		fmt.Sprintf("50%% of the workload sits in the top %d buckets = %s of all buckets (paper: 2%%)",
			rank50, pct(float64(rank50)/float64(n))),
		fmt.Sprintf("%d of %d buckets receive any workload", nonEmpty, n))
	return t
}

// AlgoResult is one scheduling algorithm's measured performance.
type AlgoResult struct {
	Name       string
	Throughput float64
	Resp       stats.Summary
	Stats      core.RunStats
}

// runAlgorithms executes the Figure 7 algorithm sweep under the given
// arrival offsets.
func runAlgorithms(env *Env, offs []time.Duration) ([]AlgoResult, error) {
	var out []AlgoResult
	add := func(name string, res []core.Result, stats core.RunStats, err error) error {
		if err != nil {
			return fmt.Errorf("exper: %s: %w", name, err)
		}
		out = append(out, AlgoResult{Name: name, Throughput: stats.Throughput(), Resp: respSummary(res), Stats: stats})
		return nil
	}
	res, stats, err := core.RunNoShare(env.Config(0), env.Jobs, offs)
	if err := add("NoShare", res, stats, err); err != nil {
		return nil, err
	}
	for _, alpha := range []float64{1.0, 0.75, 0.5, 0.25, 0.0} {
		res, stats, err := core.Run(env.Config(alpha), env.Jobs, offs)
		if err := add(fmt.Sprintf("LifeRaft α=%.2f", alpha), res, stats, err); err != nil {
			return nil, err
		}
	}
	cfgRR := env.Config(0)
	cfgRR.Policy = core.PolicyRoundRobin
	res, stats, err = core.Run(cfgRR, env.Jobs, offs)
	if err := add("RR", res, stats, err); err != nil {
		return nil, err
	}
	return out, nil
}

// Fig7 regenerates Figure 7: query throughput (a) and response time (b)
// across scheduling algorithms under a saturated arrival stream. The paper
// reports >2x throughput for the greedy scheduler over NoShare, RR on par
// with α=1, NoShare's response time worst of all, and greedy response time
// roughly twice the purely age-based scheduler's.
func Fig7(env *Env) (Table, error) {
	algos, err := runAlgorithms(env, env.SaturatedOffsets())
	if err != nil {
		return Table{}, err
	}
	baseResp := algos[0].Resp.Mean // NoShare
	t := Table{
		Title: "Figure 7: performance by scheduling algorithm",
		Header: []string{"algorithm", "throughput (q/s)", "mean resp (s)",
			"resp / NoShare", "resp CoV"},
	}
	var noShare, greedy float64
	for _, a := range algos {
		norm := 0.0
		if baseResp > 0 {
			norm = a.Resp.Mean / baseResp
		}
		t.Rows = append(t.Rows, []string{
			a.Name, f3(a.Throughput), f2(a.Resp.Mean), f2(norm), f2(a.Resp.CoV),
		})
		switch a.Name {
		case "NoShare":
			noShare = a.Throughput
		case "LifeRaft α=0.00":
			greedy = a.Throughput
		}
	}
	if noShare > 0 {
		t.Notes = append(t.Notes,
			fmt.Sprintf("greedy / NoShare throughput = %.2fx (paper: >2x)", greedy/noShare))
	}
	return t, nil
}

// GridPoint is one (saturation, α) cell of the Figure 8 sweep.
type GridPoint struct {
	Saturation float64 // queries/sec
	Alpha      float64
	Throughput float64
	RespMean   float64
}

// Fig8Grid sweeps arrival rate × age bias. Rates are chosen as the same
// fractions of system capacity the paper's 0.1–0.5 q/s represent relative
// to its ~0.4 q/s maximum, so the sweep transfers across scales.
func Fig8Grid(env *Env) ([]GridPoint, error) {
	capacity, err := env.Capacity()
	if err != nil {
		return nil, err
	}
	fractions := []float64{0.25, 0.33, 0.42, 0.62, 1.25} // = paper's 0.1..0.5 over 0.4
	alphas := []float64{0, 0.25, 0.5, 0.75, 1.0}
	var grid []GridPoint
	for _, f := range fractions {
		rate := f * capacity
		offs := env.PoissonOffsets(rate)
		for _, a := range alphas {
			res, stats, err := core.Run(env.Config(a), env.Jobs, offs)
			if err != nil {
				return nil, err
			}
			grid = append(grid, GridPoint{
				Saturation: rate, Alpha: a,
				Throughput: stats.Throughput(), RespMean: respSummary(res).Mean,
			})
		}
	}
	return grid, nil
}

// Fig8 regenerates Figure 8: throughput (a) and response time (b) versus
// workload saturation for each α. The paper's findings: the throughput gap
// across α widens with saturation, while the response-time gap stays
// comparatively flat; raising α is progressively more attractive at lower
// saturation.
func Fig8(env *Env) (Table, []GridPoint, error) {
	grid, err := Fig8Grid(env)
	if err != nil {
		return Table{}, nil, err
	}
	t := Table{
		Title:  "Figure 8: parameter selection by workload saturation",
		Header: []string{"saturation (q/s)", "alpha", "throughput (q/s)", "mean resp (s)"},
	}
	for _, p := range grid {
		t.Rows = append(t.Rows, []string{f3(p.Saturation), f2(p.Alpha), f3(p.Throughput), f2(p.RespMean)})
	}
	// The §5.2 trade-off observation: moving α 0→1 at the lowest
	// saturation costs little throughput but cuts response time a lot.
	lo := grid[:5]
	dropT := 1 - lo[4].Throughput/lo[0].Throughput
	dropR := 1 - lo[4].RespMean/lo[0].RespMean
	t.Notes = append(t.Notes, fmt.Sprintf(
		"at the lowest saturation, α 0→1 sacrifices %s throughput for a %s response-time cut (paper: 7%% for 54%%)",
		pct(dropT), pct(dropR)))
	return t, grid, nil
}

// Fig4 regenerates Figure 4: normalized throughput/response trade-off
// curves at low and high saturation, and the α each curve selects under a
// 20% throughput tolerance (paper: α=1.0 at low saturation, α=0.25 at
// high).
func Fig4(env *Env, grid []GridPoint) (Table, error) {
	if grid == nil {
		var err error
		grid, err = Fig8Grid(env)
		if err != nil {
			return Table{}, err
		}
	}
	sats := map[float64]stats.Curve{}
	var ordered []float64
	for _, p := range grid {
		if _, ok := sats[p.Saturation]; !ok {
			ordered = append(ordered, p.Saturation)
		}
		sats[p.Saturation] = append(sats[p.Saturation], stats.TradeoffPoint{
			Alpha: p.Alpha, Throughput: p.Throughput, RespTime: p.RespMean,
		})
	}
	if len(ordered) < 2 {
		return Table{}, fmt.Errorf("exper: grid has %d saturations, need >= 2", len(ordered))
	}
	low, high := ordered[0], ordered[len(ordered)-1]
	t := Table{
		Title:  "Figure 4: trade-off curves by saturation (normalized)",
		Header: []string{"saturation", "alpha", "norm throughput", "norm resp"},
	}
	for _, s := range []float64{low, high} {
		label := "low"
		if s == high {
			label = "high"
		}
		for _, p := range sats[s].Normalized() {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%s (%.3f q/s)", label, s), f2(p.Alpha), f2(p.Throughput), f2(p.RespTime),
			})
		}
		if pick, err := sats[s].PickAlpha(0.20); err == nil {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%s saturation, 20%% tolerance selects α=%.2f (paper: %s)",
				label, pick.Alpha, map[string]string{"low": "1.0", "high": "0.25"}[label]))
		}
	}
	return t, nil
}

// IndexOnlyExp reproduces the §5 remark that SkyQuery's index-only
// evaluation is about seven times slower than even NoShare.
func IndexOnlyExp(env *Env) (Table, error) {
	offs := env.SaturatedOffsets()
	_, ns, err := core.RunNoShare(env.Config(0), env.Jobs, offs)
	if err != nil {
		return Table{}, err
	}
	_, io, err := core.RunIndexOnly(env.Config(0), env.Jobs, offs)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  "§5: index-only evaluation vs NoShare",
		Header: []string{"approach", "throughput (q/s)", "slowdown vs NoShare"},
		Rows: [][]string{
			{"NoShare", f3(ns.Throughput()), "1.00"},
			{"IndexOnly", f3(io.Throughput()), f2(ns.Throughput() / io.Throughput())},
		},
		Notes: []string{"paper: the index-exclusive approach is ~7x slower than NoShare"},
	}
	return t, nil
}

// CacheHitRates reproduces the §6 observation: 40% of requests serviced
// from the cache at α=0 versus 7% at α=1.
func CacheHitRates(env *Env) (Table, error) {
	offs := env.SaturatedOffsets()
	t := Table{
		Title:  "§6: cache service rate by age bias",
		Header: []string{"alpha", "cache hit rate", "bucket reads"},
	}
	for _, alpha := range []float64{0, 0.25, 0.5, 0.75, 1} {
		_, stats, err := core.Run(env.Config(alpha), env.Jobs, offs)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			f2(alpha), pct(stats.Cache.HitRate()), fmt.Sprintf("%d", stats.Disk.SeqReads),
		})
	}
	t.Notes = append(t.Notes, "paper: 40% of requests serviced from cache at α=0, 7% at α=1")
	return t, nil
}
