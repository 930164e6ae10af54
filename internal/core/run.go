package core

import (
	"fmt"
	"sort"
	"time"

	"liferaft/internal/bucket"
	"liferaft/internal/catalog"
	"liferaft/internal/htm"
	"liferaft/internal/xmatch"
)

// RunNoShare is the paper's NoShare baseline: each query is evaluated
// independently and strictly in arrival order, sharing no I/O with other
// queries (§5: "NoShare, which evaluates each query independently (no I/O
// is shared) and in arrival order"). Each query still gets the hybrid join
// strategy for its own per-bucket workloads, keyed and read as the
// engine's services are (Store.Scan, Store.Probe), but no bucket cache
// persists across queries: a scanned bucket goes back to the store
// (Store.Recycle) once joined.
func RunNoShare(cfg Config, jobs []Job, offsets []time.Duration) ([]Result, RunStats, error) {
	cfg, err := checkReplay(cfg, jobs, offsets)
	if err != nil {
		return nil, RunStats{}, err
	}
	part, clk := cfg.Store.Partition(), cfg.clock()
	start := clk.Now()
	var results []Result
	var stats RunStats
	var keys []htm.Range
	var join xmatch.Joiner
	for _, i := range arrivalOrder(offsets) {
		job, arrive := jobs[i], start.Add(offsets[i])
		// Queries are picked up in arrival order; idle until this one
		// arrives if the previous ones finished early.
		if now := clk.Now(); arrive.After(now) {
			clk.Sleep(arrive.Sub(now))
		}
		res := Result{QueryID: job.ID, Arrived: arrive}

		// Group the query's own objects by bucket.
		byBucket := make(map[int][]xmatch.WorkloadObject)
		for _, wo := range job.Objects {
			for _, bi := range part.AppendBucketsReached(nil, wo.Range(), wo.Cap()) {
				byBucket[bi] = append(byBucket[bi], wo)
				res.Assignments++
			}
		}
		var preds map[uint64]xmatch.Predicate
		if job.Pred != nil {
			preds = map[uint64]xmatch.Predicate{job.ID: job.Pred}
		}
		for _, bi := range sortedKeys(byBucket) {
			wos := byBucket[bi]
			span := part.Bucket(bi).Span
			keys = keys[:0]
			for _, wo := range wos {
				keys = append(keys, wo.RangeIn(span))
			}
			var r *bucket.Resident
			var runs [][]catalog.Object
			if xmatch.ChooseStrategy(len(wos), part.Bucket(bi).Count(), cfg.HybridThreshold, false) == xmatch.Scan {
				r, runs, _ = cfg.Store.Scan(bi, nil, keys)
				stats.ScanServices++
			} else {
				runs, _ = cfg.Store.Probe(bi, keys)
				stats.IndexServices++
			}
			cfg.Store.Disk().MatchObjects(len(wos))
			stats.BucketsServed++
			if cfg.Store.Materializing() {
				pairs := join.Merge(runs, wos, preds)
				res.Pairs = append(res.Pairs, pairs...)
				res.Matches += len(pairs)
			}
			if r != nil {
				cfg.Store.Recycle(r)
			}
		}
		res.Completed = clk.Now()
		results = append(results, res)
	}
	stats.Completed = len(results)
	stats.Makespan = clk.Now().Sub(start)
	stats.Disk = cfg.Store.Disk().Stats()
	return results, stats, nil
}

// RunIndexOnly models SkyQuery's pre-LifeRaft approach: every cross-match
// object is resolved through a repeated spatial-index access — an isolated
// random page read per object, with none of the sorted-probe locality the
// hybrid join gets — in arrival order, with no scans and no batching. The
// paper reports this is ~7x slower than even NoShare.
func RunIndexOnly(cfg Config, jobs []Job, offsets []time.Duration) ([]Result, RunStats, error) {
	cfg, err := checkReplay(cfg, jobs, offsets)
	if err != nil {
		return nil, RunStats{}, err
	}
	part, clk, d := cfg.Store.Partition(), cfg.clock(), cfg.Store.Disk()
	start := clk.Now()
	var results []Result
	var stats RunStats
	for _, i := range arrivalOrder(offsets) {
		job, arrive := jobs[i], start.Add(offsets[i])
		if now := clk.Now(); arrive.After(now) {
			clk.Sleep(arrive.Sub(now))
		}
		res := Result{QueryID: job.ID, Arrived: arrive, Assignments: len(job.Objects)}
		const pagesPerProbe = 1
		d.ReadRandom(pagesPerProbe * len(job.Objects))
		d.MatchObjects(len(job.Objects))
		if cfg.Store.Materializing() {
			var preds map[uint64]xmatch.Predicate
			if job.Pred != nil {
				preds = map[uint64]xmatch.Predicate{job.ID: job.Pred}
			}
			byBucket := make(map[int][]xmatch.WorkloadObject)
			for _, wo := range job.Objects {
				for _, bi := range part.AppendBucketsReached(nil, wo.Range(), wo.Cap()) {
					byBucket[bi] = append(byBucket[bi], wo)
				}
			}
			for _, bi := range sortedKeys(byBucket) {
				pairs := xmatch.IndexJoin(part.Materialize(bi), byBucket[bi], preds)
				res.Pairs = append(res.Pairs, pairs...)
				res.Matches += len(pairs)
			}
		}
		res.Completed = clk.Now()
		results = append(results, res)
	}
	stats.Completed = len(results)
	stats.Makespan = clk.Now().Sub(start)
	stats.Disk = d.Stats()
	return results, stats, nil
}

// checkReplay is the argument check of every trace driver (Run, RunNoShare,
// RunIndexOnly): one offset per job, none negative — a query cannot arrive
// before the run starts. It returns cfg with its defaults filled in.
func checkReplay(cfg Config, jobs []Job, offsets []time.Duration) (Config, error) {
	if len(jobs) != len(offsets) {
		return cfg, fmt.Errorf("core: %d jobs but %d offsets", len(jobs), len(offsets))
	}
	for i, off := range offsets {
		if off < 0 {
			return cfg, fmt.Errorf("core: negative offset for job %d", i)
		}
	}
	return cfg.withDefaults()
}

// arrivalOrder returns job indices sorted by offset (stable).
func arrivalOrder(offsets []time.Duration) []int {
	order := make([]int, len(offsets))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return offsets[order[a]] < offsets[order[b]] })
	return order
}

func sortedKeys(m map[int][]xmatch.WorkloadObject) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}
