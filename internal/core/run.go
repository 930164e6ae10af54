package core

import (
	"fmt"
	"sort"
	"time"

	"liferaft/internal/catalog"
	"liferaft/internal/htm"
	"liferaft/internal/xmatch"
)

// RunNoShare is the paper's NoShare baseline: each query is evaluated
// independently and strictly in arrival order, sharing no I/O with other
// queries (§5: "NoShare, which evaluates each query independently (no I/O
// is shared) and in arrival order"). Each query still gets the hybrid join
// strategy for its own per-bucket workloads, but no bucket cache persists
// across queries.
func RunNoShare(cfg Config, jobs []Job, offsets []time.Duration) ([]Result, RunStats, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, RunStats{}, err
	}
	if len(jobs) != len(offsets) {
		return nil, RunStats{}, fmt.Errorf("core: %d jobs but %d offsets", len(jobs), len(offsets))
	}
	part := cfg.Store.Partition()
	start := cfg.Clock.Now()
	var results []Result
	var stats RunStats
	order := arrivalOrder(offsets)
	for _, i := range order {
		job, arrive := jobs[i], start.Add(offsets[i])
		// Queries are picked up in arrival order; idle until this one
		// arrives if the previous ones finished early.
		if now := cfg.Clock.Now(); arrive.After(now) {
			cfg.Clock.Sleep(arrive.Sub(now))
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
			strategy := xmatch.ChooseStrategy(len(wos), part.Bucket(bi).Count(), cfg.HybridThreshold, false)
			var objs []catalog.Object
			switch strategy {
			case xmatch.Scan:
				objs, _ = cfg.Store.ReadBucket(bi)
				stats.ScanServices++
			case xmatch.Index:
				ranges := make([]htm.Range, len(wos))
				for k, wo := range wos {
					ranges[k] = wo.Range()
				}
				objs, _ = cfg.Store.ProbeRanges(bi, ranges)
				stats.IndexServices++
			}
			cfg.Disk.MatchObjects(len(wos))
			stats.BucketsServed++
			if cfg.MaterializeResults {
				pairs := xmatch.MergeJoin(objs, wos, preds)
				res.Pairs = append(res.Pairs, pairs...)
				res.Matches += len(pairs)
			}
		}
		res.Completed = cfg.Clock.Now()
		results = append(results, res)
	}
	stats.Completed = len(results)
	stats.Makespan = cfg.Clock.Now().Sub(start)
	stats.Disk = cfg.Disk.Stats()
	return results, stats, nil
}

// RunIndexOnly models SkyQuery's pre-LifeRaft approach: every cross-match
// object is resolved through a repeated spatial-index access — an isolated
// random page read per object, with none of the sorted-probe locality the
// hybrid join gets — in arrival order, with no scans and no batching. The
// paper reports this is ~7x slower than even NoShare.
func RunIndexOnly(cfg Config, jobs []Job, offsets []time.Duration) ([]Result, RunStats, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, RunStats{}, err
	}
	if len(jobs) != len(offsets) {
		return nil, RunStats{}, fmt.Errorf("core: %d jobs but %d offsets", len(jobs), len(offsets))
	}
	part := cfg.Store.Partition()
	start := cfg.Clock.Now()
	var results []Result
	var stats RunStats
	for _, i := range arrivalOrder(offsets) {
		job, arrive := jobs[i], start.Add(offsets[i])
		if now := cfg.Clock.Now(); arrive.After(now) {
			cfg.Clock.Sleep(arrive.Sub(now))
		}
		res := Result{QueryID: job.ID, Arrived: arrive, Assignments: len(job.Objects)}
		const pagesPerProbe = 1
		cfg.Disk.ReadRandom(pagesPerProbe * len(job.Objects))
		cfg.Disk.MatchObjects(len(job.Objects))
		if cfg.MaterializeResults {
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
		res.Completed = cfg.Clock.Now()
		results = append(results, res)
	}
	stats.Completed = len(results)
	stats.Makespan = cfg.Clock.Now().Sub(start)
	stats.Disk = cfg.Disk.Stats()
	return results, stats, nil
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
