package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"liferaft/internal/shard"
	"liferaft/internal/simclock"
)

// Run replays a query trace through the LifeRaft (or round-robin) engine:
// jobs[i] arrives at offsets[i] after the start of the run. It returns one
// Result per job, in completion order, plus aggregate statistics. With a
// virtual clock this is the discrete-event simulation used by every
// experiment; with a real clock it blocks for the actual durations.
//
// The bucket space is dealt round-robin across K = max(1, cfg.Shards)
// shards (shard.Map); each shard gets its own forked clock, disk,
// bucket cache, and workload queues, and a worker goroutine per shard
// (runEngine) services that shard's local aged-workload-throughput
// schedule. Run hands each job to the shards owning the buckets its
// workload objects overlap (the job's own object list, shared, with each
// shard's share count; see fanIn), tracks per-query completion across shards
// (a query completes when its last shard does), and merges
// per-shard RunStats into one aggregate with a PerShard breakdown. One
// shard owning every bucket is the paper's single-disk engine.
//
// On a virtual parent clock each shard charges costs to its own forked
// clock, so K shards replaying the same work finish in ~1/K the virtual
// time instead of serializing on one modeled disk; the parent clock is
// advanced to the latest shard finish before returning. On the real clock
// the shard workers genuinely run in parallel.
func Run(cfg Config, jobs []Job, offsets []time.Duration) ([]Result, RunStats, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, RunStats{}, err
	}
	if len(jobs) != len(offsets) {
		return nil, RunStats{}, fmt.Errorf("core: %d jobs but %d offsets", len(jobs), len(offsets))
	}
	for i, off := range offsets {
		if off < 0 {
			return nil, RunStats{}, fmt.Errorf("core: negative offset for job %d", i)
		}
	}
	k := cfg.Shards
	m, err := shard.NewMap(cfg.Store.Partition(), k)
	if err != nil {
		return nil, RunStats{}, err
	}
	start := cfg.Clock.Now()
	shardCfgs, err := forkConfigs(cfg, m)
	if err != nil {
		return nil, RunStats{}, err
	}
	defer closeForked(shardCfgs)

	// Fan the jobs out: each shard replays the sub-trace of jobs that
	// have work on it, at the original arrival offsets. partial holds one
	// entry per in-flight query: its fan-in and how many shards have yet
	// to report.
	type pending struct {
		fanIn
		remaining int
	}
	partial := make(map[uint64]*pending)
	subJobs := make([][]Job, k)
	subOffs := make([][]time.Duration, k)
	var results []Result
	for i, j := range jobs {
		f, width := newFanIn(m.Fanout(j.Objects), cfg.MaterializeResults)
		if width == 0 {
			// No bucket overlaps anywhere: complete on arrival.
			at := start.Add(offsets[i])
			results = append(results, Result{QueryID: j.ID, Arrived: at, Completed: at})
			continue
		}
		if _, dup := partial[j.ID]; dup {
			return nil, RunStats{}, fmt.Errorf("shard: query %d already in flight", j.ID)
		}
		partial[j.ID] = &pending{fanIn: f, remaining: width}
		for s := range f.parts {
			if f.parts[s].share == 0 {
				continue
			}
			subJobs[s] = append(subJobs[s], f.job(j, s))
			subOffs[s] = append(subOffs[s], offsets[i])
		}
	}

	// One worker per shard.
	type shardOut struct {
		res   []Result
		stats RunStats
		err   error
	}
	outs := make([]shardOut, k)
	var wg sync.WaitGroup
	for s := 0; s < k; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			res, stats, err := runEngine(shardCfgs[s], subJobs[s], subOffs[s])
			outs[s] = shardOut{res: res, stats: stats, err: err}
		}(s)
	}
	wg.Wait()
	for s := 0; s < k; s++ {
		if outs[s].err != nil {
			return nil, RunStats{}, fmt.Errorf("core: shard %d: %w", s, outs[s].err)
		}
	}

	// Merge per-query results (fanIn.result: completion the latest
	// shard's, counts summed, pairs in shard order). A query is done when
	// its last shard has reported.
	for s := 0; s < k; s++ {
		for _, r := range outs[s].res {
			fi := partial[r.QueryID]
			if fi == nil || fi.parts[s].share == 0 {
				return nil, RunStats{}, fmt.Errorf("core: shard %d completed query %d, which was never fanned out to it", s, r.QueryID)
			}
			fi.parts[s].res = r
			if fi.remaining--; fi.remaining == 0 {
				results = append(results, fi.result())
				delete(partial, r.QueryID)
			}
		}
	}
	if len(partial) != 0 {
		return nil, RunStats{}, fmt.Errorf("core: %d queries never completed across shards", len(partial))
	}
	// Results are returned in completion order across shards (ties
	// broken by arrival, then query ID, for determinism).
	sort.SliceStable(results, func(a, b int) bool {
		ra, rb := results[a], results[b]
		if !ra.Completed.Equal(rb.Completed) {
			return ra.Completed.Before(rb.Completed)
		}
		if !ra.Arrived.Equal(rb.Arrived) {
			return ra.Arrived.Before(rb.Arrived)
		}
		return ra.QueryID < rb.QueryID
	})

	stats := mergeShardStats(m, func(s int) (RunStats, int) { return outs[s].stats, len(subJobs[s]) })
	stats.Completed = len(results)
	// The parent clock adopts the latest shard clock: the sharded
	// makespan is the slowest shard's, not the sum.
	simclock.Join(cfg.Clock, start.Add(stats.Makespan))
	return results, stats, nil
}

// forkConfigs builds the per-shard engine configs: each shard forks the
// parent clock (independent virtual time) and the template disk, rebinds
// the store to its own disk, gets its own bucket cache (newScheduler
// constructs it per config), and admits only the buckets it owns. A
// file-backed store is forked per shard too — every shard opens its own
// segment set, so concurrent shard scans never share file descriptors.
// The caller owns the forked stores and must close them (closeForked)
// when the shard engines are done.
func forkConfigs(cfg Config, m *shard.Map) ([]Config, error) {
	shardCfgs := make([]Config, m.Shards())
	for s := 0; s < m.Shards(); s++ {
		s := s
		sc := cfg
		sc.Shards = 1
		sc.Clock = simclock.Fork(cfg.Clock)
		sc.Disk = cfg.Disk.Fork(sc.Clock)
		st, err := cfg.Store.Fork(sc.Disk)
		if err != nil {
			closeForked(shardCfgs[:s])
			return nil, fmt.Errorf("core: forking store for shard %d: %w", s, err)
		}
		sc.Store = st
		sc.ownsBucket = func(b int) bool { return m.Owner(b) == s }
		sc.shardIndex = s
		shardCfgs[s] = sc
	}
	return shardCfgs, nil
}

// closeForked releases the per-shard forked stores (segment sets opened
// by forkConfigs); the template store stays with its owner.
func closeForked(shardCfgs []Config) {
	for _, sc := range shardCfgs {
		if sc.Store != nil {
			sc.Store.Close()
		}
	}
}

// mergeShardStats merges per-shard statistics into the aggregate view:
// counters sum, disk and cache stats sum, and Makespan is the latest
// shard finish. Completed is left for the caller (it counts merged
// queries, not per-shard completions).
func mergeShardStats(m *shard.Map, get func(s int) (RunStats, int)) RunStats {
	var agg RunStats
	agg.PerShard = make([]ShardStats, m.Shards())
	for s := 0; s < m.Shards(); s++ {
		st, jobs := get(s)
		agg.PerShard[s] = ShardStats{Shard: s, Buckets: m.Buckets(s), Jobs: jobs, Stats: st}
		agg.BucketsServed += st.BucketsServed
		agg.ScanServices += st.ScanServices
		agg.IndexServices += st.IndexServices
		agg.SpilledObjects += st.SpilledObjects
		agg.SpillFetches += st.SpillFetches
		// Per-shard cancellation counts can overstate the merged view (one
		// query cancelled on several shards); the sharded Live engine
		// overwrites Cancelled with the merged query count after this.
		agg.Cancelled += st.Cancelled
		agg.CancelledObjects += st.CancelledObjects
		agg.Disk = agg.Disk.Add(st.Disk)
		agg.Cache = agg.Cache.Add(st.Cache)
		if st.Makespan > agg.Makespan {
			agg.Makespan = st.Makespan
		}
	}
	return agg
}
