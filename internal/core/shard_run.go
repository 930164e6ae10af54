package core

import (
	"fmt"
	"sort"
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
// The replay runs through the serving engine itself (Live): each job is
// fanned out as SubmitCtx fans it out, but instead of the shards' inboxes
// its shares go onto their arrival queues, due at start + offsets[i], and
// only then do the K = max(1, cfg.Shards) shard workers start. Each worker
// admits its arrivals when its own clock reaches them and idles its clock
// to the next one when it has nothing pending; Run then closes the engine
// and collects every query's merged result. One shard owning every bucket
// is the paper's single-disk engine.
//
// On a virtual parent clock each shard charges costs to its own forked
// clock, so K shards replaying the same work finish in ~1/K the virtual
// time instead of serializing on one modeled disk, and no service is split
// across shards (see newLive), so the replay is deterministic at every K;
// the parent clock ends at the latest shard finish, since every worker
// moves it up to its own clock after each step. On the real clock the
// shard workers genuinely run in parallel.
func Run(cfg Config, jobs []Job, offsets []time.Duration) ([]Result, RunStats, error) {
	cfg, err := checkReplay(cfg, jobs, offsets)
	if err != nil {
		return nil, RunStats{}, err
	}
	l, scheds, err := newLive(cfg)
	if err != nil {
		return nil, RunStats{}, err
	}
	start := l.clock.Now()
	var results []Result
	var merges []*merge
	inFlight := make(map[uint64]bool, len(jobs))
	for i, j := range jobs {
		at := start.Add(offsets[i])
		m, width := l.newMerge(j)
		if width == 0 {
			// No bucket overlaps anywhere: complete on arrival.
			results = append(results, Result{QueryID: j.ID, Arrived: at, Completed: at})
			continue
		}
		if inFlight[j.ID] {
			closeForked(l.cfgs)
			return nil, RunStats{}, fmt.Errorf("core: query %d already in flight", j.ID)
		}
		inFlight[j.ID] = true
		merges = append(merges, m)
		for s := range m.parts {
			if m.parts[s].share > 0 {
				l.workers[s].arrivals.Push(at, submission{job: m.job(j, s), m: m})
			}
		}
	}
	l.start(scheds)
	l.Close()
	for _, m := range merges {
		results = append(results, <-m.out)
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
	stats, _ := l.Stats()
	stats.Completed = len(results)
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
		st, err := cfg.Store.Fork(cfg.Store.Disk().Fork(simclock.Fork(cfg.clock())))
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
