package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"liferaft/internal/bucket"
	"liferaft/internal/cache/disktier"
	"liferaft/internal/catalog"
	"liferaft/internal/core"
	"liferaft/internal/geom"
	"liferaft/internal/segment"
	"liferaft/internal/xmatch"
)

// The tiered scenario's store geometry. The working set (every bucket)
// must dwarf the RAM tier (20 buckets) so the qps phases measure the
// disk tier, not the in-RAM cache, and buckets must be large enough
// (8 MiB) that the segment read — alloc + pread + CRC per scan —
// dominates the per-service floor (the modeled 0.13 ms match charge
// sleeps on the real clock, and time.Sleep's practical resolution is
// ~1 ms). Groups are kept at 2 buckets (16 MiB fills) so demand
// promotion has a meaningfully coarse granule to lose against: the
// prefetcher's lead time covers a fill, a demand miss's does not.
const (
	tieredObjects     = 786_432
	tieredSeed        = 42
	tieredGenLevel    = 4
	tieredPerBucket   = 16_384
	tieredObjectBytes = 512
	tieredGroupSize   = 2
	tieredTierBytes   = 768 << 20
	tieredDepth       = 12
	tieredInflight    = 8
	// tieredForceScan pushes the hybrid break-even ratio to ~zero so
	// every service is a sequential scan: the scenario measures bucket
	// read cost, and index probes would let small services dodge it.
	tieredForceScan = 1e-9
	// tieredBatchLoad is the per-bucket workload depth of the hit-rate
	// trace: ~500 objects per bucket keeps each service busy matching
	// (500 x Tm = 65 ms) so background promotion has wall-clock room to
	// land. A 16 MiB group fill takes on the order of a service, so
	// demand promotion — issued only once a groupmate is already being
	// serviced — can never beat the first touch of a group (its hit
	// rate is structurally capped at 1 - groups/buckets = 0.5 here),
	// while the prefetcher's multi-service lead can: the race it is
	// supposed to win.
	tieredBatchLoad = 500
)

// tieredSnapshot is the BENCH_8.json payload: the cold/warm/prefetch
// tiered-cache scenario against the real-I/O segment store, with the two
// figures the CI bench smoke gates on (qps_speedup, hit_rate_lift).
type tieredSnapshot struct {
	snapshotHeader
	DataDir         string  `json:"data_dir"`
	Buckets         int     `json:"buckets"`
	Groups          int     `json:"groups"`
	StoreMB         float64 `json:"store_mb"`
	RAMCacheBuckets int     `json:"ram_cache_buckets"`
	// QPSBase is the PR 4 single-tier baseline (best of 3): the untiered
	// file backend paying a full segment read per scan. QPSWarm is the
	// same trace against a warm disk tier with prefetch on (best of 3).
	QPSBase    float64 `json:"qps_base"`
	QPSWarm    float64 `json:"qps_warm"`
	QPSSpeedup float64 `json:"qps_speedup"`
	// HitRateTierOnly/HitRatePrefetch are cold-start fast-tier hit
	// rates on the batch trace: demand promotion alone vs the
	// schedule-driven prefetcher. Lift is their difference.
	HitRateTierOnly float64 `json:"hit_rate_tier_only"`
	HitRatePrefetch float64 `json:"hit_rate_prefetch"`
	HitRateLift     float64 `json:"hit_rate_lift"`
	// Tier-internal counters for the three tiered phases.
	ColdDemandStats   disktier.Stats `json:"cold_demand_tier_stats"`
	ColdPrefetchStats disktier.Stats `json:"cold_prefetch_tier_stats"`
	WarmStats         disktier.Stats `json:"warm_tier_stats"`
}

// runTiered measures the tiered-cache scenario and writes BENCH_8.json
// to path. Phases: (A) untiered baseline qps on a one-object-per-bucket
// scan trace; (B) cold disk tier, demand promotion only, hit rate on
// the batch trace; (C) cold disk tier with the Eq.-2-driven prefetcher,
// hit rate on the same trace; (D) the tier directory C warmed, reopened
// (warm restart), qps on the scan trace. Gates: D >= 2x A and C >= B +
// 0.05. (That the service loop allocates nothing and that tiering left
// the virtual schedule alone are tier-1 tests: internal/core's
// TestStepServiceLoopZeroAlloc and internal/exper's
// TestCISaturatedVQPSMatchesRecorded.)
func runTiered(path, dataDir string) error {
	snap := tieredSnapshot{snapshotHeader: snapshotHeader{GeneratedBy: "skybench -tiered"}}
	cleanup := func() {}
	if dataDir == "" {
		tmp, err := os.MkdirTemp("", "skybench-tiered-")
		if err != nil {
			return err
		}
		dataDir, cleanup = tmp, func() { os.RemoveAll(tmp) }
	}
	defer cleanup()
	segDir := filepath.Join(dataDir, "segments")
	demandDir := filepath.Join(dataDir, "tier-demand")
	prefetchDir := filepath.Join(dataDir, "tier-prefetch")
	// The segment store persists across invocations (segment.Ensure
	// reuses it); the tier directories are the scenario's subject and
	// must start genuinely cold every time.
	if err := os.RemoveAll(demandDir); err != nil {
		return err
	}
	if err := os.RemoveAll(prefetchDir); err != nil {
		return err
	}

	fmt.Printf("synthesizing catalog (%d objects)...\n", tieredObjects)
	local, err := catalog.New(catalog.Config{
		Name: "sdss", N: tieredObjects, Seed: tieredSeed,
		GenLevel: tieredGenLevel, CacheTrixels: true,
	})
	if err != nil {
		return err
	}
	part, err := bucket.NewPartition(local, tieredPerBucket, tieredObjectBytes)
	if err != nil {
		return err
	}
	buildStart := time.Now()
	set, wst, err := segment.Ensure(segDir, part, segment.WriteOptions{BucketsPerSegment: tieredGroupSize})
	if err != nil {
		return err
	}
	set.Close() // each phase reopens its own set
	if wst.Segments > 0 {
		fmt.Printf("built segment store: %d segments, %.1f MB in %v\n",
			wst.Segments, float64(wst.Bytes)/1e6, time.Since(buildStart).Round(time.Millisecond))
	}
	nb := part.NumBuckets()
	snap.DataDir = dataDir
	snap.Buckets = nb
	snap.Groups = (nb + tieredGroupSize - 1) / tieredGroupSize
	snap.StoreMB = float64(int64(local.Total())*int64(tieredObjectBytes)) / 1e6

	// Two traces over the same store. The scan trace aims one object at
	// (roughly) each bucket: per service the match charge is noise next
	// to the 8 MiB segment read, so qps measures the storage path. The
	// batch trace queues tieredBatchLoad objects per bucket in one job:
	// services spend ~65 ms matching each, so cold-start hit rate
	// measures whether promotion landed ahead of the scheduler.
	total := int64(local.Total())
	radius := geom.ArcsecToRad(1.0)
	scanJobs := make([]core.Job, 0, nb)
	for b := 0; b < nb; b++ {
		ord := (int64(b)*2 + 1) * total / int64(2*nb) // mid-bucket ordinal
		id := uint64(b + 1)
		scanJobs = append(scanJobs, core.Job{
			ID:      id,
			Objects: []xmatch.WorkloadObject{xmatch.NewWorkloadObject(id, local.Objects(ord, ord+1)[0], radius)},
		})
	}
	nBatch := nb * tieredBatchLoad
	batchObjs := make([]xmatch.WorkloadObject, 0, nBatch)
	for k := 0; k < nBatch; k++ {
		ord := int64(k) * total / int64(nBatch)
		batchObjs = append(batchObjs, xmatch.NewWorkloadObject(1, local.Objects(ord, ord+1)[0], radius))
	}
	batchJobs := []core.Job{{ID: 1, Objects: batchObjs}}

	openUntiered := func() (core.Config, error) {
		s, err := segment.OpenSet(segDir)
		if err != nil {
			return core.Config{}, err
		}
		cfg, err := core.NewFileBackedFrom(part, 0.5, false, s)
		if err != nil {
			return core.Config{}, err
		}
		cfg.HybridThreshold = tieredForceScan
		return cfg, nil
	}
	// runTier replays jobs through a tiered engine over tierDir and
	// returns the tier's counters for the run (fresh per open) and qps.
	runTier := func(tierDir string, depth int, jobs []core.Job) (disktier.Stats, float64, error) {
		s, err := segment.OpenSet(segDir)
		if err != nil {
			return disktier.Stats{}, 0, err
		}
		cfg, err := core.NewFileBackedTieredFrom(part, 0.5, false, s, core.TierOptions{
			Dir: tierDir, CapacityBytes: tieredTierBytes,
			PrefetchDepth: depth, PrefetchInflight: tieredInflight,
		})
		if err != nil {
			return disktier.Stats{}, 0, err
		}
		cfg.HybridThreshold = tieredForceScan
		tb := cfg.Store.Backend().(*segment.TieredBackend)
		offsets := make([]time.Duration, len(jobs))
		_, stats, err := core.Run(cfg, jobs, offsets)
		if err != nil {
			cfg.Store.Close()
			return disktier.Stats{}, 0, err
		}
		tb.Tier().WaitIdle()
		ts := tb.Tier().Stats()
		if err := cfg.Store.Close(); err != nil {
			return disktier.Stats{}, 0, err
		}
		return ts, stats.Throughput(), nil
	}
	hitRate := func(s disktier.Stats) float64 {
		if s.Hits+s.Misses == 0 {
			return 0
		}
		return float64(s.Hits) / float64(s.Hits+s.Misses)
	}

	// runPass replays jobs once through an already-built engine (a fresh
	// scheduler per pass, the store and its backend shared), returning
	// qps.
	runPass := func(cfg core.Config, jobs []core.Job) (float64, error) {
		offsets := make([]time.Duration, len(jobs))
		_, stats, err := core.Run(cfg, jobs, offsets)
		if err != nil {
			return 0, err
		}
		return stats.Throughput(), nil
	}

	// Phase A: the single-tier baseline at steady state — one warmup
	// pass (OS page cache), then best of 3. The untiered backend repays
	// alloc + pread + CRC on every scan no matter how warm it is; that
	// recurring per-read cost is exactly what the tier amortizes.
	{
		cfg, err := openUntiered()
		if err != nil {
			return err
		}
		snap.RAMCacheBuckets = cfg.CacheBuckets
		if _, err := runPass(cfg, scanJobs); err != nil {
			cfg.Store.Close()
			return err
		}
		for i := 0; i < 3; i++ {
			qps, err := runPass(cfg, scanJobs)
			if err != nil {
				cfg.Store.Close()
				return err
			}
			if qps > snap.QPSBase {
				snap.QPSBase = qps
			}
		}
		if err := cfg.Store.Close(); err != nil {
			return err
		}
	}
	if nb <= snap.RAMCacheBuckets {
		return fmt.Errorf("tiered scenario degenerate: %d buckets fit the %d-bucket RAM tier", nb, snap.RAMCacheBuckets)
	}
	fmt.Printf("baseline (untiered, %d buckets > %d-bucket RAM tier): %.1f qps\n",
		nb, snap.RAMCacheBuckets, snap.QPSBase)

	// Phase B: cold tier, demand promotion only.
	dStats, _, err := runTier(demandDir, 0, batchJobs)
	if err != nil {
		return err
	}
	snap.ColdDemandStats = dStats
	snap.HitRateTierOnly = hitRate(dStats)
	fmt.Printf("cold tier, demand only: hit rate %.3f (%d hits / %d misses, %d fills)\n",
		snap.HitRateTierOnly, dStats.Hits, dStats.Misses, dStats.Fills)

	// Phase C: cold tier with the schedule-driven prefetcher.
	pStats, _, err := runTier(prefetchDir, tieredDepth, batchJobs)
	if err != nil {
		return err
	}
	snap.ColdPrefetchStats = pStats
	snap.HitRatePrefetch = hitRate(pStats)
	snap.HitRateLift = snap.HitRatePrefetch - snap.HitRateTierOnly
	fmt.Printf("cold tier, prefetch depth %d: hit rate %.3f (%d prefetches issued, %d scored, %d wasted)\n",
		tieredDepth, snap.HitRatePrefetch, pStats.PrefetchIssued, pStats.PrefetchHits, pStats.PrefetchWasted)

	// Phase D: warm restart of C's tier directory, steady state — the
	// warmup pass remaps and checksum-revalidates every restored entry
	// (the once-per-restart cost), then best of 3 measures hits served
	// from the resident mappings.
	{
		s, err := segment.OpenSet(segDir)
		if err != nil {
			return err
		}
		cfg, err := core.NewFileBackedTieredFrom(part, 0.5, false, s, core.TierOptions{
			Dir: prefetchDir, CapacityBytes: tieredTierBytes,
			PrefetchDepth: tieredDepth, PrefetchInflight: tieredInflight,
		})
		if err != nil {
			return err
		}
		cfg.HybridThreshold = tieredForceScan
		tb := cfg.Store.Backend().(*segment.TieredBackend)
		if _, err := runPass(cfg, scanJobs); err != nil {
			cfg.Store.Close()
			return err
		}
		for i := 0; i < 3; i++ {
			qps, err := runPass(cfg, scanJobs)
			if err != nil {
				cfg.Store.Close()
				return err
			}
			if qps > snap.QPSWarm {
				snap.QPSWarm = qps
			}
		}
		tb.Tier().WaitIdle()
		snap.WarmStats = tb.Tier().Stats()
		if err := cfg.Store.Close(); err != nil {
			return err
		}
	}
	snap.QPSSpeedup = snap.QPSWarm / snap.QPSBase
	fmt.Printf("warm tier + prefetch: %.1f qps (%.2fx baseline, warm hit rate %.3f)\n",
		snap.QPSWarm, snap.QPSSpeedup, hitRate(snap.WarmStats))

	if err := writeSnapshot(path, snap); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)

	var failed []string
	if snap.QPSSpeedup < 2 {
		failed = append(failed, fmt.Sprintf("warm qps speedup %.2fx below the 2x bar (%.1f vs %.1f baseline)",
			snap.QPSSpeedup, snap.QPSWarm, snap.QPSBase))
	}
	if snap.HitRateLift < 0.05 {
		failed = append(failed, fmt.Sprintf("prefetch hit-rate lift %.3f below the 0.05 bar (%.3f vs %.3f demand-only)",
			snap.HitRateLift, snap.HitRatePrefetch, snap.HitRateTierOnly))
	}
	if len(failed) > 0 {
		for _, f := range failed {
			fmt.Fprintf(os.Stderr, "GATE FAILED: %s\n", f)
		}
		return fmt.Errorf("%d tiered-cache perf gate(s) failed", len(failed))
	}
	return nil
}
