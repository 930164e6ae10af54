package core

import (
	"reflect"
	"testing"

	"liferaft/internal/bucket"
	"liferaft/internal/cache/disktier"
	"liferaft/internal/disk"
	"liferaft/internal/segment"
	"liferaft/internal/simclock"
)

// mkTieredParity builds a file-backend engine whose store is wrapped in
// the disk cache tier (and, when depth > 0, scheduler prefetch), on the
// scaled parity cost model.
func mkTieredParity(t *testing.T, part *bucket.Partition, dir, tierDir string, pc parityCase, depth int) (Config, *scheduler) {
	t.Helper()
	set, err := segment.OpenSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Validate(part); err != nil {
		t.Fatal(err)
	}
	tier, err := disktier.Open(disktier.Config{Dir: tierDir, CapacityBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	clk := simclock.Real{}
	d := disk.New(parityModel(), clk)
	backend := segment.NewTieredBackend(set, tier, pc.materialize)
	t.Cleanup(func() { backend.Close() })
	cfg := Config{
		Store:                bucket.NewStore(part, d, pc.materialize).WithBackend(backend),
		Disk:                 d,
		Clock:                clk,
		Policy:               pc.policy,
		Alpha:                pc.alpha,
		CacheBuckets:         20,
		MaterializeResults:   pc.materialize,
		AgeDepreciationGamma: pc.gamma,
		WorkloadMemoryCap:    pc.memCap,
		PrefetchDepth:        depth,
	}
	s, err := newScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, s
}

// replayTieredParity steps a plain file engine and a tiered file engine
// in lockstep over the same jobs, demanding bit-identical picks and
// completions — the contract that tiering (cold or warm, with or
// without prefetch) changes where bytes are read from, never what the
// scheduler decides or what a query gets back.
func replayTieredParity(t *testing.T, part *bucket.Partition, dir, tierDir string, pc parityCase, depth int, jobs []Job) {
	t.Helper()
	cfgA, plain := mkFileParity(t, part, dir, pc)
	cfgB, tiered := mkTieredParity(t, part, dir, tierDir, pc, depth)

	startA, startB := cfgA.Clock.Now(), cfgB.Clock.Now()
	for _, j := range jobs {
		rA := plain.admit(j, startA)
		rB := tiered.admit(j, startB)
		if (rA == nil) != (rB == nil) {
			t.Fatalf("admit(%d): plain done=%v tiered done=%v", j.ID, rA != nil, rB != nil)
		}
	}
	steps, completed := 0, 0
	for plain.pendingWork() || tiered.pendingWork() {
		if plain.pendingWork() != tiered.pendingWork() {
			t.Fatalf("step %d: pendingWork diverged", steps)
		}
		pA, okA := plain.pick(cfgA.Clock.Now())
		pB, okB := tiered.pick(cfgB.Clock.Now())
		if pA != pB || okA != okB {
			t.Fatalf("step %d: pick diverged: plain (%d,%v) vs tiered (%d,%v)", steps, pA, okA, pB, okB)
		}
		if tiered.pre != nil {
			tiered.prefetchUpcoming(pB)
		}
		doneA := stripTimes(plain.serviceBucket(pA, cfgA.Clock.Now()))
		doneB := stripTimes(tiered.serviceBucket(pB, cfgB.Clock.Now()))
		if !reflect.DeepEqual(doneA, doneB) {
			t.Fatalf("step %d (bucket %d): completions diverged:\nplain:  %+v\ntiered: %+v", steps, pA, doneA, doneB)
		}
		completed += len(doneA)
		steps++
	}
	stA := stripStatTimes(plain.finalize(cfgA.Clock.Now().Sub(startA), completed))
	stB := stripStatTimes(tiered.finalize(cfgB.Clock.Now().Sub(startB), completed))
	if !reflect.DeepEqual(stA, stB) {
		t.Fatalf("RunStats diverged after %d services (clock fields excluded):\nplain:  %+v\ntiered: %+v", steps, stA, stB)
	}
}

// TestTieredParity replays the golden hot trace against the tiered
// backend three ways: cold tier without prefetch, cold tier with
// prefetch, then (reusing the now-warm tier directory, as a restarted
// node would) warm tier with prefetch. Every variant must schedule and
// answer bit-identically to the plain file backend.
func TestTieredParity(t *testing.T) {
	part, dir, hotJobs, _ := parityFixture(t)
	pc := parityCase{policy: PolicyLifeRaft, alpha: 0.5, materialize: true}

	tierDir := t.TempDir()
	t.Run("cold-demand", func(t *testing.T) {
		replayTieredParity(t, part, dir, t.TempDir(), pc, 0, hotJobs)
	})
	t.Run("cold-prefetch", func(t *testing.T) {
		replayTieredParity(t, part, dir, tierDir, pc, 4, hotJobs)
	})
	t.Run("warm-prefetch", func(t *testing.T) {
		replayTieredParity(t, part, dir, tierDir, pc, 4, hotJobs)
	})
}

// TestTieredPrefetchPromotes proves the scheduler's prefetch hook
// actually lands groups in the disk tier: replaying with PrefetchDepth
// set must record prefetch issues, and by the end of a full replay the
// tier holds entries without any demand misses necessarily paying for
// them first.
func TestTieredPrefetchPromotes(t *testing.T) {
	part, dir, hotJobs, _ := parityFixture(t)
	pc := parityCase{policy: PolicyLifeRaft, alpha: 0.5}
	cfg, s := mkTieredParity(t, part, dir, t.TempDir(), pc, 8)

	start := cfg.Clock.Now()
	for _, j := range hotJobs {
		s.admit(j, start)
	}
	for s.pendingWork() {
		if _, ok := s.step(cfg.Clock.Now()); !ok {
			break
		}
	}
	tb := cfg.Store.Backend().(*segment.TieredBackend)
	tb.Tier().WaitIdle()
	st := tb.Tier().Stats()
	if st.PrefetchIssued == 0 {
		t.Fatal("a full replay with PrefetchDepth=8 issued no prefetches")
	}
	if st.Fills == 0 {
		t.Fatal("no tier fills landed during the replay")
	}
	if st.Entries == 0 {
		t.Fatal("tier is empty after the replay")
	}
}

// TestPrefetchConfigValidation: the knob requires a prefetch-capable
// backend and rejects nonsense.
func TestPrefetchConfigValidation(t *testing.T) {
	part, _, _, _ := parityFixture(t)
	cfg, _ := mkSimParity(t, part, parityCase{policy: PolicyLifeRaft, alpha: 0.5})
	cfg.PrefetchDepth = 4
	if _, err := newScheduler(cfg); err == nil {
		t.Fatal("PrefetchDepth accepted on a sim backend with no Prefetcher")
	}
	cfg.PrefetchDepth = -1
	if _, err := newScheduler(cfg); err == nil {
		t.Fatal("negative PrefetchDepth accepted")
	}
}
