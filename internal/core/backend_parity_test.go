package core

import (
	"reflect"
	"testing"
	"time"

	"liferaft/internal/bucket"
	"liferaft/internal/disk"
	"liferaft/internal/segment"
	"liferaft/internal/simclock"
)

// Backend parity: the golden workload traces replayed through the
// simulated disk and through the real-I/O file backend must make
// bit-identical scheduling decisions and return bit-identical results —
// same bucket-service sequence, same per-batch completions (down to the
// materialized match pairs, which proves the segment encoding
// round-trips objects exactly), same I/O and cache counters. Clocks are
// excluded from the comparison: the file backend runs on real time.
//
// The replay admits the whole trace up front (batch mode). With every
// arrival at the same instant, each queue's age is the same
// elapsed-since-start and the Eq. 2 normalization divides it away, so
// the scheduler's decisions are a function of queue state alone — the
// property that makes decision-level parity well-defined across a
// virtual and a real clock.

// parityModel is the SkyQuery model with every duration scaled down
// 1000x: identical cost *ratios* (the inputs to every scheduling
// decision and the hybrid strategy choice), but the file engine's real
// sleeps for still-modeled costs (Tm, spills) total milliseconds
// instead of minutes.
func parityModel() disk.Model {
	return disk.Model{
		AvgSeek:    8 * time.Microsecond,
		ShortSeek:  2 * time.Microsecond,
		RotLatency: 4 * time.Microsecond,
		ShortRot:   1700 * time.Nanosecond,
		SeqMBps:    33670,
		PageSize:   8 << 10,
		MatchCost:  130 * time.Nanosecond,
	}
}

// parityFixture re-partitions the golden catalog with a 64-byte object
// stride (the golden partition's 4 KiB stride would make a 123 MB test
// directory) and writes its segment store under t's temp dir, so the
// store lives exactly as long as the test (and its subtests) using it.
func parityFixture(t *testing.T) (*bucket.Partition, string, []Job, []Job) {
	t.Helper()
	_, hotJobs, uniJobs := goldenFixture(t)
	part, err := bucket.NewPartition(goldenLocal, 150, 64) // 200 buckets
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := segment.Write(dir, part, segment.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	return part, dir, hotJobs, uniJobs
}

type parityCase struct {
	name        string
	policy      PolicyKind
	alpha       float64
	gamma       float64
	memCap      int
	uniform     bool
	materialize bool
}

func TestBackendParity(t *testing.T) {
	part, dir, hotJobs, uniJobs := parityFixture(t)
	cases := []parityCase{
		{name: "liferaft-hot", policy: PolicyLifeRaft, alpha: 0.5},
		{name: "liferaft-greedy-uniform", policy: PolicyLifeRaft, alpha: 0, uniform: true},
		{name: "liferaft-fifo-qos", policy: PolicyLifeRaft, alpha: 1, gamma: 2},
		{name: "liferaft-spill", policy: PolicyLifeRaft, alpha: 0.5, memCap: 200},
		{name: "liferaft-materialize", policy: PolicyLifeRaft, alpha: 0.5, materialize: true},
		{name: "rr-uniform", policy: PolicyRoundRobin, uniform: true},
		{name: "lsf-hot", policy: PolicyLeastShared},
	}
	for _, pc := range cases {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			jobs := hotJobs
			if pc.uniform {
				jobs = uniJobs
			}
			replayBackends(t, part, dir, pc, jobs)
		})
	}
	t.Run("sharded", func(t *testing.T) { shardedParity(t, part, dir, hotJobs) })
}

// mkSimParity builds the simulated-backend engine on a virtual clock.
func mkSimParity(t *testing.T, part *bucket.Partition, pc parityCase) (Config, *scheduler) {
	t.Helper()
	clk := simclock.NewVirtual()
	d := disk.New(parityModel(), clk)
	cfg := Config{
		Store:                bucket.NewStore(part, d, pc.materialize),
		Disk:                 d,
		Clock:                clk,
		Policy:               pc.policy,
		Alpha:                pc.alpha,
		CacheBuckets:         20,
		MaterializeResults:   pc.materialize,
		AgeDepreciationGamma: pc.gamma,
		WorkloadMemoryCap:    pc.memCap,
	}
	s, err := newScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, s
}

// mkFileParity builds the file-backend engine on the real clock over
// the segment store under dir.
func mkFileParity(t *testing.T, part *bucket.Partition, dir string, pc parityCase) (Config, *scheduler) {
	t.Helper()
	set, err := segment.OpenSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { set.Close() })
	if err := set.Validate(part); err != nil {
		t.Fatal(err)
	}
	clk := simclock.Real{}
	d := disk.New(parityModel(), clk)
	st := bucket.NewStore(part, d, pc.materialize).WithBackend(segment.NewBackend(set, pc.materialize))
	cfg := Config{
		Store:                st,
		Disk:                 d,
		Clock:                clk,
		Policy:               pc.policy,
		Alpha:                pc.alpha,
		CacheBuckets:         20,
		MaterializeResults:   pc.materialize,
		AgeDepreciationGamma: pc.gamma,
		WorkloadMemoryCap:    pc.memCap,
	}
	s, err := newScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, s
}

// stripTimes zeroes the clock-dependent Result fields so batches
// compare across a virtual and a real clock.
func stripTimes(rs []Result) []Result {
	out := append([]Result(nil), rs...)
	for i := range out {
		out[i].Arrived = time.Time{}
		out[i].Completed = time.Time{}
	}
	sortResults(out)
	return out
}

// stripStatTimes zeroes the clock-dependent RunStats fields.
func stripStatTimes(st RunStats) RunStats {
	st.Makespan = 0
	st.Disk.BusyTime = 0
	return st
}

func replayBackends(t *testing.T, part *bucket.Partition, dir string, pc parityCase, jobs []Job) {
	t.Helper()
	cfgA, sim := mkSimParity(t, part, pc)
	cfgB, file := mkFileParity(t, part, dir, pc)

	// Batch admission: the whole trace arrives before the first service.
	startA, startB := cfgA.Clock.Now(), cfgB.Clock.Now()
	for _, j := range jobs {
		rA := sim.admit(j, startA)
		rB := file.admit(j, startB)
		if (rA == nil) != (rB == nil) {
			t.Fatalf("admit(%d): sim done=%v file done=%v", j.ID, rA != nil, rB != nil)
		}
	}

	// Between admission and the first pick the virtual clock has not
	// moved, so every age would be exactly zero on the simulated side
	// only (real time always advances a little) and the age term would
	// degenerate to a tie there. Nudge the virtual clock so both
	// engines see positive ages, which the Eq. 2 normalization then
	// cancels identically.
	cfgA.Clock.Sleep(time.Millisecond)

	steps, completed := 0, 0
	for sim.pendingWork() || file.pendingWork() {
		if sim.pendingWork() != file.pendingWork() {
			t.Fatalf("step %d: pendingWork diverged", steps)
		}
		pA, okA := sim.pick(cfgA.Clock.Now())
		pB, okB := file.pick(cfgB.Clock.Now())
		if pA != pB || okA != okB {
			t.Fatalf("step %d: pick diverged: sim (%d,%v) vs file (%d,%v)", steps, pA, okA, pB, okB)
		}
		doneA := stripTimes(sim.serviceBucket(pA, cfgA.Clock.Now()))
		doneB := stripTimes(file.serviceBucket(pB, cfgB.Clock.Now()))
		if !reflect.DeepEqual(doneA, doneB) {
			t.Fatalf("step %d (bucket %d): completions diverged:\nsim:  %+v\nfile: %+v", steps, pA, doneA, doneB)
		}
		completed += len(doneA)
		steps++
	}
	if steps == 0 {
		t.Fatal("trace produced no bucket services; fixture too small")
	}
	if pc.memCap > 0 && sim.stats.SpilledObjects == 0 {
		t.Error("spill cap set but the trace never spilled; tighten the cap")
	}
	if pc.materialize && sim.stats.ScanServices == 0 {
		t.Error("materializing case never scanned a bucket")
	}

	stA := stripStatTimes(sim.finalize(cfgA.Clock.Now().Sub(startA), completed))
	stB := stripStatTimes(file.finalize(cfgB.Clock.Now().Sub(startB), completed))
	if !reflect.DeepEqual(stA, stB) {
		t.Fatalf("RunStats diverged after %d services (clock fields excluded):\nsim:  %+v\nfile: %+v", steps, stA, stB)
	}
	if stB.Disk.SeqBytes == 0 && stB.Disk.Probes == 0 {
		t.Error("file backend performed no I/O at all")
	}
}

// shardedParity proves the file backend composes with the sharded
// engine: per-shard segment sets, merged results identical to the
// simulated sharded run (order excluded — completion order across
// shards is a property of the clocks).
func shardedParity(t *testing.T, part *bucket.Partition, dir string, hotJobs []Job) {
	offsets := make([]time.Duration, len(hotJobs))

	simClk := simclock.NewVirtual()
	simDisk := disk.New(parityModel(), simClk)
	simCfg := Config{
		Store: bucket.NewStore(part, simDisk, false), Disk: simDisk, Clock: simClk,
		Alpha: 0.5, CacheBuckets: 20, Shards: 4,
	}
	simRes, simStats, err := Run(simCfg, hotJobs, offsets)
	if err != nil {
		t.Fatal(err)
	}

	set, err := segment.OpenSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	fileDisk := disk.New(parityModel(), simclock.Real{})
	fileCfg := Config{
		Store: bucket.NewStore(part, fileDisk, false).WithBackend(segment.NewBackend(set, false)),
		Disk:  fileDisk, Clock: simclock.Real{},
		Alpha: 0.5, CacheBuckets: 20, Shards: 4,
	}
	fileRes, fileStats, err := Run(fileCfg, hotJobs, offsets)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(stripTimes(simRes), stripTimes(fileRes)) {
		t.Fatal("sharded results diverged between backends")
	}
	type counters struct {
		Served, Scans, Indexes int64
		SeqReads, SeqBytes     int64
		Probes, Matches        int64
	}
	count := func(st RunStats) counters {
		return counters{st.BucketsServed, st.ScanServices, st.IndexServices,
			st.Disk.SeqReads, st.Disk.SeqBytes, st.Disk.Probes, st.Disk.Matches}
	}
	if count(simStats) != count(fileStats) {
		t.Fatalf("sharded counters diverged:\nsim:  %+v\nfile: %+v", count(simStats), count(fileStats))
	}
}
