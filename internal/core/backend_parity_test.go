package core

import (
	"reflect"
	"testing"
	"time"

	"liferaft/internal/bucket"
	"liferaft/internal/disk"
	"liferaft/internal/segment"
	"liferaft/internal/simclock"
	"liferaft/internal/xmatch"
)

// Backend parity: the golden workload traces replayed through the
// simulated disk and through the real-I/O file backend must return
// bit-identical answers: the same match pairs for every query, which
// proves the segment encoding round-trips objects exactly.
//
// The two caches do not hold the same things. A simulated entry is a whole
// bucket and a simulated index probe keeps nothing; a file entry weighs
// the granules it holds, and a file store serves every bucket as a
// scan-kind fill that keeps what it read, whatever its queue's length. A
// bucket serviced a second time can therefore be a hit on one backend and
// a miss on the other, and then its φ (Eq. 1), and so the pick, differ.
// The schedules agree only while no pick sees a bucket the two caches
// disagree on. That holds where the simulated store evicts nothing and no
// bucket is revisited after an index service. It holds too, whatever is
// evicted, where no bucket is serviced twice.
//
// Every case of TestBackendParity and the sharded case are batch replays:
// the whole trace is admitted up front and nothing arrives later, so each
// bucket is serviced once. They must make the same bucket-service
// sequence, with the same completions at every step. The file run must
// also end with the simulated run's RunStats mapped onto a file store
// (fileStats): each of the simulated run's index services is a scan there,
// accounted as one sequential read of its bucket instead of its probes.
// Excluded are the clocks (the file backend runs on real time) and the
// cache's Puts and Evictions: the file store also caches what its sparse
// queues read, and evicts by weight. The revisits case admits a second
// round after the first has drained, so buckets are serviced twice and the
// schedules may part; it requires the same answers only.
//
// With every arrival of a batch at the same instant, each queue's age is
// the same elapsed-since-start and the Eq. 2 normalization divides it
// away, so the scheduler's decisions are a function of queue state alone —
// the property that makes decision-level parity well-defined across a
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
	t.Run("revisits", func(t *testing.T) { revisitParity(t, part, dir, hotJobs) })
}

// mkSimParity builds the simulated-backend engine on a virtual clock.
func mkSimParity(t *testing.T, part *bucket.Partition, pc parityCase) (Config, *scheduler) {
	t.Helper()
	clk := simclock.NewVirtual()
	d := disk.New(parityModel(), clk)
	cfg := Config{
		Store:                bucket.NewStore(part, d, pc.materialize),
		Policy:               pc.policy,
		Alpha:                pc.alpha,
		CacheBuckets:         20,
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
		Policy:               pc.policy,
		Alpha:                pc.alpha,
		CacheBuckets:         20,
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

// parityStats zeroes the RunStats fields the backends need not agree on:
// the clock-dependent ones, and the cache's puts and evictions.
func parityStats(st RunStats) RunStats {
	st.Makespan = 0
	st.Disk.BusyTime = 0
	st.Cache.Puts, st.Cache.Evictions = 0, 0
	return st
}

func replayBackends(t *testing.T, part *bucket.Partition, dir string, pc parityCase, jobs []Job) {
	t.Helper()
	cfgA, sim := mkSimParity(t, part, pc)
	cfgB, file := mkFileParity(t, part, dir, pc)

	// Batch admission: the whole trace arrives before the first service.
	startA, startB := cfgA.clock().Now(), cfgB.clock().Now()
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
	cfgA.clock().Sleep(time.Millisecond)

	steps, completed := 0, 0
	for sim.pendingWork() || file.pendingWork() {
		if sim.pendingWork() != file.pendingWork() {
			t.Fatalf("step %d: pendingWork diverged", steps)
		}
		pA, okA := sim.pick(cfgA.clock().Now())
		pB, okB := file.pick(cfgB.clock().Now())
		if pA != pB || okA != okB {
			t.Fatalf("step %d: pick diverged: sim (%d,%v) vs file (%d,%v)", steps, pA, okA, pB, okB)
		}
		doneA := stripTimes(sim.serviceBucket(pA, cfgA.clock().Now()))
		doneB := stripTimes(file.serviceBucket(pB, cfgB.clock().Now()))
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

	stA := parityStats(sim.finalize(cfgA.clock().Now().Sub(startA), completed))
	stB := parityStats(file.finalize(cfgB.clock().Now().Sub(startB), completed))
	if stA.Cache.Hits != 0 {
		t.Fatalf("%d cache hits: a bucket was serviced twice in a batch replay", stA.Cache.Hits)
	}
	if want := fileStats(t, stA, part, jobs, sim.cfg.HybridThreshold); !reflect.DeepEqual(want, stB) {
		t.Fatalf("RunStats diverged after %d services (clock fields excluded):\nsim:  %+v %+v\nwant: %+v %+v\nfile: %+v %+v",
			steps, stA, stA.Disk, want, want.Disk, stB, stB.Disk)
	}
	if stB.Disk.SeqBytes == 0 {
		t.Error("file backend performed no I/O at all")
	}
}

// fileStats maps the RunStats of a simulated batch replay of jobs onto the
// ones a file store's replay of them must end with. Each bucket is
// serviced once, with every unit the trace queues on it, so the buckets
// the simulated store probed are those whose queue is under threshold
// (xmatch.ChooseStrategy). A file store serves each of them as a scan-kind
// fill, accounted as one sequential read of the whole bucket: its scans
// are the simulated scans and index services, it has neither index
// services nor probes, and its sequential reads gain one per probed bucket
// and that bucket's bytes.
func fileStats(t *testing.T, sim RunStats, part *bucket.Partition, jobs []Job, threshold float64) RunStats {
	t.Helper()
	queued := make(map[int]int)
	var reached []int
	for _, j := range jobs {
		for _, wo := range j.Objects {
			reached = part.AppendBucketsReached(reached[:0], wo.Range(), wo.Cap())
			for _, b := range reached {
				queued[b]++
			}
		}
	}
	st := sim
	var probed int64
	for b, n := range queued {
		if xmatch.ChooseStrategy(n, part.Bucket(b).Count(), threshold, false) == xmatch.Index {
			probed++
			st.Disk.SeqBytes += part.BucketBytes(b)
		}
	}
	if probed != sim.IndexServices || probed == 0 {
		t.Fatalf("%d queues under the threshold, %d index services on the simulated store; want them equal and above 0", probed, sim.IndexServices)
	}
	st.ScanServices += st.IndexServices
	st.IndexServices = 0
	st.Disk.Probes = 0
	st.Disk.SeqReads += probed
	return st
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
		Store: bucket.NewStore(part, simDisk, false), Alpha: 0.5, CacheBuckets: 20, Shards: 4,
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
		Alpha: 0.5, CacheBuckets: 20, Shards: 4,
	}
	fileRes, fileRunStats, err := Run(fileCfg, hotJobs, offsets)
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
	want := fileStats(t, simStats, part, hotJobs, xmatch.DefaultThreshold)
	if count(want) != count(fileRunStats) {
		t.Fatalf("sharded counters diverged:\nsim:  %+v\nwant: %+v\nfile: %+v", count(simStats), count(want), count(fileRunStats))
	}
}

// revisitParity replays the hot trace in two batches, the second admitted
// once the first has drained, through both backends. The second batch
// revisits buckets the first left cached, so the schedules may differ;
// every query's pairs may not.
func revisitParity(t *testing.T, part *bucket.Partition, dir string, jobs []Job) {
	pc := parityCase{policy: PolicyLifeRaft, alpha: 0.5, materialize: true}
	cfgA, sim := mkSimParity(t, part, pc)
	cfgB, file := mkFileParity(t, part, dir, pc)
	half := len(jobs) / 2
	answers := func(cfg Config, s *scheduler) map[uint64][]xmatch.Pair {
		out := make(map[uint64][]xmatch.Pair)
		for _, batch := range [][]Job{jobs[:half], jobs[half:]} {
			for _, j := range batch {
				if r := s.admit(j, cfg.clock().Now()); r != nil {
					out[j.ID] = nil
				}
			}
			for s.pendingWork() {
				done, _ := s.step(cfg.clock().Now())
				for _, r := range done {
					pairs := append([]xmatch.Pair(nil), r.Pairs...)
					xmatch.SortPairs(pairs)
					out[r.QueryID] = pairs
				}
			}
		}
		return out
	}
	ansA, ansB := answers(cfgA, sim), answers(cfgB, file)
	if len(ansA) != len(jobs) || !reflect.DeepEqual(ansA, ansB) {
		t.Fatalf("answers diverged: sim answered %d queries, file %d", len(ansA), len(ansB))
	}
	if sim.stats.IndexServices == 0 || file.stats.IndexServices != 0 || file.cache.Stats().Hits == 0 {
		t.Fatalf("%d index services on the simulated store, %d index services and %d cache hits on the file store; some queue must be under the threshold, the file store must scan it, and the second batch must revisit buckets",
			sim.stats.IndexServices, file.stats.IndexServices, file.cache.Stats().Hits)
	}
	t.Logf("%d vs %d services, %d vs %d cache hits (sim vs file)", sim.stats.BucketsServed, file.stats.BucketsServed, sim.cache.Stats().Hits, file.cache.Stats().Hits)
}
