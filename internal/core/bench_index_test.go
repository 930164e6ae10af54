package core

import (
	"fmt"
	"testing"
	"time"

	"liferaft/internal/bucket"
	"liferaft/internal/disk"
	"liferaft/internal/geom"
	"liferaft/internal/metric"
	"liferaft/internal/segment"
	"liferaft/internal/simclock"
	"liferaft/internal/xmatch"
)

// Benchmarks for the incremental scheduler index, at B ∈ {1k, 10k, 100k}
// active buckets: BenchmarkPick compares the indexed threshold-algorithm
// pick against the exhaustive-scan baseline (both in-tree), and
// BenchmarkStep measures the full service loop with -benchmem asserting
// the zero-alloc steady state. These are the only pick/step probes in the
// tree: CI's bench smoke logs them, and nothing re-measures them elsewhere.

var benchBs = []int{1_000, 10_000, 100_000}

// populateQueues fills B bucket queues with varied lengths and ages so
// picks exercise realistic key diversity (uniform queues would tie).
func populateQueues(s *scheduler, bkts int) {
	base := s.cfg.Clock.Now()
	qs := &queryState{result: Result{QueryID: 1, Arrived: base}, arrived: base}
	// Sentinel work unit: the benchmark query must survive every service
	// even if one bucket briefly holds all remaining work.
	qs.remaining = 1
	s.queries[1] = qs
	for bi := 0; bi < bkts; bi++ {
		n := 1 + bi%7
		at := base.Add(time.Duration(bi%977) * time.Millisecond)
		for k := 0; k < n; k++ {
			s.pushItem(bi, item{
				wo:        xmatch.WorkloadObject{QueryID: 1},
				arrived:   at,
				ageWeight: 1,
			})
			qs.buckets = append(qs.buckets, bi)
			qs.remaining++
		}
	}
}

func BenchmarkPick(b *testing.B) {
	for _, bkts := range benchBs {
		s := syntheticScheduler(b, bkts, PolicyLifeRaft, 0.5)
		populateQueues(s, bkts)
		now := s.cfg.Clock.Now().Add(time.Hour)
		b.Run(fmt.Sprintf("indexed/B=%d", bkts), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := s.pickLifeRaftIndexed(now); !ok {
					b.Fatal("no pick")
				}
			}
		})
		b.Run(fmt.Sprintf("scan/B=%d", bkts), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := s.pickLifeRaftScan(now); !ok {
					b.Fatal("no pick")
				}
			}
		})
	}
}

// stepSteadyState services one bucket and refills it, keeping the number
// of active queues constant — the scheduler's steady-state regime.
func stepSteadyState(tb testing.TB, s *scheduler) {
	now := s.cfg.Clock.Now()
	bi, ok := s.pick(now)
	if !ok {
		tb.Fatal("no pending work")
	}
	n := len(s.queues[bi].items)
	s.serviceBucket(bi, now)
	qs := s.queries[1]
	for k := 0; k < n; k++ {
		s.pushItem(bi, item{
			wo:        xmatch.WorkloadObject{QueryID: 1},
			arrived:   now,
			ageWeight: 1,
		})
		qs.remaining++
	}
}

func BenchmarkStep(b *testing.B) {
	for _, bkts := range benchBs {
		b.Run(fmt.Sprintf("B=%d", bkts), func(b *testing.B) {
			s := syntheticScheduler(b, bkts, PolicyLifeRaft, 0.5)
			populateQueues(s, bkts)
			for i := 0; i < 64; i++ { // warm scratch and pools
				stepSteadyState(b, s)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stepSteadyState(b, s)
			}
		})
	}
}

// forEachMetrics runs body as subtests metrics=off (em nil) and metrics=on
// (em registered on a fresh registry), for body to set as Config.Metrics.
func forEachMetrics(t *testing.T, body func(t *testing.T, em *EngineMetrics)) {
	t.Run("metrics=off", func(t *testing.T) { body(t, nil) })
	t.Run("metrics=on", func(t *testing.T) { body(t, NewEngineMetrics(metric.NewRegistry())) })
}

// stepPicked runs one pass of the service loop through step, its entry
// point — with Config.Metrics set, the pick-latency and disk-ledger
// observations live there — and returns the bucket it serviced with that
// bucket's work as it was queued, copied into buf. The bucket is the one a
// pick just before chooses: a pick changes no queue.
func stepPicked(tb testing.TB, s *scheduler, buf []item) (int, []item) {
	now := s.cfg.Clock.Now()
	bi, ok := s.pick(now)
	if !ok {
		tb.Fatal("no pending work")
	}
	buf = append(buf[:0], s.queues[bi].items...)
	if _, ok := s.step(now); !ok || s.queues[bi] != nil {
		tb.Fatalf("step did not service bucket %d, the one pick chose", bi)
	}
	return bi, buf
}

// TestStepServiceLoopZeroAlloc asserts the -benchmem claim directly: a
// steady-state service iteration (pick, join-evaluate, retire, refill)
// allocates nothing once scratch and pools are warm, with and without the
// engine's metric handles.
func TestStepServiceLoopZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	forEachMetrics(t, func(t *testing.T, em *EngineMetrics) {
		cfg, _ := NewVirtual(syntheticPartition(t, 10_000), 0.5, false)
		cfg.Metrics = em
		s, err := newScheduler(cfg)
		if err != nil {
			t.Fatal(err)
		}
		populateQueues(s, 10_000)
		var buf []item
		step := func() {
			now := s.cfg.Clock.Now()
			var bi int
			bi, buf = stepPicked(t, s, buf)
			for _, it := range buf {
				it.arrived = now // young again, so the pick moves on
				s.pushItem(bi, it)
				s.queries[1].remaining++
			}
		}
		for i := 0; i < 256; i++ {
			step()
		}
		allocs := testing.AllocsPerRun(400, step)
		if allocs != 0 {
			t.Errorf("steady-state step allocates %.2f/op, want 0", allocs)
		}
	})
}

// TestStepServiceLoopZeroAllocMaterializing is the same claim with
// MaterializeResults on: the join runs in the scheduler's Joiner and every
// pair is appended straight to its query's Result.Pairs, so once scratch is
// warm a service allocates nothing but that slice's growth — which the test
// takes out of the picture by handing each query its Pairs capacity back,
// as a completed query hands its own to the caller.
func TestStepServiceLoopZeroAllocMaterializing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	part, jobs := fixture(t)
	forEachMetrics(t, func(t *testing.T, em *EngineMetrics) {
		cfg, _ := NewVirtual(part, 0.5, true)
		cfg.CacheBuckets = part.NumBuckets() // steady state: every bucket read once
		cfg.Metrics = em
		s, err := newScheduler(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Queries that never complete (a sentinel unit each), so their state
		// and Pairs buffers persist across services like populateQueues' do.
		now := s.cfg.Clock.Now()
		for _, j := range jobs[:40] {
			if s.admit(j, now) == nil {
				s.queries[j.ID].remaining++
			}
		}
		var refill []item
		step := func() (matches int) {
			var bi int
			bi, refill = stepPicked(t, s, refill)
			for _, it := range refill {
				qs := s.queries[it.wo.QueryID]
				matches += len(qs.result.Pairs)
				qs.result.Pairs = qs.result.Pairs[:0]
				qs.remaining++
				s.pushItem(bi, it)
			}
			return matches
		}
		for i := 0; i < 4*part.NumBuckets(); i++ {
			step()
		}
		matches := 0
		allocs := testing.AllocsPerRun(400, func() { matches += step() })
		if matches == 0 {
			t.Fatal("the measured services produced no pairs; the fixture no longer materializes anything")
		}
		if allocs != 0 {
			t.Errorf("steady-state materializing step allocates %.2f/op, want 0", allocs)
		}
	})
}

// TestStepServiceLoopZeroAllocEvicting is the materializing claim over a
// real segment store whose buckets do not all fit: the cache holds a quarter
// of them and, at α = 1 with every refill young again, the oldest queue is
// serviced next, so the services cycle through every bucket and each is a
// cold scan that evicts one — and decodes into the array it evicted, so a
// steady-state step still allocates nothing.
func TestStepServiceLoopZeroAllocEvicting(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	part, dir, _, _ := parityFixture(t)
	// Eight units of every bucket — a scan at the default threshold — that
	// are queued on that bucket alone.
	job := Job{ID: 1}
	for b := 0; b < part.NumBuckets(); b++ {
		n := 0
		for _, o := range part.Materialize(b) {
			wo := xmatch.NewWorkloadObject(1, o, geom.ArcsecToRad(5))
			if n < 8 && len(part.BucketsForRanges(wo.Ranges())) == 1 {
				job.Objects = append(job.Objects, wo)
				n++
			}
		}
	}
	forEachMetrics(t, func(t *testing.T, em *EngineMetrics) {
		set, err := segment.OpenSet(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer set.Close()
		clk := simclock.Real{}
		d := disk.New(parityModel(), clk)
		s, err := newScheduler(Config{
			Store: bucket.NewStore(part, d, true).WithBackend(segment.NewBackend(set, true)),
			Disk:  d, Clock: clk, Policy: PolicyLifeRaft, Alpha: 1, CacheBuckets: part.NumBuckets() / 4,
			MaterializeResults: true, Metrics: em,
		})
		if err != nil {
			t.Fatal(err)
		}
		if s.admit(job, clk.Now()) != nil {
			t.Fatal("the job completed at admission")
		}
		qs := s.queries[job.ID]
		qs.remaining++ // a sentinel unit: the query outlives every service
		var refill []item
		step := func() {
			var bi int
			bi, refill = stepPicked(t, s, refill)
			qs.result.Pairs = qs.result.Pairs[:0]
			now := clk.Now()
			for _, it := range refill {
				it.arrived = now
				qs.remaining++
				s.pushItem(bi, it)
			}
		}
		for i := 0; i < 2*part.NumBuckets(); i++ {
			step()
		}
		const runs = 400
		misses, evictions := s.cache.Stats().Misses, s.cache.Stats().Evictions
		allocs := testing.AllocsPerRun(runs, step)
		if st := s.cache.Stats(); st.Misses-misses < runs || st.Evictions-evictions < runs {
			t.Fatalf("%d misses and %d evictions in %d steps: the services are not cold scans", st.Misses-misses, st.Evictions-evictions, runs)
		}
		if allocs != 0 {
			t.Errorf("steady-state evicting step allocates %.2f/op, want 0", allocs)
		}
	})
}
