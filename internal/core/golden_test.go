package core

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"sort"
	"sync"
	"testing"
	"time"

	"liferaft/internal/bucket"
	"liferaft/internal/catalog"
	"liferaft/internal/geom"
	"liferaft/internal/simclock"
	"liferaft/internal/workload"
)

// Golden schedules: a full workload trace replayed through the scheduler
// must reproduce, for every policy, with QoS weights, a spill cap and
// mid-trace cancels, the schedule recorded in goldenSchedules — the
// bucket-service sequence, every step's completions, the final RunStats,
// the end clock and the internal work counters. The digests were recorded
// while an incremental index and the exhaustive scans still ran side by
// side and agreed bit for bit, so they pin the decisions every ablation
// figure was produced with. The spill and round-robin cases then ran under
// 2Q and CLOCK; they were re-recorded on the LRU before those policies
// were deleted, with the same picks and completions.

var (
	goldenOnce    sync.Once
	goldenLocal   *catalog.Catalog // the local archive; the backend parity test re-partitions it
	goldenPart    *bucket.Partition
	goldenHotJobs []Job
	goldenUniJobs []Job
)

func goldenFixture(t *testing.T) (*bucket.Partition, []Job, []Job) {
	t.Helper()
	goldenOnce.Do(func() {
		local, err := catalog.New(catalog.Config{
			Name: "gold-sdss", N: 30000, Seed: 11, GenLevel: 4, CacheTrixels: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		goldenLocal = local
		remote, err := catalog.NewDerived(local, catalog.DerivedConfig{
			Name: "gold-2mass", Seed: 12, Fraction: 0.8,
			JitterRad: geom.ArcsecToRad(1.5), CacheTrixels: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		goldenPart, err = bucket.NewPartition(local, 150, 0) // 200 buckets
		if err != nil {
			t.Fatal(err)
		}
		mkJobs := func(cfg workload.TraceConfig) []Job {
			tr, err := workload.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			jobs := make([]Job, 0, len(tr.Queries))
			for _, q := range tr.Queries {
				jobs = append(jobs, Job{
					ID:      q.ID,
					Objects: workload.Materialize(q, remote, cfg.Seed),
					Pred:    q.Predicate(),
				})
			}
			return jobs
		}
		hot := workload.DefaultTraceConfig(13)
		hot.NumQueries = 70
		hot.MinSelectivity, hot.MaxSelectivity = 0.2, 1.0
		goldenHotJobs = mkJobs(hot)

		uni := hot
		uni.Seed = 14
		uni.HotFraction = 0 // no hotspots: uniform sky coverage
		goldenUniJobs = mkJobs(uni)
	})
	return goldenPart, goldenHotJobs, goldenUniJobs
}

type goldenCase struct {
	name      string
	policy    PolicyKind
	alpha     float64
	gamma     float64
	memCap    int
	uniform   bool
	arrivalMS int  // uniform inter-arrival in milliseconds
	cancels   bool // withdraw every 5th query mid-trace
}

// goldenSchedule is one case's recorded replay: the number of bucket
// services and a digest each of the pick sequence, the completions (step,
// query, completion instant, matches, assignments, cancelled) and the final
// state (every field of RunStats, end clock, memObjects, pendingItems).
type goldenSchedule struct {
	services                  int
	picks, completions, final string
}

// goldenSchedules holds each case's recorded replay. A change that means
// to alter the virtual schedule re-records them from the failure message.
var goldenSchedules = map[string]goldenSchedule{
	"liferaft-hot":             {services: 276, picks: "6e25a5ed8665b9a94558085c", completions: "9a231acc428ab02c8513d21d", final: "e998c0d1e3468e6d4d94cd51"},
	"liferaft-uniform-cancels": {services: 225, picks: "16a8b0b08478a5410603eb04", completions: "a2dd056c96515004fc525ed6", final: "526e263a1dfb3e470a09fce7"},
	"liferaft-greedy-uniform":  {services: 261, picks: "41dc4e306da1aabf85d06267", completions: "e5a54f8c4a7052e6eaa9495d", final: "b9961c173239a7193b048ec4"},
	"liferaft-fifo-hot":        {services: 268, picks: "1db72dd3059eaa20928c744f", completions: "e4b97831bf415bfdf9b46608", final: "3293a88c2aa937c99b24e22b"},
	"liferaft-qos":             {services: 245, picks: "ed3a380ad1be273a7a115c06", completions: "0f81f30028570ae7e9299f34", final: "1ce54c446806c71e71294604"},
	"liferaft-spill":           {services: 82, picks: "53db390fb96ae121f00e85f1", completions: "892feec64768a50a86fa888a", final: "6a576b8178cf0ab21e6c26a8"},
	"rr-uniform-cancels":       {services: 223, picks: "0e0ab0f9e965fd989fb5871f", completions: "73d76ba46aac9a032226f09a", final: "2c070e231755f9c05c47561b"},
	"lsf-hot-cancels":          {services: 237, picks: "f19cd0777ef52655f5a19b4a", completions: "bca76466825b2fe18e863c49", final: "e0c898e25d7c93da985cf90c"},
}

func TestGoldenEquivalence(t *testing.T) {
	part, hotJobs, uniJobs := goldenFixture(t)
	cases := []goldenCase{
		{name: "liferaft-hot", policy: PolicyLifeRaft, alpha: 0.5, arrivalMS: 100},
		{name: "liferaft-uniform-cancels", policy: PolicyLifeRaft, alpha: 0.5,
			uniform: true, arrivalMS: 100, cancels: true},
		{name: "liferaft-greedy-uniform", policy: PolicyLifeRaft, alpha: 0,
			uniform: true, arrivalMS: 250},
		{name: "liferaft-fifo-hot", policy: PolicyLifeRaft, alpha: 1, arrivalMS: 100},
		{name: "liferaft-qos", policy: PolicyLifeRaft, alpha: 0.5, gamma: 2,
			arrivalMS: 100, cancels: true},
		{name: "liferaft-spill", policy: PolicyLifeRaft, alpha: 0.5,
			memCap: 200, arrivalMS: 5, cancels: true},
		{name: "rr-uniform-cancels", policy: PolicyRoundRobin,
			uniform: true, arrivalMS: 100, cancels: true},
		{name: "lsf-hot-cancels", policy: PolicyLeastShared, arrivalMS: 100, cancels: true},
	}
	for _, gc := range cases {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			jobs := hotJobs
			if gc.uniform {
				jobs = uniJobs
			}
			got := replayGolden(t, part, gc, jobs)
			if want := goldenSchedules[gc.name]; got != want {
				t.Errorf("schedule differs from the recorded one:\n got: %#v\nwant: %#v", got, want)
			}
		})
	}
}

// replayGolden drives one scheduler through the case's trace on a virtual
// clock — arrivals at fixed intervals, every 5th query cancelled two
// services after its admission when the case says so — and returns the
// digests of what it did.
func replayGolden(t *testing.T, part *bucket.Partition, gc goldenCase, jobs []Job) goldenSchedule {
	t.Helper()
	cfg, _ := NewVirtual(part, gc.alpha, false)
	cfg.Policy = gc.policy
	cfg.AgeDepreciationGamma = gc.gamma
	cfg.WorkloadMemoryCap = gc.memCap
	s, err := newScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}

	cancelTargets := make(map[uint64]bool)
	if gc.cancels {
		for i, j := range jobs {
			if i%5 == 2 {
				cancelTargets[j.ID] = true
			}
		}
	}
	type cancelAt struct {
		step int
		qid  uint64
	}
	var cancels []cancelAt

	start := cfg.Clock.Now()
	var events simclock.EventQueue[Job]
	for i, j := range jobs {
		events.Push(start.Add(time.Duration(i*gc.arrivalMS)*time.Millisecond), j)
	}

	picks, comps := sha256.New(), sha256.New()
	// Completion order within one service batch follows map iteration;
	// each step's completions are digested sorted by query.
	record := func(h hash.Hash, step int, rs []Result) {
		sortResults(rs)
		for _, r := range rs {
			fmt.Fprintf(h, "%d %d %d %d %d %t\n", step, r.QueryID,
				r.Completed.UnixNano(), r.Matches, r.Assignments, r.Cancelled)
		}
	}
	completed, steps, nextCancel := 0, 0, 0
	for {
		now := cfg.Clock.Now()
		for _, ev := range events.PopUntil(now) {
			if r := s.admit(ev.Value, ev.At); r != nil {
				record(comps, steps, []Result{*r})
			}
			if cancelTargets[ev.Value.ID] {
				cancels = append(cancels, cancelAt{step: steps + 2, qid: ev.Value.ID})
			}
		}
		for nextCancel < len(cancels) && cancels[nextCancel].step <= steps {
			if r := s.cancel(cancels[nextCancel].qid, now); r != nil {
				record(comps, steps, []Result{*r})
			}
			nextCancel++
		}
		if !s.pendingWork() {
			at, ok := events.PeekTime()
			if !ok {
				break // drained
			}
			cfg.Clock.Sleep(at.Sub(now))
			continue
		}
		p, ok := s.pick(now)
		if !ok {
			t.Fatalf("step %d: pending work but no pick", steps)
		}
		fmt.Fprintf(picks, "%d\n", p)
		done := s.serviceBucket(p, now)
		completed += len(done)
		record(comps, steps, done)
		steps++
	}
	if steps == 0 {
		t.Fatal("trace produced no bucket services; fixture too small")
	}
	if gc.memCap > 0 && s.stats.SpilledObjects == 0 {
		t.Error("spill cap set but the trace never spilled; tighten the cap")
	}
	if gc.cancels && s.stats.Cancelled == 0 {
		t.Error("cancels scheduled but none landed in-flight; adjust the schedule")
	}
	end := cfg.Clock.Now()
	final := sha256.New()
	// RunStats' String method prints a summary; the converted type has
	// none, so %#v prints every field, nested disk and cache stats included.
	type plainStats RunStats
	fmt.Fprintf(final, "%#v\n%d %d %d\n", plainStats(s.finalize(end.Sub(start), completed)),
		end.UnixNano(), s.memObjects, s.pendingItems)
	sum := func(h hash.Hash) string { return fmt.Sprintf("%x", h.Sum(nil)[:12]) }
	return goldenSchedule{services: steps, picks: sum(picks), completions: sum(comps), final: sum(final)}
}

func sortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].QueryID < rs[j].QueryID })
}
