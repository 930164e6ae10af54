package server

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"liferaft/internal/bucket"
	"liferaft/internal/catalog"
	"liferaft/internal/core"
	"liferaft/internal/geom"
	"liferaft/internal/workload"
	"liferaft/internal/xmatch"
)

// The acceptance geometry: a 32-bucket partition served by a 4-shard
// virtual-clock engine, one steady tenant next to one saturating-bursty
// tenant.
var (
	ltOnce   sync.Once
	ltPart   *bucket.Partition
	ltSteady []core.Job
	ltBursty []core.Job
)

func loadFixture(t *testing.T) (*bucket.Partition, []core.Job, []core.Job) {
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
		ltPart, err = bucket.NewPartition(local, 400, 0) // 32 buckets
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
		// The steady tenant issues small queries; the bursty tenant's are
		// larger and numerous — the flood a shared archive actually sees.
		ltSteady = mkJobs(31, 40, 0.1, 0.3)
		ltBursty = mkJobs(37, 300, 0.5, 1.0)
	})
	return ltPart, ltSteady, ltBursty
}

func newLoadEngine(t *testing.T) *core.Live {
	t.Helper()
	part, _, _ := loadFixture(t)
	cfg, _ := core.NewVirtual(part, 0.5, false)
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
// them solo), submitted through the serving layer.
func runSteadyClosedLoop(t *testing.T, s *Server, jobs []core.Job) {
	t.Helper()
	for _, j := range jobs {
		ch, err := s.Submit(context.Background(), "steady", withID(j))
		if err != nil {
			t.Fatalf("steady submit: %v", err)
		}
		if _, ok := <-ch; !ok {
			t.Fatal("steady query dropped")
		}
	}
}

// TestLoadSteadyTenantBoundedP99 is the acceptance load test: with two
// tenants — one saturating and bursty, one steady — against a 4-shard
// virtual-clock engine, the steady tenant's p99 response time behind
// admission control stays within 2x of its solo-run p99, while submitting
// the same flood directly into the engine (no serving layer) degrades it
// by an order of magnitude.
func TestLoadSteadyTenantBoundedP99(t *testing.T) {
	_, steady, bursty := loadFixture(t)

	serveCfg := Config{
		MaxInFlight: 4,
		Quantum:     32,
		Tenants: []TenantConfig{
			{Name: "steady", Rate: -1},                         // unlimited; it self-paces
			{Name: "bursty", Rate: 2, Burst: 4, QueueDepth: 8}, // its fair share
		},
	}

	// Solo run: the steady tenant alone, through the serving layer.
	solo := newLoadEngine(t)
	sSolo, err := New(solo, serveCfg)
	if err != nil {
		t.Fatal(err)
	}
	runSteadyClosedLoop(t, sSolo, steady)
	soloP99 := sSolo.TenantSummary("steady").P99
	sSolo.Close()
	solo.Close()
	if soloP99 <= 0 {
		t.Fatal("solo p99 is zero; fixture jobs too small")
	}

	// Competitive run with admission control: the bursty tenant floods
	// continuously (open loop, rejects dropped) while the steady tenant
	// runs its closed loop.
	eng := newLoadEngine(t)
	s, err := New(eng, serveCfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	floodDone := make(chan struct{})
	var admitted, rejected int64
	go func() {
		defer close(floodDone)
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			_, err := s.Submit(context.Background(), "bursty", withID(bursty[i%len(bursty)]))
			if err != nil {
				rejected++
				time.Sleep(time.Millisecond) // real-time pause; virtual tokens accrue as the engine works
			} else {
				admitted++
			}
		}
	}()
	runSteadyClosedLoop(t, s, steady)
	close(done)
	<-floodDone
	fairP99 := s.TenantSummary("steady").P99
	burstyStats := s.TenantSummary("bursty")
	s.Close()
	eng.Close()
	if admitted == 0 || rejected == 0 {
		t.Fatalf("flood admitted=%d rejected=%d: not a saturating bursty tenant", admitted, rejected)
	}

	// No serving layer: the flood goes straight into the engine's
	// workload queues. The bursty tenant arrives faster than the engine
	// services, so the backlog — and with it the steady tenant's
	// response time — grows without bound; the test keeps the engine
	// backlogged at every steady submission (pre-load plus top-ups, the
	// steady state of a saturating open-loop arrival process) and checks
	// the steady tenant pays for it.
	raw := newLoadEngine(t)
	next := 0
	flood := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := raw.Submit(withID(bursty[next%len(bursty)])); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	flood(500)
	var rawTimes []float64
	for _, j := range steady {
		ch, err := raw.Submit(withID(j))
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
	raw.Close()
	rawP99 := percentileOf(rawTimes, 0.99)

	t.Logf("steady p99: solo=%.3fs fair=%.3fs raw=%.3fs (fair/solo=%.2fx raw/solo=%.2fx); bursty completed=%d",
		soloP99, fairP99, rawP99, fairP99/soloP99, rawP99/soloP99, burstyStats.Count)

	if fairP99 > 2*soloP99 {
		t.Errorf("steady p99 with admission = %.3fs, more than 2x solo %.3fs", fairP99, soloP99)
	}
	if rawP99 < 4*soloP99 {
		t.Errorf("steady p99 without serving layer = %.3fs, expected heavy degradation vs solo %.3fs", rawP99, soloP99)
	}
	if fairP99 >= rawP99 {
		t.Errorf("admission control did not help: fair %.3fs >= raw %.3fs", fairP99, rawP99)
	}
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
