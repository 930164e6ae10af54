// Overload scenario harness: skybench -overload BENCH_19.json drives the
// serving layer through four shapes of trouble — a flash crowd (in both
// adaptive and static rate modes), a diurnal ramp, a slow-loris tenant,
// and a 10,000-tenant churn — against a 4-shard virtual-clock engine, and
// writes a per-scenario SLO verdict for the trajectory file.
//
// The acceptance bar mirrors the serving layer's load test: a steady
// closed-loop tenant (one query outstanding, small selectivities) must
// keep its p99 response time within 2x of its solo run no matter what the
// other tenants do. The flash-crowd pair is the headline: with
// -rate-mode=adaptive the AIMD controller cuts the flooding tenant and
// the steady tenant stays within bound; with -rate-mode=static (no
// configured rates — the operator never anticipated this tenant) the same
// flood breaches it.
package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"liferaft/internal/bucket"
	"liferaft/internal/catalog"
	"liferaft/internal/core"
	"liferaft/internal/geom"
	"liferaft/internal/metric"
	"liferaft/internal/server"
	"liferaft/internal/workload"
	"liferaft/internal/xmatch"
)

// overloadReport is the BENCH_19.json payload.
type overloadReport struct {
	snapshotHeader
	// SoloP99Sec is the steady tenant's p99 (virtual seconds) running
	// alone through the serving layer; every scenario bound is relative
	// to it. SLOP99Sec = 2x solo is both the AIMD controller's target and
	// the verdict line.
	SoloP99Sec float64            `json:"solo_p99_sec"`
	SLOP99Sec  float64            `json:"slo_p99_sec"`
	Scenarios  []overloadScenario `json:"scenarios"`
	Pass       bool               `json:"pass"`
}

// overloadScenario is one scenario's measured outcome and verdict.
type overloadScenario struct {
	Name      string `json:"name"`
	RateMode  string `json:"rate_mode"`
	Criterion string `json:"criterion"`
	// SteadyP99Sec / RatioVsSolo measure the victim tenant; Pass applies
	// Criterion to them.
	SteadyP99Sec float64 `json:"steady_p99_sec,omitempty"`
	RatioVsSolo  float64 `json:"ratio_vs_solo,omitempty"`
	Pass         bool    `json:"pass"`
	Detail       string  `json:"detail,omitempty"`

	// Offered-load accounting for the antagonist tenant(s).
	Admitted int64 `json:"admitted,omitempty"`
	Rejected int64 `json:"rejected,omitempty"`
	// AIMD controller activity during the scenario.
	RateCuts   float64 `json:"aimd_rate_cuts,omitempty"`
	RateRaises float64 `json:"aimd_rate_raises,omitempty"`
	// Churn-scenario registry accounting.
	TenantsServed   int `json:"tenants_served,omitempty"`
	AdmissionSeries int `json:"admission_series,omitempty"`
	ScrapeBytes     int `json:"scrape_bytes,omitempty"`
}

// overloadFixture is the shared workload: one archive partition plus the
// per-tenant job templates (cloned under fresh IDs at submission).
type overloadFixture struct {
	part   *bucket.Partition
	steady []core.Job // small selectivities: the closed-loop victim
	flood  []core.Job // large: the flash crowd
	city   []core.Job // medium: the diurnal ramp
	loris  []core.Job // near-total scans: the slow loris
	nextID atomic.Uint64
}

func newOverloadFixture() (*overloadFixture, error) {
	local, err := catalog.New(catalog.Config{
		Name: "sdss", N: 12_800, Seed: 21, GenLevel: 4, CacheTrixels: true,
	})
	if err != nil {
		return nil, err
	}
	remote, err := catalog.NewDerived(local, catalog.DerivedConfig{
		Name: "twomass", Seed: 22, Fraction: 0.8,
		JitterRad: geom.ArcsecToRad(1.5), CacheTrixels: true,
	})
	if err != nil {
		return nil, err
	}
	part, err := bucket.NewPartition(local, 400, 0) // 32 buckets
	if err != nil {
		return nil, err
	}
	mkJobs := func(seed int64, n int, minSel, maxSel float64) ([]core.Job, error) {
		cfg := workload.DefaultTraceConfig(seed)
		cfg.NumQueries = n
		cfg.MinSelectivity, cfg.MaxSelectivity = minSel, maxSel
		tr, err := workload.Generate(cfg)
		if err != nil {
			return nil, err
		}
		jobs := make([]core.Job, 0, n)
		for _, q := range tr.Queries {
			jobs = append(jobs, core.Job{
				Objects: workload.Materialize(q, remote, cfg.Seed),
				Pred:    q.Predicate(),
			})
		}
		return jobs, nil
	}
	f := &overloadFixture{part: part}
	if f.steady, err = mkJobs(31, 40, 0.1, 0.3); err != nil {
		return nil, err
	}
	if f.flood, err = mkJobs(37, 300, 0.5, 1.0); err != nil {
		return nil, err
	}
	if f.city, err = mkJobs(41, 120, 0.3, 0.6); err != nil {
		return nil, err
	}
	if f.loris, err = mkJobs(43, 40, 0.9, 1.0); err != nil {
		return nil, err
	}
	return f, nil
}

// withID clones a template job under a fresh unique query ID (engines
// reject duplicate IDs); the workload objects carry the ID too.
func (f *overloadFixture) withID(j core.Job) core.Job {
	j.ID = f.nextID.Add(1)
	objs := make([]xmatch.WorkloadObject, len(j.Objects))
	for i, wo := range j.Objects {
		wo.QueryID = j.ID
		objs[i] = wo
	}
	j.Objects = objs
	return j
}

// newEngine builds a fresh 4-shard virtual-clock engine instrumented into
// reg (a fresh engine per scenario: no leaked backlog between runs).
func (f *overloadFixture) newEngine(reg *metric.Registry) (*core.Live, error) {
	cfg, _ := core.NewVirtual(f.part, 0.5, false)
	cfg.Shards = 4
	// A small bucket cache (2 of each shard's 8 buckets) puts the engine
	// in the paper's disk-bound regime — the archive far exceeds RAM — so
	// overload manifests as longer disk rotations instead of being
	// absorbed by a cache that holds most of the working set.
	cfg.CacheBuckets = 2
	if reg != nil {
		cfg.Metrics = core.NewEngineMetrics(reg)
	}
	return core.NewLive(cfg)
}

// runSteadyLoop drives the victim tenant: one query outstanding at a
// time, laps passes over the steady list.
func (f *overloadFixture) runSteadyLoop(s *server.Server, laps int) error {
	for l := 0; l < laps; l++ {
		for _, j := range f.steady {
			ch, err := s.Submit(context.Background(), "steady", f.withID(j))
			if err != nil {
				return fmt.Errorf("steady submit: %w", err)
			}
			if _, ok := <-ch; !ok {
				return fmt.Errorf("steady query dropped")
			}
		}
	}
	return nil
}

// scrapeValue renders reg and returns the value of the first sample whose
// series name (with labels) starts with prefix, plus how many samples of
// that family exist. Parsing our own exposition output keeps the harness
// honest about what an operator's Prometheus would actually see.
func scrapeValue(reg *metric.Registry, prefix string) (val float64, samples int) {
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		return 0, 0
	}
	family := prefix
	if i := strings.IndexByte(prefix, '{'); i >= 0 {
		family = prefix[:i]
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, family+"{") || strings.HasPrefix(line, family+" ") {
			samples++
		}
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		// Histogram bucket lines may carry an OpenMetrics exemplar
		// ("... # {trace_id=...} v"); the sample value precedes it.
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		fieldsAt := strings.LastIndexByte(line, ' ')
		if fieldsAt < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[fieldsAt+1:], 64); err == nil && val == 0 {
			val = v
		}
	}
	return val, samples
}

// flashCrowd floods the engine with large queries from an unconfigured
// tenant while the steady tenant runs its closed loop. mode decides
// whether the AIMD controller is allowed to fight back.
func (f *overloadFixture) flashCrowd(mode server.RateMode, slo time.Duration, soloP99 float64) (overloadScenario, error) {
	sc := overloadScenario{Name: "flash_crowd_" + string(mode), RateMode: string(mode)}
	reg := metric.NewRegistry()
	eng, err := f.newEngine(reg)
	if err != nil {
		return sc, err
	}
	defer eng.Close()
	// MaxInFlight buys per-arm depth: in-flight bound x mean fan-out width
	// / K. The fixture was written with 16 when a query sat on one of the
	// 4 shards (~4 per arm). Buckets are dealt round-robin now and a query
	// is on every arm its buckets reach — all K for a region query, 1.8
	// for this fixture's ~2-bucket ones — so the bound that is no deeper
	// for any query is MaxInFlight = K = 4: the server default, which is
	// what liferaftd runs (internal/server/DESIGN-overload.md has the
	// other bounds measured). Even so the dispatch cap alone
	// does not protect anyone once large scans pour in — exactly the
	// configuration gap the admission controller exists to cover.
	s, err := server.New(eng, server.Config{
		MaxInFlight:     4,
		RateMode:        mode,
		SLOP99:          slo,
		ControlInterval: 100 * time.Millisecond,
		Registry:        reg,
		Tenants: []server.TenantConfig{
			{Name: "steady", Rate: -1}, // unlimited; it self-paces
			// flash is deliberately unconfigured: the tenant nobody
			// provisioned for. Static mode has no answer beyond queue
			// bounds; adaptive mode cuts it.
		},
	})
	if err != nil {
		return sc, err
	}
	defer s.Close()

	// Lap 1 runs clean; the crowd arrives for laps 2-4 and is kept
	// saturating deterministically: before every steady submission its
	// queue is topped up until backpressure pushes back (queue full in
	// static mode; queue full or rate-limited once the controller cuts in
	// adaptive mode). That is the steady state of an open-loop arrival
	// process that always outpaces the engine.
	next := 0
	var admitted, rejected int64
	topUp := func() {
		for {
			if _, err := s.Submit(context.Background(), "flash", f.withID(f.flood[next%len(f.flood)])); err != nil {
				rejected++
				return
			}
			admitted++
			next++
		}
	}
	for l := 0; l < 4; l++ {
		for _, j := range f.steady {
			if l >= 1 {
				topUp()
			}
			ch, err := s.Submit(context.Background(), "steady", f.withID(j))
			if err != nil {
				return sc, fmt.Errorf("steady submit: %w", err)
			}
			if _, ok := <-ch; !ok {
				return sc, fmt.Errorf("steady query dropped")
			}
		}
	}

	sc.SteadyP99Sec = s.TenantSummary("steady").P99
	sc.RatioVsSolo = sc.SteadyP99Sec / soloP99
	sc.Admitted, sc.Rejected = admitted, rejected
	sc.RateCuts, _ = scrapeValue(reg, `liferaft_aimd_rate_cuts_total{tenant="flash"}`)
	sc.RateRaises, _ = scrapeValue(reg, `liferaft_aimd_rate_raises_total{tenant="flash"}`)
	if admitted == 0 || rejected == 0 {
		sc.Detail = fmt.Sprintf("flood admitted=%d rejected=%d: not saturating", admitted, rejected)
		return sc, nil
	}
	if mode == server.RateAdaptive {
		sc.Criterion = "steady p99 <= 2x solo (AIMD absorbs the crowd)"
		sc.Pass = sc.RatioVsSolo <= 2 && sc.RateCuts >= 1
		sc.Detail = fmt.Sprintf("AIMD cut flash %gx, raised %gx", sc.RateCuts, sc.RateRaises)
	} else {
		sc.Criterion = "steady p99 > 2x solo (static mode breaches: the contrast the adaptive default removes)"
		sc.Pass = sc.RatioVsSolo > 2
	}
	return sc, nil
}

// diurnalRamp ramps an open-loop "city" tenant through quiet -> peak ->
// quiet phases across the steady tenant's closed loop: the controller
// must cut at the peak and regrow afterwards.
func (f *overloadFixture) diurnalRamp(slo time.Duration, soloP99 float64) (overloadScenario, error) {
	sc := overloadScenario{
		Name: "diurnal_ramp", RateMode: string(server.RateAdaptive),
		Criterion: "steady p99 <= 2x solo; controller cuts at peak and regrows after",
	}
	reg := metric.NewRegistry()
	eng, err := f.newEngine(reg)
	if err != nil {
		return sc, err
	}
	defer eng.Close()
	// Same per-arm depth as the flash crowd: city queries fan out alike.
	s, err := server.New(eng, server.Config{
		MaxInFlight:     4,
		SLOP99:          slo,
		ControlInterval: 100 * time.Millisecond,
		Registry:        reg,
		Tenants:         []server.TenantConfig{{Name: "steady", Rate: -1}},
	})
	if err != nil {
		return sc, err
	}
	defer s.Close()

	// Arrival intensity per steady step, five phases of eight steps —
	// night, morning, midday peak (far over capacity), evening, night —
	// then two more night laps: the peak's backlog takes real (virtual)
	// time to drain, and regrowth can only show up in the quiet windows
	// after it has.
	phases := []int{1, 6, 24, 6, 1}
	next := 0
	step := func(burst int, j core.Job) error {
		for b := 0; b < burst; b++ {
			if _, err := s.Submit(context.Background(), "city", f.withID(f.city[next%len(f.city)])); err != nil {
				sc.Rejected++
			} else {
				sc.Admitted++
			}
			next++
		}
		ch, err := s.Submit(context.Background(), "steady", f.withID(j))
		if err != nil {
			return fmt.Errorf("steady submit: %w", err)
		}
		if _, ok := <-ch; !ok {
			return fmt.Errorf("steady query dropped")
		}
		return nil
	}
	for i, j := range f.steady {
		if err := step(phases[i*len(phases)/len(f.steady)], j); err != nil {
			return sc, err
		}
	}
	for l := 0; l < 2; l++ {
		for _, j := range f.steady {
			if err := step(1, j); err != nil {
				return sc, err
			}
		}
	}

	sc.SteadyP99Sec = s.TenantSummary("steady").P99
	sc.RatioVsSolo = sc.SteadyP99Sec / soloP99
	sc.RateCuts, _ = scrapeValue(reg, `liferaft_aimd_rate_cuts_total{tenant="city"}`)
	sc.RateRaises, _ = scrapeValue(reg, `liferaft_aimd_rate_raises_total{tenant="city"}`)
	sc.Pass = sc.RatioVsSolo <= 2 && sc.RateCuts >= 1 && sc.RateRaises >= 1
	sc.Detail = fmt.Sprintf("city cut %gx at peak, regrown %gx after", sc.RateCuts, sc.RateRaises)
	return sc, nil
}

// slowLoris keeps a handful of near-total-scan queries perpetually
// outstanding — the tenant that is never fast and never absent — while
// the steady tenant runs two laps.
func (f *overloadFixture) slowLoris(slo time.Duration, soloP99 float64) (overloadScenario, error) {
	sc := overloadScenario{
		Name: "slow_loris", RateMode: string(server.RateAdaptive),
		Criterion: "steady p99 <= 2x solo despite capacity-hogging scans",
	}
	reg := metric.NewRegistry()
	eng, err := f.newEngine(reg)
	if err != nil {
		return sc, err
	}
	defer eng.Close()
	s, err := server.New(eng, server.Config{
		MaxInFlight: 4,
		SLOP99:      slo,
		Registry:    reg,
		Tenants:     []server.TenantConfig{{Name: "steady", Rate: -1}},
	})
	if err != nil {
		return sc, err
	}
	defer s.Close()

	// Up to 5 loris queries outstanding: 4 can hold every engine slot
	// with another queued behind them, so only fair queueing plus the
	// controller keep the steady tenant alive.
	const outstanding = 5
	sem := make(chan struct{}, outstanding)
	done := make(chan struct{})
	lorisDone := make(chan struct{})
	var admitted, rejected int64
	var wg sync.WaitGroup
	go func() {
		defer close(lorisDone)
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			sem <- struct{}{}
			ch, err := s.Submit(context.Background(), "loris", f.withID(f.loris[i%len(f.loris)]))
			if err != nil {
				<-sem
				rejected++
				time.Sleep(time.Millisecond)
				continue
			}
			admitted++
			wg.Add(1)
			go func(ch <-chan core.Result) {
				defer wg.Done()
				<-ch
				<-sem
			}(ch)
		}
	}()
	err = f.runSteadyLoop(s, 3)
	close(done)
	<-lorisDone
	wg.Wait()
	if err != nil {
		return sc, err
	}

	sc.SteadyP99Sec = s.TenantSummary("steady").P99
	sc.RatioVsSolo = sc.SteadyP99Sec / soloP99
	sc.Admitted, sc.Rejected = admitted, rejected
	sc.RateCuts, _ = scrapeValue(reg, `liferaft_aimd_rate_cuts_total{tenant="loris"}`)
	sc.RateRaises, _ = scrapeValue(reg, `liferaft_aimd_rate_raises_total{tenant="loris"}`)
	sc.Pass = sc.RatioVsSolo <= 2
	sc.Detail = fmt.Sprintf("loris held %d-deep; cut %gx", outstanding, sc.RateCuts)
	return sc, nil
}

// tenantChurn pushes 10,000 distinct tenants (two small queries each)
// through the layer: every query must complete, the scrape must stay
// bounded in series AND in bytes — tenant-labeled families fold the long
// tail into the "_other" overflow series instead of growing per-tenant
// forever, and the whole exposition stays under a fixed byte budget no
// matter how many tenants have come and gone.
func (f *overloadFixture) tenantChurn() (overloadScenario, error) {
	const tenants, perTenant, workers = 10_000, 2, 16
	// scrapeBudgetBytes bounds the full /metrics rendering after the
	// churn: 2 MiB is roomy for 256 live tenant series plus engine
	// families, and far under what 10k unfolded tenants would produce.
	const scrapeBudgetBytes = 2 << 20
	sc := overloadScenario{
		Name: "tenant_churn", RateMode: string(server.RateAdaptive),
		Criterion: fmt.Sprintf("%d tenants x %d queries all complete; admission series and scrape bytes stay capped", tenants, perTenant),
	}
	reg := metric.NewRegistry()
	eng, err := f.newEngine(reg)
	if err != nil {
		return sc, err
	}
	defer eng.Close()
	s, err := server.New(eng, server.Config{
		MaxInFlight: 4,
		MaxTenants:  tenants + 8,
		// Small per-tenant response reservoirs: 10k tenants at the 1024
		// default would pin ~80 MB just for summaries.
		ReservoirSize: 32,
		Registry:      reg,
	})
	if err != nil {
		return sc, err
	}
	defer s.Close()

	var wg sync.WaitGroup
	var completed, failed atomic.Int64
	ids := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range ids {
				name := fmt.Sprintf("survey-%04d", id)
				for q := 0; q < perTenant; q++ {
					j := f.withID(f.steady[(id*perTenant+q)%len(f.steady)])
					ch, err := s.Submit(context.Background(), name, j)
					if err != nil {
						failed.Add(1)
						continue
					}
					if _, ok := <-ch; ok {
						completed.Add(1)
					} else {
						failed.Add(1)
					}
				}
			}
		}()
	}
	for id := 0; id < tenants; id++ {
		ids <- id
	}
	close(ids)
	wg.Wait()

	sc.Admitted = completed.Load()
	sc.Rejected = failed.Load()
	sc.TenantsServed = tenants
	_, sc.AdmissionSeries = scrapeValue(reg, `liferaft_admission_total{`)
	var scrape strings.Builder
	if err := reg.WriteText(&scrape); err != nil {
		return sc, err
	}
	sc.ScrapeBytes = scrape.Len()
	// Cap is 256 live series per tenant-labeled family plus the "_other"
	// overflow row; a small slack covers the decision label dimension.
	const seriesBound = 257 * 2
	sc.Pass = completed.Load() == int64(tenants*perTenant) &&
		sc.AdmissionSeries <= seriesBound &&
		sc.ScrapeBytes <= scrapeBudgetBytes
	sc.Detail = fmt.Sprintf("%d completed, %d failed, %d admission samples, %d-byte scrape (bounds %d / %d)",
		completed.Load(), failed.Load(), sc.AdmissionSeries, sc.ScrapeBytes, seriesBound, scrapeBudgetBytes)
	return sc, nil
}

// runOverload runs every scenario and writes the verdict file.
func runOverload(path string) error {
	fmt.Println("building overload fixture (12,800 objects, 32 buckets, 4-shard virtual engine)...")
	f, err := newOverloadFixture()
	if err != nil {
		return err
	}

	// Solo baseline: the steady tenant alone through the serving layer.
	eng, err := f.newEngine(nil)
	if err != nil {
		return err
	}
	sSolo, err := server.New(eng, server.Config{MaxInFlight: 4})
	if err != nil {
		eng.Close()
		return err
	}
	if err := f.runSteadyLoop(sSolo, 1); err != nil {
		return err
	}
	soloP99 := sSolo.TenantSummary("steady").P99
	sSolo.Close()
	eng.Close()
	if soloP99 <= 0 {
		return fmt.Errorf("solo p99 is zero; fixture jobs too small")
	}
	// The controller's SLO doubles as the verdict line: 2x the steady
	// tenant's solo p99, the same bound the serving load test enforces.
	slo := time.Duration(2 * soloP99 * float64(time.Second))
	rep := overloadReport{
		snapshotHeader: snapshotHeader{GeneratedBy: "skybench -overload"},
		SoloP99Sec:     soloP99,
		SLOP99Sec:      slo.Seconds(),
		Pass:           true,
	}
	fmt.Printf("solo steady p99 %.3fs (virtual); SLO set to %.3fs\n", soloP99, slo.Seconds())

	type stage struct {
		name string
		run  func() (overloadScenario, error)
	}
	stages := []stage{
		{"flash_crowd_adaptive", func() (overloadScenario, error) { return f.flashCrowd(server.RateAdaptive, slo, soloP99) }},
		{"flash_crowd_static", func() (overloadScenario, error) { return f.flashCrowd(server.RateStatic, slo, soloP99) }},
		{"diurnal_ramp", func() (overloadScenario, error) { return f.diurnalRamp(slo, soloP99) }},
		{"slow_loris", func() (overloadScenario, error) { return f.slowLoris(slo, soloP99) }},
		{"tenant_churn", f.tenantChurn},
	}
	for _, st := range stages {
		start := time.Now()
		sc, err := st.run()
		if err != nil {
			return fmt.Errorf("%s: %w", st.name, err)
		}
		verdict := "PASS"
		if !sc.Pass {
			verdict, rep.Pass = "FAIL", false
		}
		fmt.Printf("%-22s %s  p99=%.3fs (%.2fx solo)  admitted=%d rejected=%d  %s  [%v]\n",
			sc.Name, verdict, sc.SteadyP99Sec, sc.RatioVsSolo, sc.Admitted, sc.Rejected,
			sc.Detail, time.Since(start).Round(time.Millisecond))
		rep.Scenarios = append(rep.Scenarios, sc)
	}

	if err := writeSnapshot(path, rep); err != nil {
		return err
	}
	fmt.Printf("wrote %s (overall: pass=%v)\n", path, rep.Pass)
	if !rep.Pass {
		return fmt.Errorf("overload verdicts failed; see %s", path)
	}
	return nil
}
