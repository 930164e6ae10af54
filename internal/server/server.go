// Package server is the multi-tenant serving layer of a LifeRaft node: it
// sits between clients and the core engine and makes the paper's
// throughput-versus-starvation trade *per client* instead of only per
// bucket. Thousands of tenants hammering one archive must not starve each
// other before their queries ever reach the aged-workload-throughput
// scheduler, so the layer provides, in admission order:
//
//   - per-tenant token-bucket rate limits (admission control),
//   - bounded per-tenant queues with explicit backpressure — a full queue
//     or an empty bucket rejects with a machine-readable retry-after
//     instead of growing goroutines without bound,
//   - a deficit-round-robin fair queue across tenants, so a burst from
//     one tenant cannot monopolize the engine's Submit stream,
//   - deadline and cancellation threading: a query whose context expires
//     is withdrawn from the engine (core.Live.Cancel) so abandoned work
//     stops consuming workload-queue slots.
//
// The HTTP+JSON gateway over this layer lives in gateway.go; the gob TCP
// federation transport reaches the same layer through
// federation.NodeConfig.Serving.
package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"liferaft/internal/core"
	"liferaft/internal/metric"
	"liferaft/internal/simclock"
	"liferaft/internal/stats"
	"liferaft/internal/trace"
)

// Engine is the scheduling engine the serving layer feeds; *core.Live
// (any shard count) implements it.
type Engine interface {
	SubmitCtx(ctx context.Context, job core.Job) (<-chan core.Result, error)
	Cancel(id uint64) error
	Clock() simclock.Clock
}

// TenantConfig declares one tenant's admission parameters.
type TenantConfig struct {
	// Name identifies the tenant in Submit calls and stats.
	Name string
	// Weight is the tenant's DRR share relative to other tenants;
	// values < 1 mean Config.DefaultWeight.
	Weight int
	// Rate is the tenant's sustained admission rate in queries per
	// second. 0 means Config.DefaultRate; negative means unlimited.
	Rate float64
	// Burst is the token-bucket capacity; values < 1 mean
	// Config.DefaultBurst.
	Burst int
	// QueueDepth bounds the tenant's pending queue; values < 1 mean
	// Config.QueueDepth.
	QueueDepth int
}

// Config configures a Server.
type Config struct {
	// DefaultRate is the admission rate (queries/sec) for tenants
	// without an explicit TenantConfig rate. 0 or negative disables rate
	// limiting by default.
	DefaultRate float64
	// DefaultBurst is the default token-bucket capacity; min 1.
	DefaultBurst int
	// QueueDepth bounds each tenant's pending queue (default 64). A full
	// queue rejects with backpressure rather than queueing unboundedly.
	QueueDepth int
	// MaxInFlight caps the queries concurrently inside the engine
	// (default 4); the fair queue picks which tenant fills a freed slot.
	MaxInFlight int
	// Quantum is the DRR quantum in workload objects (default 32).
	Quantum int
	// DefaultWeight is the DRR weight of unconfigured tenants (default 1).
	DefaultWeight int
	// MaxTenants bounds how many tenants may auto-register (default
	// 1024); beyond it, unknown tenants are rejected.
	MaxTenants int
	// Tenants pre-registers tenants with explicit limits; all other
	// tenants auto-register with the defaults above on first use.
	Tenants []TenantConfig

	// RateMode names the admission-rate control, of which there is one:
	// every tenant holds a token bucket — starting at its configured
	// Rate, or effectively unlimited — whose rate an AIMD controller
	// driven by the SLO below moves. It accepts "" or RateAdaptive;
	// anything else is rejected by New.
	RateMode RateMode
	// SLOP99 is the target p99 client-observed response time on the
	// serving clock (default 2s). A control window whose p99 exceeds it
	// cuts backlogged tenants' rates multiplicatively; sustained
	// headroom regrows them additively.
	SLOP99 time.Duration
	// ControlInterval is the AIMD evaluation period on the serving clock
	// (default 250ms).
	ControlInterval time.Duration
	// Registry, when non-nil, instruments the serving layer: admission
	// decisions, token-bucket waits, queue depth and wait, in-flight,
	// response latency, and AIMD rate moves (see docs/OPERATIONS.md for
	// every family).
	Registry *metric.Registry
}

// RateMode names how per-tenant admission rates are managed.
type RateMode string

// RateAdaptive self-tunes per-tenant rates with the AIMD controller
// (DESIGN-overload.md); it is the only mode.
const RateAdaptive RateMode = "adaptive"

func (c Config) withDefaults() (Config, error) {
	if c.DefaultBurst < 1 {
		c.DefaultBurst = 8
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.QueueDepth < 0 {
		return c, fmt.Errorf("server: QueueDepth %d must be positive", c.QueueDepth)
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 4
	}
	if c.MaxInFlight < 0 {
		return c, fmt.Errorf("server: MaxInFlight %d must be positive", c.MaxInFlight)
	}
	if c.Quantum == 0 {
		c.Quantum = 32
	}
	if c.Quantum < 0 {
		return c, fmt.Errorf("server: Quantum %d must be positive", c.Quantum)
	}
	if c.DefaultWeight < 1 {
		c.DefaultWeight = 1
	}
	if c.MaxTenants == 0 {
		c.MaxTenants = 1024
	}
	if c.RateMode != "" && c.RateMode != RateAdaptive {
		return c, fmt.Errorf("server: unknown RateMode %q", c.RateMode)
	}
	if c.SLOP99 <= 0 {
		c.SLOP99 = 2 * time.Second
	}
	if c.ControlInterval <= 0 {
		c.ControlInterval = 250 * time.Millisecond
	}
	seen := make(map[string]bool, len(c.Tenants))
	for _, tc := range c.Tenants {
		if tc.Name == "" {
			return c, fmt.Errorf("server: tenant with empty name")
		}
		if seen[tc.Name] {
			return c, fmt.Errorf("server: duplicate tenant %q", tc.Name)
		}
		seen[tc.Name] = true
	}
	return c, nil
}

// reservoirSize bounds each tenant's response-time sample; summaries stay
// unbiased at fixed memory.
const reservoirSize = 1024

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("server: closed")

// OverloadReason says which admission stage rejected a query.
type OverloadReason string

// Admission rejection reasons.
const (
	// OverloadRate: the tenant's token bucket is empty.
	OverloadRate OverloadReason = "rate"
	// OverloadQueue: the tenant's pending queue is full.
	OverloadQueue OverloadReason = "queue"
	// OverloadTenants: the tenant table is full (MaxTenants).
	OverloadTenants OverloadReason = "tenants"
)

// OverloadError is the backpressure signal: the query was rejected without
// queueing, and the client should retry no sooner than RetryAfter.
type OverloadError struct {
	Tenant     string
	Reason     OverloadReason
	RetryAfter time.Duration
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("server: tenant %q overloaded (%s), retry after %v",
		e.Tenant, e.Reason, e.RetryAfter.Round(time.Millisecond))
}

// pending is one admitted query waiting for (or inside) the engine.
type pending struct {
	job    core.Job
	ctx    context.Context
	tenant *tenant
	out    chan core.Result
	enq    time.Time // serving-clock accept instant
	// tr is the request's trace (from the submit context; nil untraced);
	// dispatched is the serving-clock instant the fair queue released it.
	tr         *trace.Trace
	dispatched time.Time
}

// tenant is the per-tenant serving state.
type tenant struct {
	name   string
	weight int
	depth  int
	bucket *tokenBucket
	flow   *flow
	resp   *stats.Reservoir
	// maxRate is the AIMD regrowth ceiling (the configured rate, or
	// aimdUnlimited); winCompleted counts completions since the last
	// control tick — the tenant's delivered rate, which is what the
	// controller rebases an unlimited tenant to before its first cut
	// (admissions would overstate it arbitrarily during a burst).
	maxRate      float64
	winCompleted int64

	submitted     int64
	rejectedRate  int64
	rejectedQueue int64
	completed     int64
	cancelled     int64
	failed        int64
	inFlight      int
}

// Server is the serving layer: admission control, fair queueing, and
// backpressure in front of one Engine.
type Server struct {
	cfg Config
	eng Engine
	clk simclock.Clock

	mu       sync.Mutex
	cond     *sync.Cond
	tenants  map[string]*tenant
	fq       *fairQueue
	inFlight int
	closed   bool

	// obs holds resolved metric families (nil without a Registry);
	// ctlLast/ctlWindow are the AIMD controller's tick state (aimd.go),
	// guarded by mu like everything else.
	obs       *servingMetrics
	ctlLast   time.Time
	ctlWindow []float64

	wg        sync.WaitGroup // dispatcher + in-flight result waiters
	closeOnce sync.Once
}

// New starts a serving layer over eng. The engine is borrowed, not owned:
// Close drains the layer but leaves the engine running for its owner to
// close.
func New(eng Engine, cfg Config) (*Server, error) {
	if eng == nil {
		return nil, fmt.Errorf("server: nil engine")
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		eng:     eng,
		clk:     eng.Clock(),
		tenants: make(map[string]*tenant),
		fq:      newFairQueue(cfg.Quantum),
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg.Registry != nil {
		s.obs = newServingMetrics(cfg.Registry)
		s.obs.sloP99.Set(cfg.SLOP99.Seconds())
		cfg.Registry.OnGather(s.gather)
	}
	for _, tc := range cfg.Tenants {
		if _, err := s.register(tc); err != nil {
			return nil, err
		}
	}
	s.wg.Add(1)
	go s.dispatch()
	return s, nil
}

// gather refreshes the scrape-time gauges (queue depths, in-flight,
// per-tenant rates); registered as the registry's OnGather hook.
func (s *Server) gather() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs.queued.Set(float64(s.fq.len()))
	s.obs.inFlight.Set(float64(s.inFlight))
	s.obs.tenants.Set(float64(len(s.tenants)))
	for _, t := range s.tenants {
		s.obs.queueDepth.With(t.name).Set(float64(t.flow.size()))
		s.obs.tenantRate.With(t.name).Set(t.bucket.rate)
	}
}

// register creates a tenant from its config; the caller holds no lock (New
// runs before the dispatcher starts) or s.mu (auto-registration).
func (s *Server) register(tc TenantConfig) (*tenant, error) {
	weight := tc.Weight
	if weight < 1 {
		weight = s.cfg.DefaultWeight
	}
	depth := tc.QueueDepth
	if depth < 1 {
		depth = s.cfg.QueueDepth
	}
	rate := tc.Rate
	if rate == 0 {
		rate = s.cfg.DefaultRate
	}
	burst := tc.Burst
	if burst < 1 {
		burst = s.cfg.DefaultBurst
	}
	// Seed the reservoir from the tenant name so runs are reproducible.
	var seed int64 = 1
	for _, r := range tc.Name {
		seed = seed*131 + int64(r)
	}
	resv, err := stats.NewReservoir(reservoirSize, seed)
	if err != nil {
		return nil, err
	}
	t := &tenant{name: tc.Name, weight: weight, depth: depth, resp: resv, maxRate: rate}
	// Every tenant gets a cuttable bucket. Without a configured rate it
	// starts effectively unlimited — admission-identical to no bucket
	// until the controller's first cut.
	if t.maxRate <= 0 {
		t.maxRate = aimdUnlimited
	}
	t.bucket = newTokenBucket(t.maxRate, burst)
	t.flow = s.fq.flowFor(tc.Name, weight)
	s.tenants[tc.Name] = t
	return t, nil
}

// tenantLocked returns the named tenant, auto-registering unknown names
// with the server defaults. Caller holds s.mu.
func (s *Server) tenantLocked(name string) (*tenant, error) {
	if t := s.tenants[name]; t != nil {
		return t, nil
	}
	if len(s.tenants) >= s.cfg.MaxTenants {
		return nil, &OverloadError{Tenant: name, Reason: OverloadTenants, RetryAfter: time.Minute}
	}
	return s.register(TenantConfig{Name: name})
}

// Submit admits one query for a tenant. On admission it returns a channel
// delivering exactly one Result (then closing); the Result's Arrived is
// rewritten to the admission instant, so ResponseTime() is the
// client-observed latency including fair-queue wait. On overload it
// returns *OverloadError without queueing anything. When ctx expires
// before completion the query is cancelled all the way into the engine's
// workload queues and the Result carries Cancelled.
func (s *Server) Submit(ctx context.Context, tenantName string, job core.Job) (<-chan core.Result, error) {
	tr := trace.FromContext(ctx)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	t, err := s.tenantLocked(tenantName)
	if err != nil {
		if s.obs != nil {
			var oe *OverloadError
			if errors.As(err, &oe) {
				s.obs.admission.With(tenantName, decisionRejectedTenants).Inc()
			}
		}
		if tr != nil {
			n := s.clk.Now()
			tr.Add(trace.Span{Stage: trace.StageAdmission, Start: tr.StartTime(), End: n,
				Attr: decisionRejectedTenants, Err: err.Error()})
		}
		return nil, err
	}
	t.submitted++
	now := s.clk.Now()
	s.maybeControlTick(now)
	// Queue depth first: a queue-full rejection must not spend a rate
	// token, or a tenant retrying against a draining queue would be
	// double-penalized below its configured rate.
	if t.flow.size() >= t.depth {
		t.rejectedQueue++
		retry := 500 * time.Millisecond // advisory: roughly one service
		if !t.bucket.unlimited() {
			retry = t.bucket.wait(1, now)
		}
		if s.obs != nil {
			s.obs.admission.With(t.name, decisionRejectedQueue).Inc()
		}
		oe := &OverloadError{Tenant: t.name, Reason: OverloadQueue, RetryAfter: retry}
		if tr != nil {
			tr.Add(trace.Span{Stage: trace.StageAdmission, Start: tr.StartTime(), End: now,
				Attr: decisionRejectedQueue, Score: retry.Seconds(), Err: oe.Error()})
		}
		return nil, oe
	}
	if !t.bucket.unlimited() && !t.bucket.take(1, now) {
		t.rejectedRate++
		retry := t.bucket.wait(1, now)
		if s.obs != nil {
			s.obs.admission.With(t.name, decisionRejectedRate).Inc()
			s.obs.tbWait.With(t.name).Observe(retry.Seconds())
		}
		oe := &OverloadError{Tenant: t.name, Reason: OverloadRate, RetryAfter: retry}
		if tr != nil {
			// Score carries the token-bucket wait the client was told to
			// back off for.
			tr.Add(trace.Span{Stage: trace.StageAdmission, Start: tr.StartTime(), End: now,
				Attr: decisionRejectedRate, Score: retry.Seconds(), Err: oe.Error()})
		}
		return nil, oe
	}
	if s.obs != nil {
		s.obs.admission.With(t.name, decisionAdmitted).Inc()
	}
	if tr != nil {
		// The span opens at trace start, so request-arrival work before
		// the decision (parsing, tenant lookup) is attributed.
		tr.Add(trace.Span{Stage: trace.StageAdmission, Start: tr.StartTime(), End: now, Attr: decisionAdmitted})
		// The engine records its spans into the same trace.
		job.Trace = tr
	}
	p := &pending{job: job, ctx: ctx, tenant: t, out: make(chan core.Result, 1), enq: now, tr: tr}
	s.fq.push(t.flow, p)
	s.cond.Broadcast()
	return p.out, nil
}

// dispatch is the single scheduling goroutine: whenever an engine slot is
// free and some tenant has queued work, it asks the fair queue for the
// next query and hands it to the engine.
func (s *Server) dispatch() {
	defer s.wg.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for !(s.closed && s.fq.empty()) && (s.inFlight >= s.cfg.MaxInFlight || s.fq.empty()) {
			s.cond.Wait()
		}
		if s.closed && s.fq.empty() {
			return
		}
		p := s.fq.pop()
		p.dispatched = s.clk.Now()
		if s.obs != nil {
			s.obs.queueWait.With(p.tenant.name).Observe(p.dispatched.Sub(p.enq).Seconds())
		}
		p.tr.Add(trace.Span{Stage: trace.StageQueueWait, Start: p.enq, End: p.dispatched})
		if p.ctx.Err() != nil {
			// Abandoned while queued: resolve without touching the
			// engine at all.
			p.tenant.cancelled++
			p.tr.Add(trace.Span{Stage: trace.StageEngine, Start: p.dispatched, End: p.dispatched,
				Err: "cancelled while queued"})
			//lifevet:allow lockdiscipline -- p.out has capacity 1 and this is its single resolution: the send can never block
			p.out <- core.Result{QueryID: p.job.ID, Arrived: p.enq, Completed: s.clk.Now(), Cancelled: true}
			close(p.out)
			continue
		}
		s.inFlight++
		p.tenant.inFlight++
		s.mu.Unlock()
		ch, err := s.eng.SubmitCtx(p.ctx, p.job)
		s.mu.Lock()
		if err != nil {
			// Engine refused (closing): resolve the waiter by closing
			// its channel without a result.
			s.inFlight--
			p.tenant.inFlight--
			p.tenant.failed++
			close(p.out)
			continue
		}
		s.wg.Add(1)
		go s.await(p, ch)
	}
}

// await relays one engine result to its waiter and frees the slot.
func (s *Server) await(p *pending, ch <-chan core.Result) {
	defer s.wg.Done()
	r, ok := <-ch
	s.mu.Lock()
	s.inFlight--
	p.tenant.inFlight--
	switch {
	case !ok:
		p.tenant.failed++
		p.tr.Add(trace.Span{Stage: trace.StageEngine, Start: p.dispatched, End: s.clk.Now(),
			Err: "engine closed before completion"})
	case r.Cancelled:
		p.tenant.cancelled++
		p.tr.Add(trace.Span{Stage: trace.StageEngine, Start: p.dispatched, End: r.Completed,
			Err: "cancelled"})
	default:
		p.tenant.completed++
		p.tenant.winCompleted++
		// Client-observed response: admission to engine completion,
		// both on the serving clock. The engine stamps Completed
		// authoritatively; rebase Arrived to the admission instant.
		d := r.Completed.Sub(p.enq)
		if d < 0 {
			d = 0
		}
		p.tenant.resp.Add(d.Seconds())
		p.tr.Add(trace.Span{Stage: trace.StageEngine, Start: p.dispatched, End: r.Completed,
			N: int64(r.Matches)})
		if s.obs != nil {
			// A traced request's response observation carries its trace ID
			// as an OpenMetrics exemplar: the p99 spike on a dashboard
			// links straight to the forensics capture. Unsampled traces get
			// no exemplar — the capture they would link to is unpublished.
			if id := p.tr.ID(); id != 0 && p.tr.Sampled() {
				s.obs.response.With(p.tenant.name).ObserveExemplar(d.Seconds(), id.String())
			} else {
				s.obs.response.With(p.tenant.name).Observe(d.Seconds())
			}
		}
		s.ctlWindow = append(s.ctlWindow, d.Seconds())
	}
	s.maybeControlTick(s.clk.Now())
	s.cond.Broadcast()
	s.mu.Unlock()
	if ok {
		r.Arrived = p.enq
		p.out <- r
	}
	close(p.out)
}

// Close stops admitting queries, drains everything already queued through
// the engine, and waits for all in-flight results. The engine itself stays
// open (its owner closes it). Close is idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	s.wg.Wait()
	return nil
}

// TenantStats is one tenant's serving-layer breakdown.
type TenantStats struct {
	Tenant    string `json:"tenant"`
	Weight    int    `json:"weight"`
	Submitted int64  `json:"submitted"`
	// Admitted = Submitted - rejections; Completed+Cancelled+Failed of
	// those have resolved so far.
	Admitted      int64 `json:"admitted"`
	RejectedRate  int64 `json:"rejected_rate"`
	RejectedQueue int64 `json:"rejected_queue"`
	Completed     int64 `json:"completed"`
	Cancelled     int64 `json:"cancelled"`
	Failed        int64 `json:"failed"`
	Queued        int   `json:"queued"`
	InFlight      int   `json:"in_flight"`
	// RespTime summarizes client-observed response times (seconds) of
	// completed queries: admission instant to engine completion. Mean,
	// min, max, and count are exact; dispersion and percentiles are
	// reservoir-sampled (see stats.Reservoir and the Summary's
	// sampled/sample_size fields).
	RespTime stats.Summary `json:"resp_time"`
	// RateQPS is the tenant's current admission rate in queries/sec
	// (1e9 = effectively unlimited, until the first cut). The AIMD
	// controller moves it.
	RateQPS float64 `json:"rate_qps,omitempty"`
}

// Stats is a point-in-time snapshot of the serving layer.
type Stats struct {
	// Tenants is sorted by tenant name.
	Tenants  []TenantStats `json:"tenants"`
	Queued   int           `json:"queued"`
	InFlight int           `json:"in_flight"`
}

// Stats snapshots the serving layer; safe to call concurrently with
// Submit traffic.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	out := Stats{Queued: s.fq.len(), InFlight: s.inFlight}
	for _, t := range s.tenants {
		ts := TenantStats{
			Tenant:        t.name,
			Weight:        t.weight,
			Submitted:     t.submitted,
			Admitted:      t.submitted - t.rejectedRate - t.rejectedQueue,
			RejectedRate:  t.rejectedRate,
			RejectedQueue: t.rejectedQueue,
			Completed:     t.completed,
			Cancelled:     t.cancelled,
			Failed:        t.failed,
			Queued:        t.flow.size(),
			InFlight:      t.inFlight,
			RespTime:      t.resp.Summary(),
			RateQPS:       t.bucket.rate,
		}
		out.Tenants = append(out.Tenants, ts)
	}
	s.mu.Unlock()
	sort.Slice(out.Tenants, func(i, j int) bool { return out.Tenants[i].Tenant < out.Tenants[j].Tenant })
	return out
}

// TenantSummary returns one tenant's response-time summary (zero Summary
// for unknown tenants).
func (s *Server) TenantSummary(name string) stats.Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.tenants[name]; t != nil {
		return t.resp.Summary()
	}
	return stats.Summary{}
}
