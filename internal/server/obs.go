package server

import (
	"liferaft/internal/metric"
)

// servingMetrics holds the serving-layer metric families. Tenant-labeled
// families are capped (tenantSeriesCap) so a tenant churn cannot grow the
// registry or a scrape without bound: idle tenants fold into the "_other"
// overflow series with counts conserved (see internal/metric).
type servingMetrics struct {
	admission  *metric.CounterVec   // tenant, decision
	tbWait     *metric.HistogramVec // tenant: Retry-After handed to rate-limited queries
	queueWait  *metric.HistogramVec // tenant: admission → dispatch
	queueDepth *metric.GaugeVec     // tenant, at gather
	response   *metric.HistogramVec // tenant: admission → completion
	tenantRate *metric.GaugeVec     // tenant, at gather
	rateCuts   *metric.CounterVec   // tenant
	rateRaises *metric.CounterVec   // tenant
	rateLevel  *metric.Histogram    // rate in qps after every AIMD move
	cutEvents  *metric.Counter      // AIMD cuts across all tenants
	raiseEvent *metric.Counter      // AIMD raises across all tenants
	queued     *metric.Gauge
	inFlight   *metric.Gauge
	tenants    *metric.Gauge
	ctlP99     *metric.Gauge
	sloP99     *metric.Gauge
}

// tenantSeriesCap bounds every tenant-labeled family. 256 live tenants
// render individually; beyond that the least-recently-active fold into
// "_other".
const tenantSeriesCap = 256

// Admission decision label values.
const (
	decisionAdmitted        = "admitted"
	decisionRejectedRate    = "rejected_rate"
	decisionRejectedQueue   = "rejected_queue"
	decisionRejectedTenants = "rejected_tenants"
)

func newServingMetrics(reg *metric.Registry) servingMetrics {
	tenant := []string{"tenant"}
	capped := metric.VecOpts{MaxSeries: tenantSeriesCap}
	return servingMetrics{
		admission: reg.NewCounterVec("liferaft_admission_total",
			"Admission decisions by tenant: admitted, rejected_rate (token bucket empty), rejected_queue (tenant queue full), rejected_tenants (tenant table full).",
			[]string{"tenant", "decision"}, capped),
		tbWait: reg.NewHistogramVec("liferaft_tokenbucket_wait_seconds",
			"Retry-After hint handed to rate-limited queries (how long until a token accrues).",
			tenant, nil, capped),
		queueWait: reg.NewHistogramVec("liferaft_queue_wait_seconds",
			"Fair-queue wait on the serving clock, admission to dispatch.",
			tenant, nil, capped),
		queueDepth: reg.NewGaugeVec("liferaft_queue_depth",
			"Queries queued per tenant at scrape time.",
			tenant, capped),
		response: reg.NewHistogramVec("liferaft_response_seconds",
			"Client-observed response time on the serving clock, admission to engine completion.",
			tenant, nil, capped),
		tenantRate: reg.NewGaugeVec("liferaft_tenant_rate_qps",
			"Current per-tenant admission rate at scrape time; the AIMD controller moves it.",
			tenant, capped),
		rateCuts: reg.NewCounterVec("liferaft_aimd_rate_cuts_total",
			"AIMD multiplicative rate decreases per tenant (SLO breach with that tenant backlogged).",
			tenant, capped),
		rateRaises: reg.NewCounterVec("liferaft_aimd_rate_raises_total",
			"AIMD additive rate increases per tenant (sustained headroom).",
			tenant, capped),
		rateLevel: reg.NewHistogram("liferaft_aimd_rate_level",
			"Distribution of per-tenant rates (qps) set by AIMD moves, all tenants pooled. Convergence shows as observations concentrating in one band; oscillation as a bimodal spread.",
			metric.ExpBuckets(0.5, 2, 14)),
		cutEvents: reg.NewCounter("liferaft_aimd_cut_events_total",
			"AIMD multiplicative decreases across all tenants."),
		raiseEvent: reg.NewCounter("liferaft_aimd_raise_events_total",
			"AIMD additive increases across all tenants."),
		queued: reg.NewGauge("liferaft_queued",
			"Queries queued across all tenants at scrape time."),
		inFlight: reg.NewGauge("liferaft_inflight",
			"Queries inside the engine at scrape time (bounded by MaxInFlight)."),
		tenants: reg.NewGauge("liferaft_tenants",
			"Registered tenants at scrape time (bounded by the 1 024-tenant table)."),
		ctlP99: reg.NewGauge("liferaft_control_p99_seconds",
			"Windowed p99 response time the AIMD controller saw at its last tick (0 until a window completes)."),
		sloP99: reg.NewGauge("liferaft_slo_p99_seconds",
			"Configured p99 response-time SLO driving the AIMD controller."),
	}
}
