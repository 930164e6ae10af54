package core

import (
	"strconv"
	"time"

	"liferaft/internal/bucket"
	"liferaft/internal/metric"
)

// EngineMetrics holds the engine-side metric families, labeled by shard
// except for the two the front end keeps about whole queries.
// Construct one per registry (NewEngineMetrics) and hand it to Config.
// Metrics; the engine resolves per-shard handles once at scheduler
// construction, so the hot scheduling path touches only atomics and the
// zero-alloc service loop stays zero-alloc. A nil *EngineMetrics (the
// default Config.Metrics) resolves every handle to nil, and a nil handle
// records nothing (internal/metric), so the engine records unconditionally
// and off costs a nil check per call.
type EngineMetrics struct {
	pick      *metric.HistogramVec
	services  *metric.CounterVec
	parts     *metric.CounterVec
	completed *metric.CounterVec
	vqps      *metric.GaugeVec
	readSec   *metric.HistogramVec
	readBytes *metric.CounterVec
	readErrs  *metric.CounterVec
	model     *metric.CounterVec

	// Whole queries, counted where Live merges the shards' parts (the
	// per-shard completed and vqps series count parts).
	queries *metric.CounterVec
	fanout  *metric.Histogram

	// The bucket cache families ({shard, tier}). The engine has one cache,
	// the in-memory bucket cache whose residency is Eq. 1's φ, so tier is
	// always "ram"; the label stays because scrapes select on it.
	cacheHits  *metric.CounterVec
	cacheMiss  *metric.CounterVec
	cacheEvict *metric.CounterVec
	cacheBytes *metric.GaugeVec
}

// NewEngineMetrics registers the engine metric families on reg. Call at
// most once per registry (duplicate registration panics, like a duplicate
// flag).
func NewEngineMetrics(reg *metric.Registry) *EngineMetrics {
	shard := []string{"shard"}
	return &EngineMetrics{
		pick: reg.NewHistogramVec("liferaft_engine_pick_seconds",
			"Wall-clock latency of one scheduler pick (bucket selection).",
			shard, metric.ExpBuckets(5e-7, 4, 10), metric.VecOpts{}),
		services: reg.NewCounterVec("liferaft_engine_services_total",
			"Bucket services by join strategy (scan joins against the cached bucket, filling the granules it lacks; index probes the bucket, on the simulated store only: a segment store serves every bucket as a scan).",
			[]string{"shard", "strategy"}, metric.VecOpts{}),
		parts: reg.NewCounterVec("liferaft_engine_service_parts_total",
			"Parts of bucket services run by this shard's arm: own = of a service this shard picked (every service has at least one), helped = of a sibling shard's split scan service, taken while this worker was idle. The match time of a part is charged to the arm that ran it.",
			[]string{"shard", "role"}, metric.VecOpts{}),
		completed: reg.NewCounterVec("liferaft_engine_completed_total",
			"Query parts completed by this shard (cancelled ones excluded). A query has one part on every shard it touches, so the sum over shards is about liferaft_engine_fanout_shards times liferaft_engine_queries_total.",
			shard, metric.VecOpts{}),
		vqps: reg.NewGaugeVec("liferaft_engine_vqps",
			"Query parts completed by this shard per second of its engine clock since start.",
			shard, metric.VecOpts{}),
		queries: reg.NewCounterVec("liferaft_engine_queries_total",
			"Whole queries resolved by the engine, merged across shards, by outcome (completed or cancelled).",
			[]string{"outcome"}, metric.VecOpts{}),
		fanout: reg.NewHistogram("liferaft_engine_fanout_shards",
			"Shards each submitted query had work on (0 = no bucket overlapped). Region queries cover consecutive buckets, which are dealt round-robin, so this sits at the shard count.",
			[]float64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64}),
		readSec: reg.NewHistogramVec("liferaft_store_read_seconds",
			"Store read latency by kind (scan = a scan service's read: the granules its queue selects that the cached bucket lacks on segment files, the whole bucket on a sim miss; probe = the simulated store's index lookups); modeled cost on the sim backend, measured on segment files. A scan service that reads nothing is not observed.",
			[]string{"shard", "kind"}, metric.ExpBuckets(1e-5, 4, 10), metric.VecOpts{}),
		readBytes: reg.NewCounterVec("liferaft_store_read_bytes_total",
			"Data bytes moved by store reads, by kind (every segment-file read is a scan); divide by liferaft_store_read_seconds_count for the bytes one scan read or one probe pass costs here. RunStats.Disk keeps the model's account instead (a whole bucket per scan miss).",
			[]string{"shard", "kind"}, metric.VecOpts{}),
		readErrs: reg.NewCounterVec("liferaft_store_read_errors_total",
			"Store read failures by kind, including checksum mismatches; the store fail-stops after counting.",
			[]string{"shard", "kind"}, metric.VecOpts{}),
		model: reg.NewCounterVec("liferaft_disk_model_seconds_total",
			"Modeled disk and match time on the engine clock: charged = what the cost model billed, slept = what the shard spent asleep paying it (timer overrun included), credited = measured join time accepted in place of sleep, expired = overrun dropped because the shard went idle before a charge used it. charged = slept + credited - expired to within one timer tick per shard when the engine paces at the model's rate.",
			[]string{"shard", "kind"}, metric.VecOpts{}),
		cacheHits: reg.NewCounterVec("liferaft_cache_hits_total",
			"Bucket services that found the bucket in the in-memory bucket cache (tier is always ram).",
			[]string{"shard", "tier"}, metric.VecOpts{}),
		cacheMiss: reg.NewCounterVec("liferaft_cache_misses_total",
			"Bucket services that missed the in-memory bucket cache.",
			[]string{"shard", "tier"}, metric.VecOpts{}),
		cacheEvict: reg.NewCounterVec("liferaft_cache_evictions_total",
			"Buckets evicted from the in-memory bucket cache.",
			[]string{"shard", "tier"}, metric.VecOpts{}),
		cacheBytes: reg.NewGaugeVec("liferaft_cache_bytes",
			"On-disk bytes of what the in-memory bucket cache holds: the granules scan services filled on segment files, whole buckets on the sim backend.",
			[]string{"shard", "tier"}, metric.VecOpts{}),
	}
}

// Shard resolves the per-shard handles for shard i (0 is the only shard
// of a default engine). The returned EngineObs implements bucket.Observer;
// on a nil m its handles are all nil.
func (m *EngineMetrics) Shard(i int) *EngineObs {
	if m == nil {
		return &EngineObs{}
	}
	s := strconv.Itoa(i)
	return &EngineObs{
		pick:       m.pick.With(s),
		scanSvc:    m.services.With(s, "scan"),
		indexSvc:   m.services.With(s, "index"),
		partsOwn:   m.parts.With(s, "own"),
		partsHelp:  m.parts.With(s, "helped"),
		completed:  m.completed.With(s),
		vqps:       m.vqps.With(s),
		readScan:   m.readSec.With(s, string(bucket.ReadScan)),
		readProbe:  m.readSec.With(s, string(bucket.ReadProbe)),
		scanBytes:  m.readBytes.With(s, string(bucket.ReadScan)),
		probeBytes: m.readBytes.With(s, string(bucket.ReadProbe)),
		errScan:    m.readErrs.With(s, string(bucket.ReadScan)),
		errProbe:   m.readErrs.With(s, string(bucket.ReadProbe)),

		modelCharged:  m.model.With(s, "charged"),
		modelSlept:    m.model.With(s, "slept"),
		modelCredited: m.model.With(s, "credited"),
		modelExpired:  m.model.With(s, "expired"),

		cacheHits:  m.cacheHits.With(s, "ram"),
		cacheMiss:  m.cacheMiss.With(s, "ram"),
		cacheEvict: m.cacheEvict.With(s, "ram"),
		cacheBytes: m.cacheBytes.With(s, "ram"),
	}
}

// front resolves the handles Live's front end reports whole queries on;
// on a nil m they are all nil.
func (m *EngineMetrics) front() frontObs {
	if m == nil {
		return frontObs{}
	}
	return frontObs{
		completed: m.queries.With("completed"),
		cancelled: m.queries.With("cancelled"),
		fanout:    m.fanout,
	}
}

// frontObs is the front end's resolved metric handles: whole queries by
// outcome, and the shards each one fanned out to. All nil when the engine
// has no metrics, which records nothing.
type frontObs struct {
	completed, cancelled *metric.Counter
	fanout               *metric.Histogram
}

// EngineObs is one shard's resolved metric handles. All methods are cheap
// atomic updates safe from the shard's scheduling goroutine.
type EngineObs struct {
	pick       *metric.Histogram
	scanSvc    *metric.Counter
	indexSvc   *metric.Counter
	partsOwn   *metric.Counter
	partsHelp  *metric.Counter
	completed  *metric.Counter
	vqps       *metric.Gauge
	readScan   *metric.Histogram
	readProbe  *metric.Histogram
	scanBytes  *metric.Counter
	probeBytes *metric.Counter
	errScan    *metric.Counter
	errProbe   *metric.Counter

	modelCharged  *metric.Counter
	modelSlept    *metric.Counter
	modelCredited *metric.Counter
	modelExpired  *metric.Counter

	cacheHits  *metric.Counter
	cacheMiss  *metric.Counter
	cacheEvict *metric.Counter
	cacheBytes *metric.Gauge
}

// ObserveRead implements bucket.Observer.
func (o *EngineObs) ObserveRead(kind bucket.ReadKind, elapsed time.Duration, bytes int64) {
	if kind == bucket.ReadProbe {
		o.readProbe.Observe(elapsed.Seconds())
		o.probeBytes.Add(float64(bytes))
		return
	}
	o.readScan.Observe(elapsed.Seconds())
	o.scanBytes.Add(float64(bytes))
}

// ObserveReadError implements bucket.Observer. The store fail-stops right
// after this call, so the counter is the last trace a corrupt segment
// leaves in a scrape before the panic.
func (o *EngineObs) ObserveReadError(kind bucket.ReadKind, err error) {
	if kind == bucket.ReadProbe {
		o.errProbe.Inc()
		return
	}
	o.errScan.Inc()
}
