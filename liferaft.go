// Package liferaft is a Go implementation of LifeRaft (Wang, Burns, Malik;
// CIDR 2009): a data-driven, batch query scheduler for data-intensive
// scientific databases. Instead of evaluating queries in arrival order,
// LifeRaft decomposes each query into per-partition units of work, merges
// the units of concurrent queries that need the same data into shared
// workload queues, and services the partition with the highest *aged
// workload throughput* — a convex blend of data contention and request age
// that trades throughput against starvation the way VSCAN(R) disk
// schedulers trade seek time against wait time.
//
// The module ships everything the paper's system depended on, built from
// scratch: HTM sky indexing, equal-sized bucket partitioning, a calibrated
// disk cost model, synthetic survey catalogs, the cross-match spatial
// join with its hybrid scan/index strategy, SkyQuery-style federation, a
// discrete-event virtual clock, and an experiment harness that regenerates
// every figure in the paper's evaluation.
//
// # Quick start
//
//	local, _ := liferaft.NewCatalog(liferaft.CatalogConfig{
//		Name: "sdss", N: 100_000, Seed: 1, GenLevel: 4, CacheTrixels: true,
//	})
//	part, _ := liferaft.NewPartition(local, 500, 0)
//	cfg, _ := liferaft.NewVirtualConfig(part, 0.25, true)
//	results, stats, _ := liferaft.Run(cfg, jobs, offsets)
//
// See examples/ for complete programs: a quickstart, an in-process
// federation cross-match, the adaptive-α saturation trade-off, a mixed
// interactive/batch workload using the QoS extension, and the sharded
// engine's scan-throughput scaling.
//
// # Sharded execution
//
// The paper's engine drives a single disk arm; this module scales the
// same aged-workload-throughput policy across K disks, and there is one
// engine for every K. Config.Shards = K deals the buckets to K shards
// round-robin along the HTM curve (bucket i to shard i mod K — the one
// placement, see NewShardMap). Each shard owns its own modeled disk,
// bucket cache, and workload queues, and a worker per shard services that
// shard's local LifeRaft schedule. The engine fans each query's
// workload objects out to the shards owning the buckets they overlap and
// completes the query when its last shard finishes. A region query's
// buckets are consecutive on the curve, so it has work on every shard:
// its bucket services run K abreast (a single query spanning 16 buckets
// finishes in about 1/K the time), and every arm is busy whenever any
// query is in the engine. RunStats merges across shards with a PerShard
// breakdown (K entries). On a virtual clock each shard charges costs to
// its own forked clock, so K shards finish in ~1/K the virtual time
// instead of serializing on one modeled disk.
// Shards 0 or 1 (the default) is one shard owning every bucket: the
// paper's single-disk engine and its results, on the same code path.
//
//	cfg, clk := liferaft.NewVirtualConfig(part, 0.25, false)
//	cfg.Shards = 4
//	results, stats, _ := liferaft.Run(cfg, jobs, offsets)
//	for _, ss := range stats.PerShard { fmt.Println(ss.Shard, ss.Stats.BucketsServed) }
//
// Run, Live engines (NewLive), Adaptive engines, and federation nodes
// (FedNodeConfig.Shards) all accept the knob; cmd/skybench and
// cmd/liferaftd expose it as -shards.
//
// # Multi-tenant serving
//
// The paper trades throughput against starvation per bucket; a production
// archive must make the same trade per client. NewServer wraps a Live
// engine in a serving layer: per-tenant token-bucket rate limits, a
// deficit-round-robin fair queue across tenants, bounded queues with
// explicit backpressure (OverloadError carries a retry-after), and
// deadline/cancellation threading — a query whose context expires is
// withdrawn from the engine's workload queues (Live.SubmitCtx,
// Live.Cancel), so abandoned work stops consuming schedule slots.
//
//	eng, _ := liferaft.NewLive(cfg)
//	srv, _ := liferaft.NewServer(eng, liferaft.ServerConfig{
//		Tenants: []liferaft.TenantConfig{{Name: "vip", Weight: 4}},
//		DefaultRate: 50, QueueDepth: 32,
//	})
//	ch, err := srv.Submit(ctx, "vip", job)
//
// Admission rates are self-tuning: an AIMD controller cuts backlogged
// tenants' rates when the windowed p99 breaches the configured SLO
// (ServerConfig.SLOP99) and regrows them on headroom, never above a
// tenant's configured rate. internal/server/DESIGN-overload.md has the
// control-loop design and stability argument.
//
// Federation nodes take the same layer via FedNodeConfig.Serving, and
// cmd/liferaftd exposes it as -rate, -slo-p99, -queue-depth,
// and -tenants, plus an HTTP+JSON gateway (-http) accepting SkyQL on
// /v1/query with per-tenant stats on /v1/stats and a Prometheus-text
// metric scrape on /metrics. See examples/multitenant for the fairness
// demo, README.md for the daemon walkthrough, and docs/OPERATIONS.md —
// the operator's manual — for every flag, every exported metric, and the
// SLO/AIMD tuning model.
//
// # Persistent storage
//
// The paper reproduction serves every bucket from the analytic disk
// model; the segment store makes the same engine run against real
// disks. WriteSegments (or skygen -write-segments) materializes a
// partition into checksummed, versioned segment files; a Store built by
// NewFileBackedConfig serves buckets from them with pread-based real
// I/O on the real clock, recording measured read times in the disk
// statistics (the engine observes the store's backend; there is no
// separate backend option, and a real-I/O store on a virtual clock is
// rejected). Every shard opens its own segment set, and
// federation nodes take FedNodeConfig.DataDir (liferaftd -data-dir). A
// parity test proves the file backend makes bit-identical scheduling
// decisions to the simulated disk on the golden traces.
//
//	set, _, err := liferaft.EnsureSegments("/var/lib/liferaft/sdss", part, liferaft.SegmentWriteOptions{})
//	cfg, err := liferaft.NewFileBackedConfigFrom(part, 0.25, true, set) // takes ownership of set
//	defer cfg.Store.Close()
//	results, stats, _ := liferaft.Run(cfg, jobs, offsets) // stats.Disk measured, not modeled
//
// See examples/persist and internal/segment/DESIGN-segments.md.
//
// # Contributing
//
// See README.md for a repository overview. CI (.github/workflows/ci.yml)
// gates every change on:
//
//	go build ./...
//	go vet ./...
//	gofmt -l .            # must print nothing
//	go test -shuffle=on ./...
//	go test -race ./internal/core/... ./internal/shard/... ./internal/federation/... ./internal/server/...
//	go test -race -run 'TestBackendParity' ./internal/core/   # file backend == simulated disk
//	go test -bench=. -benchtime=1x -benchmem -run='^$' ./...   # incl. BenchmarkPick/BenchmarkStep: the scheduler hot path's ns/op and allocs/op
//	(cd bench && go vet . && go test .)                        # BENCHMARK.json's module: wall-clock qps, latency, bytes, allocations
//	go run ./cmd/docdrift                                     # docs/OPERATIONS.md covers every flag + metric, and names no other
//
// Keep all of them green locally before sending a change. Each kind of
// number has one source: a wall-clock figure is bench/'s or a go test
// benchmark's, never skybench's.
//
// The subsystem implementations live under internal/; this package is the
// supported API surface and re-exports them by alias, so the documented
// types here are identical to the ones used internally.
package liferaft

import (
	"liferaft/internal/bucket"
	"liferaft/internal/cache"
	"liferaft/internal/catalog"
	"liferaft/internal/core"
	"liferaft/internal/disk"
	"liferaft/internal/federation"
	"liferaft/internal/geom"
	"liferaft/internal/htm"
	"liferaft/internal/metric"
	"liferaft/internal/segment"
	"liferaft/internal/server"
	"liferaft/internal/shard"
	"liferaft/internal/simclock"
	"liferaft/internal/skyql"
	"liferaft/internal/stats"
	"liferaft/internal/workload"
	"liferaft/internal/xmatch"
)

// ---- Scheduler core (the paper's contribution) ----

// Core engine types; see internal/core for full documentation.
type (
	// Config configures a scheduler engine.
	Config = core.Config
	// Job is one pre-processed query: its workload objects and predicate.
	Job = core.Job
	// Result reports one completed query.
	Result = core.Result
	// RunStats aggregates a run's throughput, I/O, and cache behaviour.
	RunStats = core.RunStats
	// PolicyKind selects the scheduling discipline.
	PolicyKind = core.PolicyKind
	// Live is the long-running concurrent engine used by federation nodes.
	Live = core.Live
	// Tuner selects α from measured trade-off curves (paper §4).
	Tuner = core.Tuner
	// SaturationEstimator tracks arrival rate for the tuner.
	SaturationEstimator = core.SaturationEstimator
	// Adaptive closes the §4 loop: a Live engine whose α follows the
	// measured saturation through the tuner's curves.
	Adaptive = core.Adaptive
	// ShardStats is one shard's slice of a sharded run (RunStats.PerShard).
	ShardStats = core.ShardStats
)

// ---- Sharded execution (scaling the paper's policy across K disks) ----

type (
	// ShardMap is the bucket-to-shard assignment: bucket i belongs to
	// shard i mod K.
	ShardMap = shard.Map
)

// NewShardMap returns the bucket-to-shard assignment a K-shard engine
// uses, for inspection and capacity planning.
var NewShardMap = shard.NewMap

// Scheduling policies.
const (
	// PolicyLifeRaft is the aged-workload-throughput scheduler (Eq. 2).
	PolicyLifeRaft = core.PolicyLifeRaft
	// PolicyRoundRobin is the RR baseline (buckets in HTM ID order).
	PolicyRoundRobin = core.PolicyRoundRobin
	// PolicyLeastShared is the least-sharable-first ablation policy.
	PolicyLeastShared = core.PolicyLeastShared
)

// Engine entry points.
var (
	// Run replays jobs with arrival offsets through the configured
	// scheduler (LifeRaft or round-robin).
	Run = core.Run
	// RunNoShare is the paper's NoShare baseline: queries evaluated
	// independently in arrival order.
	RunNoShare = core.RunNoShare
	// RunIndexOnly is SkyQuery's pre-LifeRaft index-exclusive approach.
	RunIndexOnly = core.RunIndexOnly
	// NewLive starts a concurrent engine accepting SubmitCtx calls.
	NewLive = core.NewLive
	// NewVirtualConfig builds the standard virtual-clock stack with
	// paper defaults (20-bucket LRU cache, 3% hybrid threshold).
	NewVirtualConfig = core.NewVirtual
	// NewConfigOn builds the standard stack on a caller-provided clock.
	NewConfigOn = core.NewOn
	// BuildCurve measures a throughput/response trade-off curve.
	BuildCurve = core.BuildCurve
	// NewTuner creates an adaptive-α tuner with a throughput tolerance.
	NewTuner = core.NewTuner
	// NewSaturationEstimator creates an arrival-rate EWMA estimator.
	NewSaturationEstimator = core.NewSaturationEstimator
	// NewAdaptive wraps a Live engine with saturation-driven α retuning.
	NewAdaptive = core.NewAdaptive
)

// ---- Multi-tenant serving layer ----

// Serving types; see internal/server for full documentation. The serving
// layer sits between clients and a Live engine and provides per-tenant
// token-bucket admission control, a deficit-round-robin fair queue across
// tenants, bounded queues with explicit backpressure (OverloadError with a
// retry-after), and deadline/cancellation threading into the engine's
// workload queues (Live.SubmitCtx / Live.Cancel).
type (
	// Server is the admission-control + fair-queueing layer.
	Server = server.Server
	// ServerConfig configures a Server (rates, queue depths, tenants).
	ServerConfig = server.Config
	// TenantConfig declares one tenant's limits and DRR weight.
	TenantConfig = server.TenantConfig
	// ServerStats is a serving-layer snapshot with per-tenant breakdowns.
	ServerStats = server.Stats
	// TenantStats is one tenant's breakdown, including a response-time
	// Summary sampled at bounded memory.
	TenantStats = server.TenantStats
	// OverloadError is the backpressure signal (reason + retry-after).
	OverloadError = server.OverloadError
	// Gateway is the HTTP+JSON front door (/v1/query, /v1/stats,
	// /metrics, /healthz).
	Gateway = server.Gateway
	// GatewayConfig configures a Gateway.
	GatewayConfig = server.GatewayConfig
	// MetricRegistry collects metric families and serves them in
	// Prometheus text format (internal/metric); wire one through
	// ServerConfig.Registry and GatewayConfig.Registry to expose
	// /metrics. docs/OPERATIONS.md documents every exported family.
	MetricRegistry = metric.Registry
)

// Admission rejection reasons carried by OverloadError.
const (
	OverloadRate    = server.OverloadRate
	OverloadQueue   = server.OverloadQueue
	OverloadTenants = server.OverloadTenants
)

var (
	// NewServer starts a serving layer over a Live engine.
	NewServer = server.New
	// NewGateway builds the HTTP handler over a query executor.
	NewGateway = server.NewGateway
	// ErrServerClosed is returned by Server.Submit after Close.
	ErrServerClosed = server.ErrClosed
	// NewMetricRegistry creates an empty metric registry.
	NewMetricRegistry = metric.NewRegistry
	// NewEngineMetrics registers the engine metric families on a
	// registry; hand the result to Config.Metrics to instrument an
	// engine (nil Metrics — the default — costs nothing).
	NewEngineMetrics = core.NewEngineMetrics
)

// ---- Catalogs (synthetic sky archives) ----

type (
	// Catalog is a lazily-materialized synthetic archive.
	Catalog = catalog.Catalog
	// CatalogConfig describes a base survey.
	CatalogConfig = catalog.Config
	// DerivedConfig describes a re-observation of a base survey.
	DerivedConfig = catalog.DerivedConfig
	// Object is one catalog observation.
	Object = catalog.Object
	// Density is a relative sky-density profile.
	Density = catalog.Density
)

var (
	// NewCatalog builds a base survey.
	NewCatalog = catalog.New
	// NewDerivedCatalog builds a correlated re-observation (the only
	// kind of catalog pair cross-matching is meaningful between).
	NewDerivedCatalog = catalog.NewDerived
	// UniformDensity, BandDensity, HotspotsDensity, and SumDensity build
	// density profiles.
	UniformDensity  = catalog.Uniform
	BandDensity     = catalog.Band
	HotspotsDensity = catalog.Hotspots
	SumDensity      = catalog.Sum
)

// ---- Partitioning and storage ----

type (
	// Partition is an equal-sized bucketing of a catalog (paper §3.1).
	Partition = bucket.Partition
	// Bucket is one equal-sized partition.
	Bucket = bucket.Bucket
	// Store serves buckets from the modeled disk or a real backend.
	Store = bucket.Store
	// StoreBackend is the pluggable storage layer under a Store; the
	// segment package provides the real-I/O file implementation.
	StoreBackend = bucket.Backend
	// DiskModel is the analytic seek/rotate/transfer cost model.
	DiskModel = disk.Model
	// Disk charges model costs to a clock and tracks statistics.
	Disk = disk.Disk
	// SegmentSet is an opened on-disk segment directory.
	SegmentSet = segment.Set
	// SegmentWriteOptions tunes segment building.
	SegmentWriteOptions = segment.WriteOptions
	// SegmentWriteStats reports what a segment build produced.
	SegmentWriteStats = segment.WriteStats
)

var (
	// WriteSegments materializes a partition into segment files.
	WriteSegments = segment.Write
	// EnsureSegments opens a segment directory, building it if missing.
	EnsureSegments = segment.Ensure
	// OpenSegments opens an existing segment directory.
	OpenSegments = segment.OpenSet
	// NewSegmentBackend adapts an opened segment set to a StoreBackend.
	NewSegmentBackend = segment.NewBackend
	// NewFileBackedConfig builds the real-I/O engine stack over a
	// segment directory (real clock, measured read costs).
	NewFileBackedConfig = core.NewFileBacked
	// NewFileBackedConfigFrom is NewFileBackedConfig over an
	// already-opened segment set (e.g. the one EnsureSegments
	// returned), taking ownership of it.
	NewFileBackedConfigFrom = core.NewFileBackedFrom
)

var (
	// NewPartition divides a catalog into equal-object-count buckets.
	NewPartition = bucket.NewPartition
	// NewStore builds a bucket store over a partition and disk.
	NewStore = bucket.NewStore
	// SkyQueryDisk returns the disk model calibrated to the paper's
	// measured constants (Tb = 1.2 s / 40 MB bucket, Tm = 0.13 ms).
	SkyQueryDisk = disk.SkyQuery
	// NewDisk wires a model to a clock.
	NewDisk = disk.New
)

// CachePolicy names a bucket-cache replacement policy.
type CachePolicy = cache.PolicyName

// Cache replacement policies.
const (
	CacheLRU      = cache.PolicyLRU
	CacheClock    = cache.PolicyClock
	CacheTwoQueue = cache.PolicyTwoQueue
)

// ---- Cross-match join ----

type (
	// WorkloadObject is one cross-match request with its HTM bounds.
	WorkloadObject = xmatch.WorkloadObject
	// Pair is one successful cross-match.
	Pair = xmatch.Pair
	// Predicate filters pairs that succeed in the spatial join.
	Predicate = xmatch.Predicate
)

var (
	// NewWorkloadObject wraps a remote object with its error-cap bounds.
	NewWorkloadObject = xmatch.NewWorkloadObject
	// MergeJoin is the HTM-sorted plane-sweep join (scan strategy).
	MergeJoin = xmatch.MergeJoin
	// IndexJoin is the probing join (index strategy).
	IndexJoin = xmatch.IndexJoin
	// MagnitudeWindow builds a photometric-cut predicate.
	MagnitudeWindow = xmatch.MagnitudeWindow
)

// ---- Workload generation ----

type (
	// Query is one trace query.
	Query = workload.Query
	// TraceConfig parameterizes trace generation.
	TraceConfig = workload.TraceConfig
	// Trace is a generated query sequence.
	Trace = workload.Trace
	// Arrivals produces arrival-time offsets.
	Arrivals = workload.Arrivals
	// PoissonArrivals, UniformArrivals, and BurstyArrivals are the
	// built-in arrival processes.
	PoissonArrivals = workload.Poisson
	UniformArrivals = workload.Uniform
	BurstyArrivals  = workload.Bursty
)

var (
	// DefaultTraceConfig is calibrated to the published SkyQuery trace
	// statistics (Figures 5-6).
	DefaultTraceConfig = workload.DefaultTraceConfig
	// GenerateTrace produces a deterministic query trace.
	GenerateTrace = workload.Generate
	// MaterializeQuery converts a trace query into workload objects.
	MaterializeQuery = workload.Materialize
)

// ---- Federation (SkyQuery-style) ----

type (
	// FedNode is one archive site running a LifeRaft engine.
	FedNode = federation.Node
	// FedNodeConfig configures a node.
	FedNodeConfig = federation.NodeConfig
	// FedPortal plans and executes serial left-deep cross-matches.
	FedPortal = federation.Portal
	// FedQuery is a federation cross-match query.
	FedQuery = federation.Query
	// FedTransport reaches one archive (in-process or TCP).
	FedTransport = federation.Transport
	// FedInProc embeds a node in-process.
	FedInProc = federation.InProc
)

var (
	// NewFedNode builds and starts an archive node.
	NewFedNode = federation.NewNode
	// NewFedPortal returns an empty portal.
	NewFedPortal = federation.NewPortal
	// ServeFed serves a node over TCP.
	ServeFed = federation.Serve
	// DialFed connects to a remote node.
	DialFed = federation.Dial
)

// ---- SkyQL (the SkyQuery SQL dialect) ----

type (
	// SkyQL is a parsed SkyQL cross-match query.
	SkyQL = skyql.Query
)

var (
	// ParseSkyQL parses the SQL dialect SkyQuery exposed to astronomers.
	ParseSkyQL = skyql.Parse
	// CompileSkyQL lowers a parsed query to a federation query.
	CompileSkyQL = skyql.Compile
)

// ---- Time, geometry, metrics ----

type (
	// Clock abstracts time (virtual for experiments, real for serving).
	Clock = simclock.Clock
	// VirtualClock is the discrete-event clock.
	VirtualClock = simclock.Virtual
	// RealClock is the wall clock.
	RealClock = simclock.Real
	// Vec3 is a unit position vector on the celestial sphere.
	Vec3 = geom.Vec3
	// Cap is a spherical cap (circular sky region).
	Cap = geom.Cap
	// HTMID is a level-addressed trixel identifier.
	HTMID = htm.ID
	// Summary is a response-time summary with CoV and percentiles.
	Summary = stats.Summary
	// Curve is a throughput/response trade-off curve over α.
	Curve = stats.Curve
	// TradeoffPoint is one curve point.
	TradeoffPoint = stats.TradeoffPoint
)

var (
	// NewVirtualClock returns a virtual clock at the epoch.
	NewVirtualClock = simclock.NewVirtual
	// FromRaDec and ToRaDec convert equatorial coordinates.
	FromRaDec = geom.FromRaDec
	ToRaDec   = geom.ToRaDec
	// Radians converts degrees to radians.
	Radians = geom.Radians
	// ArcsecToRad converts cross-match radii.
	ArcsecToRad = geom.ArcsecToRad
	// NewCap builds a sky region.
	NewCap = geom.NewCap
	// HTMLookup returns the trixel containing a point.
	HTMLookup = htm.Lookup
	// CoverCap computes the HTM range cover of a region.
	CoverCap = htm.CoverCap
	// Summarize computes response-time statistics.
	Summarize = stats.Summarize
	// CumulativeShare and RankForShare compute workload-skew statistics.
	CumulativeShare = stats.CumulativeShare
	RankForShare    = stats.RankForShare
)
