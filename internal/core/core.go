// Package core implements LifeRaft itself: the data-driven, batch query
// scheduler of the paper. It contains the architecture of Figure 3 —
// query pre-processor, workload manager, aged-workload-throughput
// scheduler, hybrid join evaluator, and bucket cache — plus the baseline
// schedulers the evaluation compares against (NoShare, round-robin, and
// the index-only approach SkyQuery used before LifeRaft).
//
// The engine runs against a simclock.Clock: with a virtual clock, hours of
// schedule replay in milliseconds and all costs come from the disk model
// (the configuration used by every experiment); with the real clock the
// same decision logic serves live queries (see Live).
package core

import (
	"fmt"
	"time"

	"liferaft/internal/bucket"
	"liferaft/internal/cache"
	"liferaft/internal/disk"
	"liferaft/internal/simclock"
	"liferaft/internal/trace"
	"liferaft/internal/xmatch"
)

// PolicyKind selects the scheduling discipline.
type PolicyKind string

// Scheduling policies evaluated in the paper (§5).
const (
	// PolicyLifeRaft schedules the bucket with the maximum aged workload
	// throughput metric (Eq. 2); Alpha sets the age bias.
	PolicyLifeRaft PolicyKind = "liferaft"
	// PolicyRoundRobin services non-empty buckets cyclically in HTM ID
	// order, the "RR" baseline proposed for SkyQuery.
	PolicyRoundRobin PolicyKind = "rr"
	// PolicyLeastShared services the bucket with the smallest workload
	// queue first — the "least sharable file first" discipline of
	// Agrawal et al. that §6 argues is wrong for scientific workloads
	// (it maximizes future batching at the cost of buffering). Included
	// for the policy ablation.
	PolicyLeastShared PolicyKind = "lsf"
)

// Config configures Run, NewLive, RunNoShare and RunIndexOnly.
type Config struct {
	// Store serves buckets. It determines everything the engine reads
	// and charges: the partition, the disk (Store.Disk) and its model,
	// the clock that disk charges (disk.Disk.Clock), which the engine
	// runs on, and whether queries get their pairs (Store.Materializing).
	Store *bucket.Store

	// Policy selects the scheduler; default PolicyLifeRaft.
	Policy PolicyKind
	// Alpha is the age bias of Eq. 2 in [0, 1]: 0 is the greedy
	// most-contentious-first scheduler, 1 completes work in arrival
	// order. Ignored by round-robin.
	Alpha float64
	// CacheBuckets is the bucket cache capacity (the paper fixes 20).
	// Minimum 1.
	CacheBuckets int
	// HybridThreshold is the queue-to-bucket ratio below which an
	// out-of-core bucket is joined via the index (paper §3.4; default
	// 0.03 per Figure 2).
	HybridThreshold float64

	// Shards is K, the number of independent disk/worker shards the
	// engine runs as: buckets are dealt to shards round-robin along the
	// HTM curve (bucket i to shard i mod K, see internal/shard), each
	// shard gets its own forked clock, disk, store, bucket cache, and
	// workload queues, and a worker services each shard's local
	// aged-workload-throughput schedule concurrently. A region query's
	// buckets are consecutive on the curve, so it has work on every
	// shard and its services run K abreast; its completion is the
	// completion of its last shard. A shard picks, reads and caches only
	// its own buckets, but in a Live engine the match work of one large
	// scan service is cut into parts that idle sibling workers also run,
	// on their own arms (see Live). 0 means 1: one shard owning every
	// bucket, the paper's single-disk engine, on the same code path as
	// any other K. Config.Store, its disk and its clock serve as
	// templates; each shard forks its own from them. Each shard's cache
	// holds CacheBuckets buckets (scaling out adds memory along with arms).
	Shards int
	// ownsBucket, when non-nil, restricts admission to the buckets a
	// shard owns. Set only by forkConfigs on the per-shard configs;
	// external callers cannot (and must not) set it.
	ownsBucket func(int) bool

	// Metrics, when non-nil, instruments the engine: pick latency,
	// service strategy, cache hit/miss, completions, and store read
	// latency are recorded per shard (internal/metric handles, resolved
	// once at construction; nil costs nothing on the hot path). Every
	// shard gets the same EngineMetrics with the shard's own index.
	Metrics *EngineMetrics
	// shardIndex is the shard's index in the engine: the label it reports
	// metrics under and its slot in a query's fan-in. Set by forkConfigs.
	shardIndex int

	// AgeDepreciationGamma enables the §6 QoS extension: the age of a
	// query's requests is depreciated by 1/(1+γ·ln(1+objects)) so large
	// batch queries do not starve interactive ones. 0 disables.
	AgeDepreciationGamma float64
	// WorkloadMemoryCap bounds the number of workload objects held in
	// memory (the §6 overflow extension). When the cap is exceeded the
	// queues of the coldest buckets spill to disk, paying sequential
	// write cost now and a fetch cost when scheduled. 0 disables.
	WorkloadMemoryCap int
}

// clock is the engine's time source: the one its disk charges.
func (c Config) clock() simclock.Clock { return c.Store.Disk().Clock() }

func (c Config) withDefaults() (Config, error) {
	if c.Store == nil {
		return c, fmt.Errorf("core: Config.Store is required")
	}
	if c.Store.Disk() == nil {
		return c, fmt.Errorf("core: Config.Store has no disk")
	}
	if _, virtual := c.clock().(*simclock.Virtual); virtual && c.Store.Backend() != nil {
		return c, fmt.Errorf("core: the store's backend does real I/O and must run on the real clock, not a virtual one")
	}
	if c.Policy == "" {
		c.Policy = PolicyLifeRaft
	}
	if c.Policy != PolicyLifeRaft && c.Policy != PolicyRoundRobin && c.Policy != PolicyLeastShared {
		return c, fmt.Errorf("core: unknown policy %q", c.Policy)
	}
	if !(c.Alpha >= 0 && c.Alpha <= 1) { // NaN too
		return c, fmt.Errorf("core: Alpha %v out of [0,1]", c.Alpha)
	}
	if c.CacheBuckets < 1 {
		c.CacheBuckets = 1
	}
	if c.HybridThreshold == 0 {
		c.HybridThreshold = xmatch.DefaultThreshold
	}
	if c.HybridThreshold < 0 || c.HybridThreshold >= 1 {
		return c, fmt.Errorf("core: HybridThreshold %v out of [0,1)", c.HybridThreshold)
	}
	if c.AgeDepreciationGamma < 0 {
		return c, fmt.Errorf("core: negative AgeDepreciationGamma")
	}
	if c.WorkloadMemoryCap < 0 {
		return c, fmt.Errorf("core: negative WorkloadMemoryCap")
	}
	if c.Shards < 0 {
		return c, fmt.Errorf("core: negative Shards")
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	return c, nil
}

// Job is one query as submitted to a node: the pre-processed list of
// workload objects plus an optional predicate. (The Query Pre-Processor of
// Figure 3 produces the Objects list; see workload.Materialize.)
type Job struct {
	ID uint64
	// Objects is shared, read-only, by every shard the query touches — the
	// engine's front end hands each of them this slice, not a copy of its
	// share of it: the caller must not modify it before the result arrives.
	Objects []xmatch.WorkloadObject
	// Pred filters the query's pairs. Every shard worker that joins work
	// of the query calls it, possibly at once: it must be safe for
	// concurrent use (a pure function of its arguments is).
	Pred xmatch.Predicate
	// Trace, when non-nil, collects per-stage spans for this query as the
	// scheduler services it (admission fan-out, bucket services with
	// strategy and Ut score, store reads, cache outcomes). nil — the
	// default — records nothing and costs nothing on the service loop.
	Trace *trace.Trace

	// share and region are the front end's (fanIn.job), set on the copy of
	// the job it hands one shard: how many of Objects have work on that
	// shard, and the stretch of the query's pair array that shard's pairs
	// go to. A scheduler handed a job without them — one driven directly,
	// with no front end before it — takes all of Objects for its share and
	// grows the pairs from nil.
	share  int
	region []xmatch.Pair
}

// Result reports one completed query.
type Result struct {
	QueryID   uint64
	Arrived   time.Time
	Completed time.Time
	// Matches is the number of successful cross-match pairs. It is zero
	// in cost-only mode, where joins are not materialized.
	Matches int
	// Assignments is the number of (object, bucket) work units the
	// query expanded to.
	Assignments int
	// Pairs holds the materialized matches when the engine's Store
	// materializes: shard by shard in shard order, in service order
	// within a shard, nil when there are none (and for a cancelled
	// query, the pairs found before the cancel). It is the one array the
	// front end allocated for the query at submission, sized from the
	// object count, which every shard appended its pairs into — the
	// result owns it, and its capacity may exceed its length by the room
	// the shards did not use.
	Pairs []xmatch.Pair
	// Cancelled marks a query withdrawn before completion (Live.Cancel,
	// or a SubmitCtx context expiring): its remaining workload objects
	// were dropped from the queues, and the counters above reflect only
	// the work done before the cancel. Completed is the cancel instant.
	Cancelled bool
}

// ResponseTime returns Completed - Arrived.
func (r Result) ResponseTime() time.Duration { return r.Completed.Sub(r.Arrived) }

// absorb merges another shard's partial result for the same query into r:
// work counters sum, the arrival is the earliest and the completion the
// latest across shards. Pairs are not its business: fanIn.result places
// them.
func (r *Result) absorb(o Result) {
	r.Assignments += o.Assignments
	r.Matches += o.Matches
	if o.Arrived.Before(r.Arrived) {
		r.Arrived = o.Arrived
	}
	if o.Completed.After(r.Completed) {
		r.Completed = o.Completed
	}
	// A query cancelled on any shard is cancelled as a whole: the merged
	// result carries only the work done before the (first) cancel.
	r.Cancelled = r.Cancelled || o.Cancelled
}

// RunStats aggregates a run.
type RunStats struct {
	Completed     int
	Makespan      time.Duration
	Disk          disk.Stats
	Cache         cache.Stats
	BucketsServed int64
	ScanServices  int64
	IndexServices int64
	// SpilledObjects counts workload objects written to disk by the
	// overflow extension; SpillFetches counts queue fetch-backs.
	SpilledObjects int64
	SpillFetches   int64
	// Cancelled counts queries withdrawn before completion (merged across
	// shards by the sharded Live engine, so a query cancelled on several
	// shards counts once). CancelledObjects counts the workload objects
	// dropped from the queues by those cancellations.
	Cancelled        int
	CancelledObjects int64
	// PerShard breaks the run down by shard: K entries for a K-shard
	// engine, so one entry for the default single shard (nil only on the
	// per-shard Stats inside it, and for the NoShare/IndexOnly
	// baselines). The aggregate fields above are the merged view:
	// counters sum across shards and Makespan is the latest shard
	// finish, so Throughput reflects the parallel wall clock.
	PerShard []ShardStats
}

// ShardStats is one shard's slice of a run.
type ShardStats struct {
	// Shard is the shard index in [0, Config.Shards).
	Shard int
	// Buckets is how many buckets of the partition the shard owns.
	Buckets int
	// Jobs is how many queries fanned work out to this shard.
	Jobs int
	// Stats is the shard's own engine statistics, measured on its own
	// clock and disk. Services, cache and read counts are of the buckets
	// the shard owns; Disk.Matches and Disk.BusyTime are of the arm, which
	// in a Live engine also runs parts of sibling shards' split services
	// (and hands out parts of its own), so they sum to the engine's match
	// work across shards but need not equal this shard's assignments.
	Stats RunStats
}

// Throughput returns completed queries per second of makespan.
func (s RunStats) Throughput() float64 {
	if s.Makespan <= 0 {
		return 0
	}
	return float64(s.Completed) / s.Makespan.Seconds()
}

// String implements fmt.Stringer.
func (s RunStats) String() string {
	return fmt.Sprintf("completed=%d makespan=%v throughput=%.4f/s services=%d (scan=%d index=%d) cache=[%v]",
		s.Completed, s.Makespan.Round(time.Millisecond), s.Throughput(),
		s.BucketsServed, s.ScanServices, s.IndexServices, s.Cache)
}

// newConfig is the one builder behind every exported constructor: a disk
// with the SkyQuery model on clk, a store over the partition (materializing
// if materialize is set) served by backend (nil: the analytic disk model),
// and a Config pre-filled with paper defaults (LifeRaft policy, 20-bucket
// LRU cache, 3% hybrid threshold).
func newConfig(part *bucket.Partition, alpha float64, materialize bool, clk simclock.Clock, backend bucket.Backend) Config {
	return Config{
		Store:           bucket.NewStore(part, disk.New(disk.SkyQuery(), clk), materialize).WithBackend(backend),
		Policy:          PolicyLifeRaft,
		Alpha:           alpha,
		CacheBuckets:    20,
		HybridThreshold: xmatch.DefaultThreshold,
	}
}

// NewVirtual builds the standard experiment stack: the paper-default
// Config (see newConfig) over the simulated disk on a fresh virtual clock.
func NewVirtual(part *bucket.Partition, alpha float64, materialize bool) (Config, *simclock.Virtual) {
	clk := simclock.NewVirtual()
	return newConfig(part, alpha, materialize, clk, nil), clk
}

// NewOn is NewVirtual generalized to a caller-provided clock: federation
// nodes pass the real clock (deployments) or a shared virtual clock
// (experiments).
func NewOn(part *bucket.Partition, alpha float64, materialize bool, clk simclock.Clock) Config {
	return newConfig(part, alpha, materialize, clk, nil)
}
