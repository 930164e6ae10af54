package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"liferaft/internal/cache"
	"liferaft/internal/disk"
	"liferaft/internal/htm"
	"liferaft/internal/simclock"
	"liferaft/internal/trace"
	"liferaft/internal/xmatch"
)

// spillObjectBytes is the assumed on-disk footprint of one workload
// object (position, HTM range, query id) for the overflow extension.
const spillObjectBytes = 64

// item is one pending work unit: a workload object assigned to a bucket.
type item struct {
	wo      xmatch.WorkloadObject
	arrived time.Time
	// ageWeight depreciates this request's age in the scheduler metric
	// (QoS extension); 1 when the extension is off.
	ageWeight float64
}

// bqueue is the workload queue of one bucket (the W·j of §3.1).
type bqueue struct {
	idx     int
	items   []item
	spilled bool
	// ageFrontier holds the Pareto-dominant (arrived, ageWeight) points
	// of the queue: an item can only determine A(i) if no earlier item
	// has an equal-or-greater age weight. Items append in arrival order,
	// so the frontier's weights are strictly increasing; its length is
	// bounded by the number of distinct QoS weights, making the
	// scheduler's age computation O(frontier) instead of O(items).
	ageFrontier []agePoint

	// Incremental-index state (sched_index.go): the cached Ut(i) — kept
	// exact by refreshing on every event that can change it — plus this
	// queue's position in each maintained heap and the last pick epoch
	// that scored it.
	ut   float64
	pos  [numHeaps]int32
	seen uint64
}

type agePoint struct {
	arrived time.Time
	weight  float64
}

// scored is one pick candidate in the exhaustive-scan path; the backing
// slice is scheduler scratch so fallback picks stay allocation-free.
type scored struct {
	idx     int
	ut, age float64
}

// push appends an item and maintains the age frontier.
func (q *bqueue) push(it item) {
	q.items = append(q.items, it)
	n := len(q.ageFrontier)
	if n > 0 && q.ageFrontier[n-1].weight >= it.ageWeight {
		return // dominated: an older item ages at least as fast
	}
	q.ageFrontier = append(q.ageFrontier, agePoint{arrived: it.arrived, weight: it.ageWeight})
}

// rebuildFrontier recomputes the dominance frontier from the surviving
// items after a cancel removed some; items are still in arrival order, so
// the same dominance rule as push applies. The frontier slice is reused.
func rebuildFrontier(q *bqueue) {
	q.ageFrontier = q.ageFrontier[:0]
	for _, it := range q.items {
		n := len(q.ageFrontier)
		if n > 0 && q.ageFrontier[n-1].weight >= it.ageWeight {
			continue
		}
		q.ageFrontier = append(q.ageFrontier, agePoint{arrived: it.arrived, weight: it.ageWeight})
	}
}

// queryState tracks one in-flight query.
type queryState struct {
	job       Job
	arrived   time.Time
	remaining int
	result    Result
	// buckets records every bucket index this query fanned work out to
	// (the admission-time membership list), so cancel touches only the
	// owning queues instead of sweeping all of them. May contain
	// duplicates; cancel sorts and skips them.
	buckets []int
	// trace mirrors job.Trace (nil when the query is untraced).
	trace *trace.Trace
}

// scheduler is the workload manager plus join evaluator of Figure 3. It is
// not safe for concurrent use; Run and Live serialize access. The one part
// of it other goroutines reach is fj, under the rules forkJoin states.
type scheduler struct {
	cfg   Config
	cache cache.Cache[int, bucketObjects]

	queues  map[int]*bqueue
	queries map[uint64]*queryState
	preds   map[uint64]xmatch.Predicate

	// idx is the incremental scheduler index (sched_index.go). nil runs
	// the reference implementation — the seed's exhaustive scans — which
	// the golden-equivalence test and the old-vs-new benchmarks compare
	// against; dropIndex switches a fresh scheduler into that mode.
	idx *schedIndex
	// pendingItems counts queued workload objects across all queues
	// (including spilled ones), making pendingWork O(1).
	pendingItems int

	rrNext     int
	memObjects int
	stats      RunStats

	// cancelVisited counts the bucket queues examined by cancel — a test
	// hook proving cancels touch only the cancelled query's queues.
	cancelVisited int
	// pickFallbacks counts indexed picks that exceeded the threshold
	// walk's pop budget and fell back to the exhaustive scan.
	pickFallbacks int

	// Scratch reused across service-loop iterations so a steady-state
	// step performs no allocations. The slice step returns aliases
	// completedBuf and is valid only until the next step; both engine
	// loops consume it immediately.
	wosBuf       []xmatch.WorkloadObject
	rangesBuf    []htm.Range
	seenBuf      map[uint64]int
	completedBuf []Result
	bisBuf       []int
	scoredBuf    []scored
	qPool        queuePool
	// qsPool holds the state of queries that completed here, for admit to
	// reuse with its buckets list.
	qsPool []*queryState

	// fj is the join-and-charge step of the service in progress (parts.go),
	// with the pair buffers every service reuses. offers, set by Live on the
	// schedulers of a K > 1 engine and nil otherwise, is where this
	// scheduler wakes idle sibling workers to a service it has split; with
	// no one to wake, every service is one part.
	fj     forkJoin
	offers chan<- struct{}

	// tbSec and tmSec are the empirical constants of Eq. 1 derived from
	// the disk model at construction.
	tbSec float64
	tmSec float64

	// obs holds this shard's resolved metric handles; nil (the default)
	// skips all instrumentation, keeping the service loop zero-alloc and
	// bit-identical to the uninstrumented engine.
	obs *EngineObs

	// ramBucketBytes sizes the cache bytes gauge (cached buckets x
	// nominal bucket size).
	ramBucketBytes float64
	// lastLedger is the disk account as of the last step, so each step
	// adds only its own share to the disk-model counters.
	lastLedger disk.Ledger

	// traced counts in-flight queries carrying a trace. While zero —
	// tracing disabled or no traced query admitted — the service loop
	// skips every span-recording branch, keeping its steady state
	// zero-alloc. svcTraceID carries the last serviced traced query's ID
	// out of serviceBucket so step can attach it to the pick-latency
	// histogram as an exemplar.
	traced     int
	svcTraceID trace.ID
}

func newScheduler(cfg Config) (*scheduler, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	c, err := cache.New[int, bucketObjects](cfg.CachePolicy, cfg.CacheBuckets)
	if err != nil {
		return nil, err
	}
	part := cfg.Store.Partition()
	if part.NumBuckets() == 0 {
		return nil, fmt.Errorf("core: partition has no buckets")
	}
	tb, tm := cfg.Disk.Model().Calibrate(part.BucketBytes(0))
	s := &scheduler{
		cfg:     cfg,
		cache:   c,
		queues:  make(map[int]*bqueue),
		queries: make(map[uint64]*queryState),
		preds:   make(map[uint64]xmatch.Predicate),
		idx:     newSchedIndex(cfg, part.NumBuckets()),
		seenBuf: make(map[uint64]int),
		tbSec:   tb.Seconds(),
		tmSec:   tm.Seconds(),
	}
	s.fj.preds, s.fj.materialize = s.preds, cfg.MaterializeResults
	// Policy evictions flip φ(i) for the evicted bucket; the hook keeps
	// that bucket's cached Ut in sync (admissions are the scheduler's
	// own cachePut calls). The evicted array goes back to the store: the
	// cache held its one view, and the store overwrites it no earlier than
	// this shard's next ReadBucket, which follows the current service's
	// fj.finish, so no part, helper or join can still be reading it.
	s.cache.OnEvict(func(k int, objs bucketObjects) {
		s.cfg.Store.Recycle(objs)
		s.noteCacheChange(k)
		if s.obs != nil {
			s.obs.cacheEvict.Inc()
		}
	})
	if cfg.Metrics != nil {
		s.obs = cfg.Metrics.Shard(cfg.shardIndex)
		// The store observer sees every read this engine issues; each
		// shard owns its forked store, so the handles never cross shards.
		cfg.Store.SetObserver(s.obs)
		s.ramBucketBytes = float64(part.BucketBytes(0))
	}
	return s, nil
}

// dropIndex switches a freshly built scheduler to the reference
// implementation: exhaustive scans for every pick, spill-victim and
// pending-work decision. Must be called before the first admit. The
// golden-equivalence test drives a dropped scheduler next to an indexed
// one to prove their decision sequences bit-identical.
func (s *scheduler) dropIndex() { s.idx = nil }

// queuePool holds released queues as a max-heap on item capacity. A new
// queue takes the largest items array on hand: the queue released last is
// as often as not a cold bucket's few items, while a hot bucket's queue
// grows to hundreds, and growing it again from a small array is most of
// what pushes allocate.
type queuePool []*bqueue

func (p *queuePool) push(q *bqueue) {
	h := append(*p, q)
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if cap(h[up].items) >= cap(h[i].items) {
			break
		}
		h[up], h[i] = h[i], h[up]
		i = up
	}
	*p = h
}

// pop removes and returns the queue with the most item capacity; the pool
// must not be empty.
func (p *queuePool) pop() *bqueue {
	h := *p
	top, n := h[0], len(h)-1
	h[0], h[n] = h[n], nil
	h = h[:n]
	for i := 0; ; {
		big := i
		for c := 2*i + 1; c <= 2*i+2 && c < n; c++ {
			if cap(h[c].items) > cap(h[big].items) {
				big = c
			}
		}
		if big == i {
			break
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
	*p = h
	return top
}

// newQueue takes a recycled bqueue from the pool (or allocates one) and
// resets it for bucket bi.
func (s *scheduler) newQueue(bi int) *bqueue {
	var q *bqueue
	if len(s.qPool) > 0 {
		q = s.qPool.pop()
	} else {
		q = &bqueue{}
	}
	q.idx = bi
	q.spilled = false
	q.ut = 0
	for i := range q.pos {
		q.pos[i] = -1
	}
	return q
}

// releaseQueue returns an emptied, detached queue (and its item and
// frontier capacity) to the pool.
func (s *scheduler) releaseQueue(q *bqueue) {
	q.items = q.items[:0]
	q.ageFrontier = q.ageFrontier[:0]
	s.qPool.push(q)
}

// pushItem enqueues one work unit on bucket bi, creating the queue if
// needed, and keeps every maintained index ordering in sync.
func (s *scheduler) pushItem(bi int, it item) {
	q := s.queues[bi]
	isNew := q == nil
	if isNew {
		q = s.newQueue(bi)
		s.queues[bi] = q
	}
	q.push(it)
	s.pendingItems++
	if !q.spilled {
		s.memObjects++
	}
	if s.idx == nil {
		return
	}
	if isNew {
		if s.idx.needsUt() {
			q.ut = s.workloadThroughput(q)
		}
		s.idx.insert(q)
		return
	}
	if s.idx.needsUt() {
		s.refreshUt(q)
	}
	s.idx.lenChanged(q)
	// The age ordering keys on the frontier head, which an append-only
	// push never displaces — no age fix needed.
}

// detachQueue removes a queue from the map and every index ordering; the
// caller settles pendingItems/memObjects and recycles the queue.
func (s *scheduler) detachQueue(q *bqueue) {
	delete(s.queues, q.idx)
	if s.idx != nil {
		s.idx.remove(q)
	}
}

// refreshUt recomputes the cached Ut(i) and re-heaps the orderings keyed
// on it. The cached value is always the output of workloadThroughput, so
// indexed picks see bit-identical floats to a fresh exhaustive scan.
func (s *scheduler) refreshUt(q *bqueue) {
	q.ut = s.workloadThroughput(q)
	s.idx.utChanged(q)
}

// noteCacheChange records a bucket-cache membership change for bucket k:
// φ(k) flipped, so the bucket's queue (if any) gets a fresh Ut. Wired to
// the cache's eviction hook; cachePut calls it for admissions.
func (s *scheduler) noteCacheChange(k int) {
	if s.idx == nil || !s.idx.needsUt() {
		return
	}
	if q := s.queues[k]; q != nil {
		s.refreshUt(q)
	}
}

// cachePut inserts into the bucket cache and keeps the Ut index in sync:
// evictions arrive via the OnEvict hook, the admission via the explicit
// noteCacheChange. All scheduler cache inserts must go through here.
func (s *scheduler) cachePut(k int, v bucketObjects) {
	s.cache.Put(k, v)
	s.noteCacheChange(k)
}

// admit pre-processes a job: every workload object is assigned to the
// queue of each bucket its bounding HTM range overlaps (the Query
// Pre-Processor of Figure 3) and this shard owns — job.Objects is the
// whole query's list, shared with the other shards and only read. Queries
// with no overlapping work complete immediately.
func (s *scheduler) admit(job Job, arrived time.Time) (done *Result) {
	if _, dup := s.queries[job.ID]; dup {
		panic(fmt.Sprintf("core: duplicate query ID %d", job.ID))
	}
	// job.Objects is the whole query's; share is how many of them have
	// work here, which is what this shard's view of the query is sized by.
	share := job.share
	if share == 0 {
		share = len(job.Objects)
	}
	qs := s.newQueryState()
	*qs = queryState{
		job:     job,
		arrived: arrived,
		result:  Result{QueryID: job.ID, Arrived: arrived, Pairs: job.region},
		buckets: slices.Grow(qs.buckets[:0], share),
		trace:   job.Trace,
	}
	part := s.cfg.Store.Partition()
	weight := s.ageWeight(share)
	for _, wo := range job.Objects {
		s.bisBuf = part.AppendBucketsForRanges(s.bisBuf[:0], wo.Ranges())
		for _, bi := range s.bisBuf {
			if s.cfg.ownsBucket != nil && !s.cfg.ownsBucket(bi) {
				continue // another shard's bucket
			}
			s.pushItem(bi, item{wo: wo, arrived: arrived, ageWeight: weight})
			qs.buckets = append(qs.buckets, bi)
			qs.remaining++
			qs.result.Assignments++
		}
	}
	qs.trace.Add(trace.Span{
		Stage: trace.StageEngineAdmit, Start: arrived, End: arrived,
		N: int64(qs.result.Assignments),
	})
	if qs.remaining == 0 {
		qs.result.Completed = arrived
		return &qs.result
	}
	if qs.trace != nil {
		s.traced++
	}
	s.queries[job.ID] = qs
	if job.Pred != nil {
		s.preds[job.ID] = job.Pred
	}
	s.maybeSpill()
	return nil
}

// newQueryState takes a completed query's state from the pool (or
// allocates one); admit overwrites every field but the buckets array.
func (s *scheduler) newQueryState() *queryState {
	n := len(s.qsPool)
	if n == 0 {
		return &queryState{}
	}
	qs := s.qsPool[n-1]
	s.qsPool = s.qsPool[:n-1]
	return qs
}

// releaseQueryState returns the state of a query that completed — its
// Result already copied out — to the pool, keeping only its buckets array.
func (s *scheduler) releaseQueryState(qs *queryState) {
	*qs = queryState{buckets: qs.buckets[:0]}
	s.qsPool = append(s.qsPool, qs)
}

// ageWeight implements the QoS age-depreciation extension (§6).
func (s *scheduler) ageWeight(objects int) float64 {
	g := s.cfg.AgeDepreciationGamma
	if g == 0 {
		return 1
	}
	return 1 / (1 + g*math.Log1p(float64(objects)))
}

// maybeSpill enforces the workload memory cap by spilling the queues
// least likely to be scheduled soon (lowest workload throughput) to disk.
func (s *scheduler) maybeSpill() {
	cap := s.cfg.WorkloadMemoryCap
	if cap == 0 || s.memObjects <= cap {
		return
	}
	for s.memObjects > cap {
		victim := s.spillVictim()
		if victim == nil {
			return // everything already spilled
		}
		victim.spilled = true
		if s.idx != nil && s.idx.spill != nil {
			s.idx.spill.remove(victim)
		}
		s.memObjects -= len(victim.items)
		s.stats.SpilledObjects += int64(len(victim.items))
		s.cfg.Disk.ReadSequential(int64(len(victim.items)) * spillObjectBytes) // write cost ≈ read cost
	}
}

// spillVictim selects the non-spilled queue with the lowest Ut(i) — the
// head of the spill ordering, or an exhaustive scan in reference mode.
// Ties break toward the lower bucket index in both paths.
func (s *scheduler) spillVictim() *bqueue {
	if s.idx != nil && s.idx.spill != nil {
		if s.idx.spill.len() == 0 {
			return nil
		}
		return s.idx.spill.head()
	}
	return s.spillVictimScan()
}

// spillVictimScan is the reference O(B) victim selection.
func (s *scheduler) spillVictimScan() *bqueue {
	var victim *bqueue
	worst := math.Inf(1)
	for _, q := range s.queues {
		if q.spilled || len(q.items) == 0 {
			continue
		}
		ut := s.workloadThroughput(q)
		if ut < worst || (ut == worst && (victim == nil || q.idx < victim.idx)) {
			worst, victim = ut, q
		}
	}
	return victim
}

// cancel withdraws an in-flight query: every workload object it still has
// queued is removed from the bucket queues (freeing the slots for other
// queries), its state is dropped, and a Result with Cancelled set is
// returned carrying whatever partial work completed before the cancel.
// Cancelling an unknown (or already completed) query returns nil.
//
// Only the queues on the query's admission-time membership list are
// touched, so cancelling a small query costs O(its own assignments), not
// O(all queued work).
func (s *scheduler) cancel(qid uint64, now time.Time) *Result {
	qs := s.queries[qid]
	if qs == nil {
		return nil
	}
	sort.Ints(qs.buckets)
	prev := -1
	for _, bi := range qs.buckets {
		if bi == prev {
			continue // duplicate membership entry
		}
		prev = bi
		q := s.queues[bi]
		if q == nil {
			continue // queue serviced (or emptied) since admission
		}
		s.cancelVisited++
		kept := q.items[:0]
		removed := 0
		for _, it := range q.items {
			if it.wo.QueryID == qid {
				removed++
				continue
			}
			kept = append(kept, it)
		}
		if removed == 0 {
			continue
		}
		q.items = kept
		s.pendingItems -= removed
		if !q.spilled {
			s.memObjects -= removed
		}
		s.stats.CancelledObjects += int64(removed)
		qs.remaining -= removed
		if len(q.items) == 0 {
			s.detachQueue(q)
			s.releaseQueue(q)
			continue
		}
		rebuildFrontier(q)
		if s.idx != nil {
			if s.idx.needsUt() {
				s.refreshUt(q)
			}
			s.idx.lenChanged(q)
			s.idx.ageKeyChanged(q)
		}
	}
	if qs.remaining != 0 {
		panic(fmt.Sprintf("core: query %d cancelled with %d unaccounted objects", qid, qs.remaining))
	}
	if qs.trace != nil {
		s.traced--
		qs.trace.Add(trace.Span{Stage: trace.StageCancel, Start: now, End: now, Err: "cancelled"})
	}
	delete(s.queries, qid)
	delete(s.preds, qid)
	s.stats.Cancelled++
	qs.result.Completed = now
	qs.result.Cancelled = true
	return &qs.result
}

// pendingWork reports whether any queue holds items. O(1): admission,
// service, and cancel maintain the pendingItems counter.
func (s *scheduler) pendingWork() bool {
	return s.pendingItems > 0
}

// workloadThroughput computes Ut(i) of Eq. 1 in objects per second:
//
//	Ut(i) = |W·i| / (Tb·φ(i) + Tm·|W·i|)
//
// where φ(i) is 0 when bucket i is cached.
func (s *scheduler) workloadThroughput(q *bqueue) float64 {
	n := float64(len(q.items))
	if n == 0 {
		return 0
	}
	phi := 1.0
	if s.cache.Contains(q.idx) {
		phi = 0
	}
	return n / (s.tbSec*phi + s.tmSec*n)
}

// age returns A(i): the (possibly depreciated) age in seconds of the
// oldest request in the queue, computed from the dominance frontier.
func (s *scheduler) age(q *bqueue, now time.Time) float64 {
	oldest := 0.0
	for _, p := range q.ageFrontier {
		if a := now.Sub(p.arrived).Seconds() * p.weight; a > oldest {
			oldest = a
		}
	}
	return oldest
}

// pick selects the next bucket to service per the configured policy.
// ok is false when no queue has work. The indexed paths and their scan
// references make identical decisions (golden_test.go); the scans remain
// both as the fallback where the index cannot order queues (QoS age
// weights, see DESIGN-sched-index.md §4) and as the benchmark baseline.
func (s *scheduler) pick(now time.Time) (int, bool) {
	switch s.cfg.Policy {
	case PolicyRoundRobin:
		if s.idx != nil {
			return s.pickRoundRobinIndexed()
		}
		return s.pickRoundRobinScan()
	case PolicyLeastShared:
		if s.idx != nil {
			return s.pickLeastSharedIndexed()
		}
		return s.pickLeastSharedScan()
	default:
		if s.idx != nil && s.idx.exactAge {
			return s.pickLifeRaftIndexed(now)
		}
		return s.pickLifeRaftScan(now)
	}
}

// pickLifeRaftScan evaluates the aged workload throughput metric (Eq. 2)
// over all non-empty queues:
//
//	Ua(i) = Ût(i)·(1-α) + Â(i)·α
//
// where Ût and Â are Ut and A normalized to [0,1] over the current
// non-empty queues (DESIGN.md §3 explains the normalization), and returns
// the argmax. Ties break toward the lower bucket index, making schedules
// deterministic. This is the seed's exhaustive O(B) pick, kept as the
// reference for pickLifeRaftIndexed and as the QoS fallback.
func (s *scheduler) pickLifeRaftScan(now time.Time) (int, bool) {
	maxUt, maxAge := 0.0, 0.0
	cands := s.scoredBuf[:0]
	for _, q := range s.queues {
		if len(q.items) == 0 {
			continue
		}
		ut := s.workloadThroughput(q)
		age := s.age(q, now)
		cands = append(cands, scored{q.idx, ut, age})
		if ut > maxUt {
			maxUt = ut
		}
		if age > maxAge {
			maxAge = age
		}
	}
	s.scoredBuf = cands
	if len(cands) == 0 {
		return 0, false
	}
	alpha := s.cfg.Alpha
	best, bestScore := -1, -1.0
	for _, c := range cands {
		score := 0.0
		if maxUt > 0 {
			score += (1 - alpha) * c.ut / maxUt
		}
		if maxAge > 0 {
			score += alpha * c.age / maxAge
		}
		if score > bestScore || (score == bestScore && (best < 0 || c.idx < best)) {
			best, bestScore = c.idx, score
		}
	}
	return best, true
}

// pickRoundRobinIndexed services non-empty buckets cyclically in HTM ID
// order using the ordered non-empty set: one circular successor query
// instead of scanning every bucket index.
func (s *scheduler) pickRoundRobinIndexed() (int, bool) {
	n := s.cfg.Store.Partition().NumBuckets()
	i := s.idx.nonEmpty.nextFrom(s.rrNext % n)
	if i < 0 {
		i = s.idx.nonEmpty.nextFrom(0) // wrap: any non-empty bucket is below rrNext
	}
	if i < 0 {
		return 0, false
	}
	s.rrNext = i + 1
	return i, true
}

// pickRoundRobinScan is the seed's O(NumBuckets) round-robin pick
// (§5: the RR baseline), kept as the reference implementation.
func (s *scheduler) pickRoundRobinScan() (int, bool) {
	n := s.cfg.Store.Partition().NumBuckets()
	for off := 0; off < n; off++ {
		idx := (s.rrNext + off) % n
		if q, ok := s.queues[idx]; ok && len(q.items) > 0 {
			s.rrNext = idx + 1
			return idx, true
		}
	}
	return 0, false
}

// pickLeastSharedIndexed selects the non-empty queue with the fewest
// pending objects — the head of the length ordering.
func (s *scheduler) pickLeastSharedIndexed() (int, bool) {
	if s.idx.lens.len() == 0 {
		return -1, false
	}
	return s.idx.lens.head().idx, true
}

// pickLeastSharedScan selects the non-empty queue with the fewest pending
// objects (ties toward the lower index): jobs that benefit least from
// future co-scheduling run first, after Agrawal et al.'s least-sharable
// policy for shared file scans (paper §6). Reference implementation.
func (s *scheduler) pickLeastSharedScan() (int, bool) {
	best, bestLen := -1, 0
	for _, q := range s.queues {
		n := len(q.items)
		if n == 0 {
			continue
		}
		if best < 0 || n < bestLen || (n == bestLen && q.idx < best) {
			best, bestLen = q.idx, n
		}
	}
	return best, best >= 0
}

// step services one bucket: it selects per policy, runs the hybrid join
// evaluator charging all I/O and match costs, and returns the queries
// completed by this batch. ok is false when no work was pending.
//
// The returned slice aliases scheduler scratch and is valid only until
// the next step (or serviceBucket) call; both engine loops consume it
// immediately (run.go appends the values, live.go delivers them).
func (s *scheduler) step(now time.Time) (completed []Result, ok bool) {
	if s.obs != nil {
		t0 := time.Now()
		idx, ok := s.pick(now)
		d := time.Since(t0).Seconds()
		if !ok {
			s.obs.pick.Observe(d)
			return nil, false
		}
		// When the service touches a traced query, attach its trace ID to
		// the pick-latency observation as an exemplar — a slow pick on a
		// dashboard then links to a full schedule forensics capture.
		s.svcTraceID = 0
		completed = s.serviceBucket(idx, now)
		if s.svcTraceID != 0 {
			s.obs.pick.ObserveExemplar(d, s.svcTraceID.String())
		} else {
			s.obs.pick.Observe(d)
		}
		s.obs.cacheBytes.Set(float64(s.cache.Len()) * s.ramBucketBytes)
		s.observeLedger()
		return completed, true
	}
	idx, ok := s.pick(now)
	if !ok {
		return nil, false
	}
	return s.serviceBucket(idx, now), true
}

// observeLedger adds what this arm's disk account has moved by since the
// last call — its own services' charges and the parts it ran for sibling
// shards — to the disk-model counters.
func (s *scheduler) observeLedger() {
	if s.obs == nil {
		return
	}
	led := s.cfg.Disk.Ledger()
	s.obs.modelCharged.Add((led.Charged - s.lastLedger.Charged).Seconds())
	s.obs.modelSlept.Add((led.Slept - s.lastLedger.Slept).Seconds())
	s.obs.modelCredited.Add((led.Credited - s.lastLedger.Credited).Seconds())
	s.lastLedger = led
}

// offer wakes up to k idle sibling workers to the service fj has just
// published. A token nobody takes before the service ends is harmless: the
// worker it later wakes looks, finds nothing to claim, and sleeps again.
func (s *scheduler) offer(k int) {
	for ; k > 0; k-- {
		select {
		case s.offers <- struct{}{}:
		default:
			return // a wake-up is already waiting for every sibling
		}
	}
}

// serviceBucket runs the join evaluator for one picked bucket. Split from
// step so the golden-equivalence test can interpose on the pick.
func (s *scheduler) serviceBucket(idx int, now time.Time) []Result {
	q := s.queues[idx]
	// Tracing state, all gated on at least one traced query being in
	// flight so the untraced steady state pays one integer compare and
	// nothing else. The Ut score is computed before any queue mutation so
	// the span records the value the pick saw.
	traced := s.traced > 0
	var svcUt float64
	if traced {
		svcUt = s.workloadThroughput(q)
	}
	items := q.items
	s.pendingItems -= len(items)
	s.detachQueue(q)
	if q.spilled {
		// Fetch the spilled queue back from disk.
		s.stats.SpillFetches++
		s.cfg.Disk.ReadSequential(int64(len(items)) * spillObjectBytes)
	} else {
		s.memObjects -= len(items)
	}

	part := s.cfg.Store.Partition()
	bucketLen := part.Bucket(idx).Count()
	count := len(items)

	// The Join Evaluator: hybrid strategy per §3.4.
	objs, inMem := s.cache.Get(idx)
	if s.obs != nil {
		if inMem {
			s.obs.cacheHits.Inc()
		} else {
			s.obs.cacheMiss.Inc()
		}
	}
	strategy := xmatch.ChooseStrategy(count, bucketLen, s.cfg.HybridThreshold, inMem)
	wos := s.wosBuf[:0]
	for _, it := range items {
		wos = append(wos, it.wo)
	}
	s.wosBuf = wos
	var readT0, readT1 time.Time
	var readKind string
	switch strategy {
	case xmatch.Scan:
		if !inMem {
			if traced {
				readT0 = s.cfg.Clock.Now()
			}
			objs, _ = s.cfg.Store.ReadBucket(idx)
			if traced {
				readT1, readKind = s.cfg.Clock.Now(), "scan"
			}
			s.cachePut(idx, objs)
		}
		s.stats.ScanServices++
		if s.obs != nil {
			s.obs.scanSvc.Inc()
		}
	case xmatch.Index:
		if traced {
			readT0 = s.cfg.Clock.Now()
		}
		// One probe per queued object, keyed by the IDs its error circle
		// reaches in this bucket (its bounding range, unless that runs on
		// past the bucket). A real backend returns only the granules
		// those ranges overlap, in a buffer it reuses on its next probe:
		// objs is not kept past the join (pairs copy the objects they
		// hold).
		span := part.Bucket(idx).Span
		ranges := s.rangesBuf[:0]
		for _, it := range items {
			ranges = append(ranges, it.wo.RangeIn(span))
		}
		s.rangesBuf = ranges
		objs, _ = s.cfg.Store.ProbeRanges(idx, ranges)
		if traced {
			readT1, readKind = s.cfg.Clock.Now(), "probe"
		}
		s.stats.IndexServices++
		if s.obs != nil {
			s.obs.indexSvc.Inc()
		}
	}
	s.stats.BucketsServed++
	var svcAttr string
	if traced {
		switch {
		case strategy == xmatch.Index:
			svcAttr = trace.AttrIndex
		case inMem:
			svcAttr = trace.AttrScanHit
		default:
			svcAttr = trace.AttrScanCold
		}
	}

	// Join, charge Tm per object, and distribute the results. A Scan
	// service whose queue fills two parts or more is cut into runs of the
	// queue in MinID order, the order the merge sweeps it in, and idle
	// sibling workers run some of them on their own arms; the owner waits
	// for every part, so what follows — fan-out, retire, completion — sees
	// the same pairs in the same order whoever ran which part.
	fj := &s.fj
	n := 1
	if strategy == xmatch.Scan {
		xmatch.SortQueue(wos)
		if s.offers != nil && count >= 2*servicePartUnits {
			n = (count + servicePartUnits - 1) / servicePartUnits
		}
	}
	fj.objs, fj.wos, fj.strategy, fj.start = objs, wos, strategy, s.cfg.Clock.Now()
	fj.begin(n)
	s.offer(n - 1)
	for i, mine := 0, true; mine; i, mine = fj.claim() {
		fj.run(i, s.cfg.Clock, s.cfg.Disk)
		if s.obs != nil {
			s.obs.partsOwn.Inc()
		}
	}
	// The service ends with its last part. On a virtual clock that part may
	// have run on a sibling's clock, ahead of this one: catch up, so no
	// query completes before work done for it.
	end := fj.finish(n)
	simclock.Join(s.cfg.Clock, end)
	// A part's pairs are its Joiner's buffer: each pair is copied to its
	// query — into this shard's region of the query's pair array, where the
	// front end carved one — before the next service reuses it. Runs of one
	// query's pairs share a lookup.
	var pairQS *queryState
	for p := range fj.parts[:n] {
		pairs := fj.parts[p].pairs
		for i := range pairs {
			if qid := pairs[i].QueryID; pairQS == nil || pairQS.result.QueryID != qid {
				pairQS = s.queries[qid]
			}
			pairQS.result.Pairs = append(pairQS.result.Pairs, pairs[i])
			pairQS.result.Matches++
		}
	}

	// Retire work units.
	seen := s.seenBuf
	clear(seen)
	for _, it := range items {
		seen[it.wo.QueryID]++
	}
	completed := s.completedBuf[:0]
	for qid, n := range seen {
		qs := s.queries[qid]
		if qs == nil {
			panic(fmt.Sprintf("core: work unit for unknown query %d", qid))
		}
		qs.remaining -= n
		if qs.trace != nil {
			var read *trace.Span
			if readKind != "" {
				read = &trace.Span{
					Stage: trace.StageStoreRead, Start: readT0, End: readT1,
					Attr: readKind, Key: int64(idx),
				}
			}
			qs.trace.ServiceVisit(trace.Span{
				Stage: trace.StageService, Start: now, End: end,
				Attr: svcAttr, N: int64(n), Key: int64(idx), Score: svcUt,
			}, read, inMem)
			s.svcTraceID = qs.trace.ID()
		}
		if qs.remaining < 0 {
			panic(fmt.Sprintf("core: query %d over-completed", qid))
		}
		if qs.remaining == 0 {
			if qs.trace != nil {
				s.traced--
			}
			qs.result.Completed = end
			completed = append(completed, qs.result)
			delete(s.queries, qid)
			delete(s.preds, qid)
			s.releaseQueryState(qs)
		}
	}
	s.completedBuf = completed
	s.releaseQueue(q)
	return completed
}

// finalize snapshots run statistics.
func (s *scheduler) finalize(makespan time.Duration, completed int) RunStats {
	st := s.stats
	st.Completed = completed
	st.Makespan = makespan
	st.Disk = s.cfg.Disk.Stats()
	st.Cache = s.cache.Stats()
	return st
}
