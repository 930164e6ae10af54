package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"liferaft/internal/bucket"
	"liferaft/internal/cache"
	"liferaft/internal/disk"
	"liferaft/internal/htm"
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
	// slot is this queue's position in scheduler.active.
	slot int
}

type agePoint struct {
	arrived time.Time
	weight  float64
}

// scored is one LifeRaft pick candidate; the backing slice is scheduler
// scratch so picks stay allocation-free.
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
}

// scheduler is the workload manager plus join evaluator of Figure 3. It is
// not safe for concurrent use; its shard worker (live.go) owns it. The one part
// of it other goroutines reach is fj, under the rules forkJoin states.
type scheduler struct {
	cfg   Config
	cache *cache.LRU[int, *bucket.Resident]

	queues  map[int]*bqueue
	queries map[uint64]*queryState
	preds   map[uint64]xmatch.Predicate

	// active holds exactly the queues in the map, densely and in no
	// particular order, each at its own bqueue.slot: the picks scan it.
	active []*bqueue
	// pendingItems counts queued workload objects across all queues
	// (including spilled ones), making pendingWork O(1).
	pendingItems int

	rrNext     int
	memObjects int
	stats      RunStats

	// cancelVisited counts the bucket queues examined by cancel — a test
	// hook proving cancels touch only the cancelled query's queues.
	cancelVisited int

	// Scratch reused across service-loop iterations so a steady-state
	// step performs no allocations. The slice step returns aliases
	// completedBuf and is valid only until the next step; the worker loop
	// consumes it immediately.
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

	// obs holds this shard's resolved metric handles, all nil without
	// Config.Metrics: a nil handle records nothing and allocates nothing,
	// so the service loop records unconditionally and stays zero-alloc
	// and bit-identical to the uninstrumented engine.
	obs *EngineObs

	// cacheBytes is the on-disk size of what the cache holds: resident
	// granules, whole buckets on the simulated store.
	cacheBytes int64
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
	part := cfg.Store.Partition()
	if part.NumBuckets() == 0 {
		return nil, fmt.Errorf("core: partition has no buckets")
	}
	tb, tm := cfg.Store.Disk().Model().Calibrate(part.BucketBytes(0))
	s := &scheduler{
		cfg:     cfg,
		cache:   cache.NewLRU[int, *bucket.Resident](cfg.CacheBuckets * cfg.Store.BucketGranules()),
		queues:  make(map[int]*bqueue),
		queries: make(map[uint64]*queryState),
		preds:   make(map[uint64]xmatch.Predicate),
		seenBuf: make(map[uint64]int),
		tbSec:   tb.Seconds(),
		tmSec:   tm.Seconds(),
	}
	s.fj.preds, s.fj.materialize = s.preds, cfg.Store.Materializing()
	// An evicted bucket — array and residency set — goes back to the
	// store: the cache held its one view, and the store overwrites it no
	// earlier than this shard's next miss, which follows the current
	// service's fj.finish, so no part, helper or join can still be reading
	// it. The bucket a service fills is the one entry its Put or Reweigh
	// never evicts.
	s.cache.OnEvict(func(_ int, r *bucket.Resident) {
		s.cacheBytes -= r.Bytes
		s.cfg.Store.Recycle(r)
		s.obs.cacheEvict.Inc()
	})
	s.obs = cfg.Metrics.Shard(cfg.shardIndex)
	// The store observer sees every read this engine issues; each shard
	// owns its forked store, so the handles never cross shards.
	cfg.Store.SetObserver(s.obs)
	return s, nil
}

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
	return q
}

// releaseQueue returns an emptied, detached queue (and its item and
// frontier capacity) to the pool.
func (s *scheduler) releaseQueue(q *bqueue) {
	q.items = q.items[:0]
	q.ageFrontier = q.ageFrontier[:0]
	s.qPool.push(q)
}

// pushItem enqueues one work unit on bucket bi, creating the queue (and
// listing it in active) if needed.
func (s *scheduler) pushItem(bi int, it item) {
	q := s.queues[bi]
	if q == nil {
		q = s.newQueue(bi)
		s.queues[bi] = q
		q.slot = len(s.active)
		s.active = append(s.active, q)
	}
	q.push(it)
	s.pendingItems++
	if !q.spilled {
		s.memObjects++
	}
}

// detachQueue removes a queue from the map and from active, moving the
// last active queue into its slot; the caller settles pendingItems/
// memObjects and recycles the queue.
func (s *scheduler) detachQueue(q *bqueue) {
	delete(s.queues, q.idx)
	n := len(s.active) - 1
	last := s.active[n]
	s.active[q.slot], last.slot = last, q.slot
	s.active[n] = nil
	s.active = s.active[:n]
}

// admit pre-processes a job: every workload object is assigned to the
// queue of each bucket its error circle reaches (the Query
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
	}
	part := s.cfg.Store.Partition()
	weight := s.ageWeight(share)
	for _, wo := range job.Objects {
		s.bisBuf = part.AppendBucketsReached(s.bisBuf[:0], wo.Range(), wo.Cap())
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
	qs.job.Trace.Add(trace.Span{
		Stage: trace.StageEngineAdmit, Start: arrived, End: arrived,
		N: int64(qs.result.Assignments),
	})
	if qs.remaining == 0 {
		qs.result.Completed = arrived
		return &qs.result
	}
	if qs.job.Trace != nil {
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
		s.memObjects -= len(victim.items)
		s.stats.SpilledObjects += int64(len(victim.items))
		s.cfg.Store.Disk().ReadSequential(int64(len(victim.items)) * spillObjectBytes) // write cost ≈ read cost
	}
}

// spillVictim selects the non-spilled queue with the lowest Ut(i), ties
// toward the lower bucket index; nil when every queue is spilled.
func (s *scheduler) spillVictim() *bqueue {
	var victim *bqueue
	worst := math.Inf(1)
	for _, q := range s.active {
		if q.spilled {
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
	}
	if qs.remaining != 0 {
		panic(fmt.Sprintf("core: query %d cancelled with %d unaccounted objects", qid, qs.remaining))
	}
	if qs.job.Trace != nil {
		s.traced--
		qs.job.Trace.Add(trace.Span{Stage: trace.StageCancel, Start: now, End: now, Err: "cancelled"})
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
// ok is false when no queue has work. Every policy scans the active
// queues once: a pick costs O(active queues on the shard), and
// DESIGN-sched.md §1 says why no index stands in for the scan.
func (s *scheduler) pick(now time.Time) (int, bool) {
	switch s.cfg.Policy {
	case PolicyRoundRobin:
		return s.pickRoundRobin()
	case PolicyLeastShared:
		return s.pickLeastShared()
	default:
		return s.pickLifeRaft(now)
	}
}

// pickLifeRaft evaluates the aged workload throughput metric (Eq. 2)
// over all non-empty queues:
//
//	Ua(i) = Ût(i)·(1-α) + Â(i)·α
//
// where Ût and Â are Ut and A normalized to [0,1] over the current
// non-empty queues (DESIGN-sched.md §1 explains the normalization), and
// returns the argmax. Ties break toward the lower bucket index, making
// schedules deterministic.
func (s *scheduler) pickLifeRaft(now time.Time) (int, bool) {
	maxUt, maxAge := 0.0, 0.0
	cands := s.scoredBuf[:0]
	for _, q := range s.active {
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

// pickRoundRobin services non-empty buckets cyclically in HTM ID order
// (§5: the RR baseline): the lowest active bucket index at or after
// rrNext, or, wrapping around, the lowest of all.
func (s *scheduler) pickRoundRobin() (int, bool) {
	next, lowest := -1, -1
	for _, q := range s.active {
		i := q.idx
		if lowest < 0 || i < lowest {
			lowest = i
		}
		if i >= s.rrNext && (next < 0 || i < next) {
			next = i
		}
	}
	if next < 0 {
		next = lowest
	}
	if next < 0 {
		return 0, false
	}
	s.rrNext = next + 1
	return next, true
}

// pickLeastShared selects the non-empty queue with the fewest pending
// objects (ties toward the lower index): jobs that benefit least from
// future co-scheduling run first, after Agrawal et al.'s least-sharable
// policy for shared file scans (paper §6).
func (s *scheduler) pickLeastShared() (int, bool) {
	best, bestLen := -1, 0
	for _, q := range s.active {
		n := len(q.items)
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
// the next step (or serviceBucket) call; the shard worker's loop consumes
// it immediately (live.go delivers the values).
func (s *scheduler) step(now time.Time) (completed []Result, ok bool) {
	t0 := time.Now()
	idx, ok := s.pick(now)
	d := time.Since(t0).Seconds()
	if !ok {
		s.obs.pick.Observe(d)
		return nil, false
	}
	// When the service touches a traced query, attach its trace ID to the
	// pick-latency observation as an exemplar — a slow pick on a dashboard
	// then links to a full schedule forensics capture.
	s.svcTraceID = 0
	completed = s.serviceBucket(idx, now)
	if s.svcTraceID != 0 {
		s.obs.pick.ObserveExemplar(d, s.svcTraceID.String())
	} else {
		s.obs.pick.Observe(d)
	}
	s.obs.cacheBytes.Set(float64(s.cacheBytes))
	s.observeLedger()
	return completed, true
}

// observeLedger adds what this arm's disk account has moved by since the
// last call — its own services' charges and the parts it ran for sibling
// shards — to the disk-model counters.
func (s *scheduler) observeLedger() {
	led := s.cfg.Store.Disk().Ledger()
	s.obs.modelCharged.Add((led.Charged - s.lastLedger.Charged).Seconds())
	s.obs.modelSlept.Add((led.Slept - s.lastLedger.Slept).Seconds())
	s.obs.modelCredited.Add((led.Credited - s.lastLedger.Credited).Seconds())
	s.obs.modelExpired.Add((led.Expired - s.lastLedger.Expired).Seconds())
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
		s.cfg.Store.Disk().ReadSequential(int64(len(items)) * spillObjectBytes)
	} else {
		s.memObjects -= len(items)
	}

	// The Join Evaluator: the store makes the hybrid choice of §3.4.
	res, inMem := s.cache.Get(idx)
	if inMem {
		s.obs.cacheHits.Inc()
	} else {
		s.obs.cacheMiss.Inc()
	}
	count := len(items)
	wos := s.wosBuf[:0]
	for _, it := range items {
		wos = append(wos, it.wo)
	}
	s.wosBuf = wos
	// Each queued object is keyed by the IDs its error circle reaches in
	// this bucket (its bounding range, unless that runs on past the
	// bucket). A real backend reads only the granules those keys select,
	// and either way the join merges over runs the store hands back where
	// they were decoded, valid until its next read: runs is not kept past
	// the join (pairs copy the objects they hold).
	span := s.cfg.Store.Partition().Bucket(idx).Span
	ranges := s.rangesBuf[:0]
	for _, it := range items {
		ranges = append(ranges, it.wo.RangeIn(span))
	}
	s.rangesBuf = ranges
	var readT0, readT1 time.Time
	var readKind string
	if traced {
		readT0 = s.cfg.clock().Now()
	}
	// A miss caches the bucket the store returns (none after a simulated
	// probe), and a hit fills the granules it lacks. Either way what was
	// read is what became resident, and the entry weighs what it now
	// holds.
	res, runs, read, kind := s.cfg.Store.Serve(idx, res, ranges, s.cfg.HybridThreshold)
	if traced && (!inMem || read > 0) {
		readT1, readKind = s.cfg.clock().Now(), string(kind)
	}
	if kind == bucket.ReadScan {
		s.stats.ScanServices++
		s.obs.scanSvc.Inc()
	} else {
		s.stats.IndexServices++
		s.obs.indexSvc.Inc()
	}
	if res != nil {
		s.cacheBytes += read
		switch {
		case !inMem:
			s.cache.Put(idx, res, s.cfg.Store.Weight(res))
		case read > 0:
			s.cache.Reweigh(idx, s.cfg.Store.Weight(res))
		}
	}
	s.stats.BucketsServed++
	var svcAttr string
	if traced {
		switch {
		case kind == bucket.ReadProbe:
			svcAttr = trace.AttrIndex
		case inMem:
			svcAttr = trace.AttrScanHit
		default:
			svcAttr = trace.AttrScanCold
		}
	}

	// Join, charge Tm per object, and distribute the results. The queue is
	// sorted once, in MinID order, the order the merge sweeps it in. A scan
	// service whose queue fills two parts or more is cut into runs of it,
	// and idle sibling workers run some of them on their own arms; the
	// owner waits for every part, so what follows — fan-out, retire,
	// completion — sees the same pairs in the same order whoever ran which
	// part.
	xmatch.SortQueue(wos)
	fj := &s.fj
	n := 1
	if kind == bucket.ReadScan && s.offers != nil && count >= 2*servicePartUnits {
		n = (count + servicePartUnits - 1) / servicePartUnits
	}
	fj.runs, fj.wos = runs, wos
	fj.begin(n)
	s.offer(n - 1)
	for i, mine := 0, true; mine; i, mine = fj.claim() {
		fj.run(i, s.cfg.clock(), s.cfg.Store.Disk())
		s.obs.partsOwn.Inc()
	}
	end := fj.finish(n)
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
		if qs.job.Trace != nil {
			var read *trace.Span
			if readKind != "" {
				read = &trace.Span{
					Stage: trace.StageStoreRead, Start: readT0, End: readT1,
					Attr: readKind, Key: int64(idx),
				}
			}
			qs.job.Trace.ServiceVisit(trace.Span{
				Stage: trace.StageService, Start: now, End: end,
				Attr: svcAttr, N: int64(n), Key: int64(idx), Score: svcUt,
			}, read, inMem)
			s.svcTraceID = qs.job.Trace.ID()
		}
		if qs.remaining < 0 {
			panic(fmt.Sprintf("core: query %d over-completed", qid))
		}
		if qs.remaining == 0 {
			if qs.job.Trace != nil {
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
	st.Disk = s.cfg.Store.Disk().Stats()
	st.Cache = s.cache.Stats()
	return st
}
