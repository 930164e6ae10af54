package core

import (
	"math/bits"
	"time"
)

// This file implements the incremental scheduler index: priority
// structures over the non-empty bucket queues that turn every O(B) scan
// in the scheduler hot path into an O(log B) (or O(1)) operation. The
// structures are updated on exactly the events that can change their
// keys — push, service, spill, cancel, and cache admission/eviction (the
// last delivered through cache.Cache's OnEvict hook) — and the LifeRaft
// pick runs a threshold-algorithm walk over two orderings instead of
// rescoring every queue. DESIGN-sched-index.md documents the invariants;
// the golden-equivalence test in golden_test.go proves the pick sequence
// bit-identical to the exhaustive scans (kept in sched.go as the
// reference implementation and benchmark baseline).

// Heap slots in bqueue.pos. Each queue carries its position in every
// heap that currently holds it, so updates and removals are O(log B)
// with no auxiliary lookups and no allocation.
const (
	posUt    = iota // max side: ut DESC, idx ASC (LifeRaft pick)
	posAge          // frontier head arrival ASC, idx ASC (LifeRaft pick)
	posSpill        // min side: ut ASC, idx ASC, non-spilled only (victims)
	posLen          // queue length ASC, idx ASC (least-shared pick)
	numHeaps
)

// qheap is a binary heap of bucket queues with position tracking. The
// less function must be a strict total order (every ordering below ties
// on the unique bucket index), so the top element is unique and heap
// order is deterministic regardless of insertion history.
type qheap struct {
	slot int // which bqueue.pos entry this heap maintains
	less func(a, b *bqueue) bool
	s    []*bqueue
}

func (h *qheap) len() int      { return len(h.s) }
func (h *qheap) head() *bqueue { return h.s[0] }

func (h *qheap) swap(i, j int) {
	h.s[i], h.s[j] = h.s[j], h.s[i]
	h.s[i].pos[h.slot] = int32(i)
	h.s[j].pos[h.slot] = int32(j)
}

func (h *qheap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.s[i], h.s[p]) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *qheap) down(i int) {
	n := len(h.s)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h.less(h.s[l], h.s[m]) {
			m = l
		}
		if r < n && h.less(h.s[r], h.s[m]) {
			m = r
		}
		if m == i {
			return
		}
		h.swap(i, m)
		i = m
	}
}

// push inserts q; q must not already be in this heap.
func (h *qheap) push(q *bqueue) {
	h.s = append(h.s, q)
	//lifevet:allow durovf -- heap position bounded by the bucket-queue count, far below 2^31
	q.pos[h.slot] = int32(len(h.s) - 1)
	h.up(len(h.s) - 1)
}

// fix restores heap order after q's key changed; no-op if q is absent.
func (h *qheap) fix(q *bqueue) {
	i := q.pos[h.slot]
	if i < 0 {
		return
	}
	h.up(int(i))
	h.down(int(q.pos[h.slot]))
}

// remove deletes q; no-op if q is absent.
func (h *qheap) remove(q *bqueue) {
	i := int(q.pos[h.slot])
	if i < 0 {
		return
	}
	last := len(h.s) - 1
	if i != last {
		h.swap(i, last)
	}
	h.s = h.s[:last]
	q.pos[h.slot] = -1
	if i != last {
		h.up(i)
		h.down(int(h.s[i].pos[h.slot]))
	}
}

// bitset is a two-level bitmap over bucket indices with fast circular
// successor queries: level 0 has one bit per bucket, the summary has one
// bit per level-0 word. NextFrom touches O(B/4096) words, so round-robin
// picks on a sparse 100k-bucket space cost a handful of cache lines
// instead of a full scan.
type bitset struct {
	words []uint64
	sum   []uint64
}

func newBitset(n int) *bitset {
	nw := (n + 63) / 64
	return &bitset{
		words: make([]uint64, nw),
		sum:   make([]uint64, (nw+63)/64),
	}
}

func (b *bitset) set(i int) {
	w := i >> 6
	b.words[w] |= 1 << (uint(i) & 63)
	b.sum[w>>6] |= 1 << (uint(w) & 63)
}

func (b *bitset) clear(i int) {
	w := i >> 6
	b.words[w] &^= 1 << (uint(i) & 63)
	if b.words[w] == 0 {
		b.sum[w>>6] &^= 1 << (uint(w) & 63)
	}
}

// nextFrom returns the smallest set index >= i, or -1 if none.
func (b *bitset) nextFrom(i int) int {
	if i < 0 {
		i = 0
	}
	w := i >> 6
	if w >= len(b.words) {
		return -1
	}
	// Tail of the word containing i.
	if rem := b.words[w] >> (uint(i) & 63); rem != 0 {
		return i + bits.TrailingZeros64(rem)
	}
	// Walk the summary for the next non-empty word.
	for sw := w >> 6; sw < len(b.sum); sw++ {
		s := b.sum[sw]
		if sw == w>>6 {
			// Mask off words <= w.
			s &^= (1 << (uint(w)&63 + 1)) - 1
		}
		if s == 0 {
			continue
		}
		nw := sw<<6 + bits.TrailingZeros64(s)
		return nw<<6 + bits.TrailingZeros64(b.words[nw])
	}
	return -1
}

// schedIndex bundles the index structures a scheduler maintains. Each is
// built only when the configured policy (or the overflow extension)
// actually reads it, so non-LifeRaft engines pay no heap maintenance for
// orderings they never consult.
type schedIndex struct {
	ut       *qheap  // LifeRaft: workload-throughput max side
	age      *qheap  // LifeRaft: age-frontier order (exact when γ=0)
	spill    *qheap  // overflow: Ut min side over non-spilled queues
	lens     *qheap  // least-shared: queue length min side
	nonEmpty *bitset // round-robin: ordered non-empty bucket set

	// γ=0 makes every age weight exactly 1, so per-queue age order
	// reduces to frontier-arrival order and the two-heap pick is exact.
	// With QoS depreciation the ordering is time-varying and the pick
	// falls back to the exhaustive scan (see DESIGN-sched-index.md §4).
	exactAge bool

	// Threshold-walk scratch, reused across picks.
	walkUt, walkAge heapWalk
	epoch           uint64
}

// newSchedIndex sizes the index for cfg. part is the number of buckets.
func newSchedIndex(cfg Config, part int) *schedIndex {
	ix := &schedIndex{exactAge: cfg.AgeDepreciationGamma == 0}
	switch cfg.Policy {
	case PolicyLifeRaft:
		if !ix.exactAge {
			break // QoS picks always scan (§4): don't maintain unread heaps
		}
		ix.ut = &qheap{slot: posUt, less: func(a, b *bqueue) bool {
			return a.ut > b.ut || (a.ut == b.ut && a.idx < b.idx)
		}}
		ix.age = &qheap{slot: posAge, less: func(a, b *bqueue) bool {
			at, bt := a.ageFrontier[0].arrived, b.ageFrontier[0].arrived
			return at.Before(bt) || (at.Equal(bt) && a.idx < b.idx)
		}}
	case PolicyRoundRobin:
		ix.nonEmpty = newBitset(part)
	case PolicyLeastShared:
		ix.lens = &qheap{slot: posLen, less: func(a, b *bqueue) bool {
			return len(a.items) < len(b.items) ||
				(len(a.items) == len(b.items) && a.idx < b.idx)
		}}
	}
	if cfg.WorkloadMemoryCap > 0 {
		ix.spill = &qheap{slot: posSpill, less: func(a, b *bqueue) bool {
			return a.ut < b.ut || (a.ut == b.ut && a.idx < b.idx)
		}}
	}
	return ix
}

// needsUt reports whether any maintained ordering keys on Ut(i) — if so,
// the scheduler caches Ut per queue and refreshes it on every event that
// can change it (including cache membership flips via the OnEvict hook).
func (ix *schedIndex) needsUt() bool { return ix.ut != nil || ix.spill != nil }

// insert registers a newly non-empty queue in every maintained ordering.
func (ix *schedIndex) insert(q *bqueue) {
	if ix.ut != nil {
		ix.ut.push(q)
		ix.age.push(q)
	}
	if ix.spill != nil && !q.spilled {
		ix.spill.push(q)
	}
	if ix.lens != nil {
		ix.lens.push(q)
	}
	if ix.nonEmpty != nil {
		ix.nonEmpty.set(q.idx)
	}
}

// remove drops an emptied (or serviced) queue from every ordering.
func (ix *schedIndex) remove(q *bqueue) {
	if ix.ut != nil {
		ix.ut.remove(q)
		ix.age.remove(q)
	}
	if ix.spill != nil {
		ix.spill.remove(q)
	}
	if ix.lens != nil {
		ix.lens.remove(q)
	}
	if ix.nonEmpty != nil {
		ix.nonEmpty.clear(q.idx)
	}
}

// utChanged re-heaps the orderings keyed on the queue's cached Ut.
func (ix *schedIndex) utChanged(q *bqueue) {
	if ix.ut != nil {
		ix.ut.fix(q)
	}
	if ix.spill != nil {
		ix.spill.fix(q)
	}
}

// lenChanged re-heaps the ordering keyed on queue length.
func (ix *schedIndex) lenChanged(q *bqueue) {
	if ix.lens != nil {
		ix.lens.fix(q)
	}
}

// ageKeyChanged re-heaps the age ordering after a frontier rebuild.
func (ix *schedIndex) ageKeyChanged(q *bqueue) {
	if ix.age != nil {
		ix.age.fix(q)
	}
}

// heapWalk enumerates a qheap in sorted order without destroying it: a
// frontier of array positions, itself heap-ordered by the underlying
// less, starts at the root and expands to a popped node's children. k
// pops cost O(k log k); the backing slice is reused across picks.
type heapWalk struct {
	h    *qheap
	cand []int32
}

func (w *heapWalk) reset(h *qheap) {
	w.h = h
	w.cand = w.cand[:0]
	if len(h.s) > 0 {
		w.cand = append(w.cand, 0)
	}
}

func (w *heapWalk) cless(i, j int32) bool { return w.h.less(w.h.s[i], w.h.s[j]) }

// peek returns the next element without consuming it, or nil.
func (w *heapWalk) peek() *bqueue {
	if len(w.cand) == 0 {
		return nil
	}
	return w.h.s[w.cand[0]]
}

// next consumes and returns the next element in heap order, or nil.
func (w *heapWalk) next() *bqueue {
	if len(w.cand) == 0 {
		return nil
	}
	p := w.cand[0]
	q := w.h.s[p]
	// Pop the frontier root.
	last := len(w.cand) - 1
	w.cand[0] = w.cand[last]
	w.cand = w.cand[:last]
	w.candDown(0)
	// Expand to the popped node's heap children.
	if l := 2*p + 1; int(l) < len(w.h.s) {
		w.candPush(l)
	}
	if r := 2*p + 2; int(r) < len(w.h.s) {
		w.candPush(r)
	}
	return q
}

func (w *heapWalk) candPush(p int32) {
	w.cand = append(w.cand, p)
	i := len(w.cand) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !w.cless(w.cand[i], w.cand[parent]) {
			break
		}
		w.cand[i], w.cand[parent] = w.cand[parent], w.cand[i]
		i = parent
	}
}

func (w *heapWalk) candDown(i int) {
	n := len(w.cand)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && w.cless(w.cand[l], w.cand[m]) {
			m = l
		}
		if r < n && w.cless(w.cand[r], w.cand[m]) {
			m = r
		}
		if m == i {
			return
		}
		w.cand[i], w.cand[m] = w.cand[m], w.cand[i]
		i = m
	}
}

// pickLifeRaftIndexed computes the Eq. 2 argmax with a threshold-
// algorithm walk over the Ut and age orderings. The normalizers come
// straight from the two heads (both exact: the Ut heap is event-fresh,
// and with γ=0 the age head is the queue with the oldest frontier). The
// walk then consumes the two orderings in descending-score-bound order,
// scoring each newly seen queue with the exact seed formula, and stops
// as soon as the α-mix of the next unseen Ut and age — an upper bound on
// every unseen queue's score — can no longer beat the best seen score
// (or tie it with a lower bucket index). The result is bit-identical to
// pickLifeRaftScan: same floats, same lowest-index tie-break.
//
// When the α-mix cannot bound the winner within O(log B) pops — the
// anti-correlated regime where the highest-Ut queues are all young and
// the oldest queues all cold, which steady-state servicing itself
// produces — the pick abandons the walk and falls back to the exhaustive
// scan, so a pick never costs asymptotically more than the seed's.
func (s *scheduler) pickLifeRaftIndexed(now time.Time) (int, bool) {
	ix := s.idx
	if ix.ut.len() == 0 {
		return 0, false
	}
	// Walk budget: convergent walks need pops proportional to the
	// near-tie density at the top of the two orderings (equal-arrival
	// admission batches produce runs ~the batch width), so the cap
	// scales with B rather than log B. A pop costs a small multiple of
	// one scan candidate, so B/32 bounds the worst-case (fallback)
	// overhead at ~10% of the scan it falls back to.
	budget := 64 + ix.ut.len()/32
	alpha := s.cfg.Alpha
	maxUt := ix.ut.head().ut
	maxAge := s.age(ix.age.head(), now)

	score := func(q *bqueue) float64 {
		sc := 0.0
		if maxUt > 0 {
			sc += (1 - alpha) * q.ut / maxUt
		}
		if maxAge > 0 {
			sc += alpha * s.age(q, now) / maxAge
		}
		return sc
	}

	ix.epoch++
	epoch := ix.epoch
	ix.walkUt.reset(ix.ut)
	ix.walkAge.reset(ix.age)
	best, bestScore := -1, -1.0
	consider := func(q *bqueue) {
		if q.seen == epoch {
			return
		}
		q.seen = epoch
		sc := score(q)
		if sc > bestScore || (sc == bestScore && (best < 0 || q.idx < best)) {
			best, bestScore = q.idx, sc
		}
	}
	var (
		lastUt          float64
		lastArr         time.Time
		haveUt, haveArr bool
	)
	for {
		up, ap := ix.walkUt.peek(), ix.walkAge.peek()
		if up == nil || ap == nil {
			break // an ordering is exhausted: every queue was seen
		}
		// Unseen queues sit at-or-after both peeks in their orderings,
		// so ut <= up.ut and age <= age(ap): their score is bounded by
		// the α-mix of the two peeks.
		bound := 0.0
		if maxUt > 0 {
			bound += (1 - alpha) * up.ut / maxUt
		}
		if maxAge > 0 {
			bound += alpha * s.age(ap, now) / maxAge
		}
		if bestScore > bound {
			break
		}
		// bestScore == bound: an unseen queue can still tie — and ties
		// need the globally lowest index. Normalization collapses
		// near-ulp key differences to identical scores (every cached
		// bucket's Ut rounds to within an ulp of 1/Tm), so a score tie
		// does NOT imply a key tie and gives no index bound. Keep
		// walking until the bound drops strictly below.
		//
		// Advance asymmetrically: a peek repeating the last popped key
		// (a flat run — e.g. thousands of equal-length queues sharing
		// one Ut) cannot lower the bound, and the run's best member is
		// the one the OTHER ordering surfaces first. Skip it and advance
		// the other walk; pop both when both are flat or both fresh, so
		// every iteration makes progress.
		utFlat := haveUt && up.ut == lastUt
		arrFlat := haveArr && ap.ageFrontier[0].arrived.Equal(lastArr)
		if !utFlat || arrFlat {
			q := ix.walkUt.next()
			lastUt, haveUt = q.ut, true
			consider(q)
			budget--
		}
		if !arrFlat || utFlat {
			q := ix.walkAge.next()
			lastArr, haveArr = q.ageFrontier[0].arrived, true
			consider(q)
			budget--
		}
		if budget <= 0 {
			s.pickFallbacks++
			if s.obs != nil {
				s.obs.fallbacks.Inc()
			}
			return s.pickLifeRaftScan(now)
		}
	}
	return best, true
}
