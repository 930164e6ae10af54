// Package cache implements the bucket cache of the LifeRaft architecture
// (paper §4, Figure 3): a fixed-capacity in-memory store of recently read
// buckets. The paper uses a simple least-recently-used policy with a
// capacity of 20 buckets and manages it independently of the database
// server (SQL Server's buffer pool is flushed after every bucket read).
// CLOCK and 2Q policies are provided for the cache-policy ablation.
//
// The scheduler consults the cache *without* touching recency (Contains)
// when computing φ(i) in the workload throughput metric — whether a bucket
// is in memory decides whether its Tb is charged — and promotes entries
// only on real reads (Get/Put).
package cache

import (
	"fmt"
)

// Stats counts cache activity.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Puts      int64
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

// Add returns the element-wise sum of two stats snapshots, used to merge
// the per-shard bucket caches of a sharded run into one aggregate.
func (s Stats) Add(o Stats) Stats {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Puts += o.Puts
	return s
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("hits=%d misses=%d evictions=%d hitRate=%.1f%%",
		s.Hits, s.Misses, s.Evictions, 100*s.HitRate())
}

// Cache is a fixed-capacity key-value cache. Implementations are not safe
// for concurrent use; the engine serializes access on its scheduling
// goroutine.
type Cache[K comparable, V any] interface {
	// Get returns the cached value and promotes it per the policy.
	Get(k K) (V, bool)
	// Put inserts or refreshes a value, evicting per the policy.
	Put(k K, v V)
	// Contains reports membership without affecting recency. This is
	// the φ(i) probe of Eq. 1.
	Contains(k K) bool
	// Remove drops a key if present, reporting whether it was.
	Remove(k K) bool
	// Len returns the number of cached entries.
	Len() int
	// Cap returns the capacity.
	Cap() int
	// Stats returns a snapshot of the counters.
	Stats() Stats
	// OnEvict registers fn to be called whenever an entry leaves the
	// cache through POLICY eviction (capacity pressure during Put or a
	// policy-internal promotion). Explicit Remove does not fire it. The
	// hook runs after the mutation completes, so it observes a
	// consistent cache (Contains(k) is already false for the evicted
	// key). The scheduler uses this to hand an evicted bucket's array back
	// to its store and to count evictions. A nil fn clears the hook.
	OnEvict(fn func(K, V))
}

// LRU is a least-recently-used cache, the paper's policy. Entries live in
// a slab of slots linked into an intrusive recency list, so steady-state
// operation at capacity performs no allocations — the scheduler's
// zero-alloc service loop depends on this.
type LRU[K comparable, V any] struct {
	cap     int
	slots   []lruSlot[K, V]
	index   map[K]int32
	head    int32 // most recent, -1 when empty
	tail    int32 // least recent, -1 when empty
	free    []int32
	onEvict func(K, V)
	stats   Stats
}

type lruSlot[K comparable, V any] struct {
	k          K
	v          V
	prev, next int32 // -1 terminates
}

// NewLRU returns an LRU cache with the given capacity (minimum 1).
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU[K, V]{
		cap:   capacity,
		slots: make([]lruSlot[K, V], 0, capacity),
		index: make(map[K]int32, capacity),
		head:  -1,
		tail:  -1,
	}
}

// unlink detaches slot i from the recency list.
func (c *LRU[K, V]) unlink(i int32) {
	s := &c.slots[i]
	if s.prev >= 0 {
		c.slots[s.prev].next = s.next
	} else {
		c.head = s.next
	}
	if s.next >= 0 {
		c.slots[s.next].prev = s.prev
	} else {
		c.tail = s.prev
	}
}

// pushFront makes slot i the most recent entry.
func (c *LRU[K, V]) pushFront(i int32) {
	s := &c.slots[i]
	s.prev, s.next = -1, c.head
	if c.head >= 0 {
		c.slots[c.head].prev = i
	}
	c.head = i
	if c.tail < 0 {
		c.tail = i
	}
}

// Get implements Cache.
func (c *LRU[K, V]) Get(k K) (V, bool) {
	if i, ok := c.index[k]; ok {
		c.stats.Hits++
		c.unlink(i)
		c.pushFront(i)
		return c.slots[i].v, true
	}
	c.stats.Misses++
	var zero V
	return zero, false
}

// Put implements Cache.
func (c *LRU[K, V]) Put(k K, v V) {
	c.stats.Puts++
	if i, ok := c.index[k]; ok {
		c.slots[i].v = v
		c.unlink(i)
		c.pushFront(i)
		return
	}
	var (
		i       int32
		evicted bool
		ek      K
		ev      V
	)
	switch {
	case len(c.index) >= c.cap:
		// Reuse the least-recent slot in place of its evicted entry.
		i = c.tail
		ek, ev, evicted = c.slots[i].k, c.slots[i].v, true
		c.unlink(i)
		delete(c.index, ek)
		c.stats.Evictions++
	case len(c.free) > 0:
		i = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
	default:
		c.slots = append(c.slots, lruSlot[K, V]{})
		//lifevet:allow durovf -- slot index bounded by the configured LRU capacity, far below 2^31
		i = int32(len(c.slots) - 1)
	}
	c.slots[i].k, c.slots[i].v = k, v
	c.index[k] = i
	c.pushFront(i)
	if evicted && c.onEvict != nil {
		c.onEvict(ek, ev)
	}
}

// Contains implements Cache.
func (c *LRU[K, V]) Contains(k K) bool { _, ok := c.index[k]; return ok }

// Remove implements Cache.
func (c *LRU[K, V]) Remove(k K) bool {
	i, ok := c.index[k]
	if !ok {
		return false
	}
	c.unlink(i)
	delete(c.index, k)
	var zero lruSlot[K, V]
	c.slots[i] = zero
	c.free = append(c.free, i)
	return true
}

// Len implements Cache.
func (c *LRU[K, V]) Len() int { return len(c.index) }

// Cap implements Cache.
func (c *LRU[K, V]) Cap() int { return c.cap }

// Stats implements Cache.
func (c *LRU[K, V]) Stats() Stats { return c.stats }

// OnEvict implements Cache.
func (c *LRU[K, V]) OnEvict(fn func(K, V)) { c.onEvict = fn }

// Keys returns the cached keys from most to least recently used; useful
// for tests and debugging.
func (c *LRU[K, V]) Keys() []K {
	out := make([]K, 0, len(c.index))
	for i := c.head; i >= 0; i = c.slots[i].next {
		out = append(out, c.slots[i].k)
	}
	return out
}

// Clock is a CLOCK (second-chance) cache: an LRU approximation with O(1)
// lookups and a rotating eviction hand. Included for the cache-policy
// ablation bench.
type Clock[K comparable, V any] struct {
	cap     int
	slots   []clockSlot[K, V]
	index   map[K]int
	hand    int
	onEvict func(K, V)
	stats   Stats
}

type clockSlot[K comparable, V any] struct {
	k    K
	v    V
	ref  bool
	used bool
}

// NewClock returns a CLOCK cache with the given capacity (minimum 1).
func NewClock[K comparable, V any](capacity int) *Clock[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Clock[K, V]{cap: capacity, slots: make([]clockSlot[K, V], capacity), index: make(map[K]int)}
}

// Get implements Cache.
func (c *Clock[K, V]) Get(k K) (V, bool) {
	if i, ok := c.index[k]; ok {
		c.stats.Hits++
		c.slots[i].ref = true
		return c.slots[i].v, true
	}
	c.stats.Misses++
	var zero V
	return zero, false
}

// Put implements Cache.
func (c *Clock[K, V]) Put(k K, v V) {
	c.stats.Puts++
	if i, ok := c.index[k]; ok {
		c.slots[i].v = v
		c.slots[i].ref = true
		return
	}
	for {
		s := &c.slots[c.hand]
		if !s.used {
			*s = clockSlot[K, V]{k: k, v: v, ref: false, used: true}
			c.index[k] = c.hand
			c.hand = (c.hand + 1) % c.cap
			return
		}
		if s.ref {
			s.ref = false
			c.hand = (c.hand + 1) % c.cap
			continue
		}
		ek, ev := s.k, s.v
		delete(c.index, s.k)
		c.stats.Evictions++
		*s = clockSlot[K, V]{k: k, v: v, ref: false, used: true}
		c.index[k] = c.hand
		c.hand = (c.hand + 1) % c.cap
		if c.onEvict != nil {
			c.onEvict(ek, ev)
		}
		return
	}
}

// Contains implements Cache.
func (c *Clock[K, V]) Contains(k K) bool { _, ok := c.index[k]; return ok }

// Remove implements Cache.
func (c *Clock[K, V]) Remove(k K) bool {
	i, ok := c.index[k]
	if !ok {
		return false
	}
	delete(c.index, k)
	c.slots[i] = clockSlot[K, V]{}
	return true
}

// Len implements Cache.
func (c *Clock[K, V]) Len() int { return len(c.index) }

// Cap implements Cache.
func (c *Clock[K, V]) Cap() int { return c.cap }

// Stats implements Cache.
func (c *Clock[K, V]) Stats() Stats { return c.stats }

// OnEvict implements Cache.
func (c *Clock[K, V]) OnEvict(fn func(K, V)) { c.onEvict = fn }

// TwoQueue is a simplified 2Q cache: a FIFO probation queue admits new
// keys; a second hit promotes to a protected LRU segment. It resists the
// scan pollution that sequential bucket batches inflict on plain LRU.
type TwoQueue[K comparable, V any] struct {
	probation *LRU[K, V]
	protected *LRU[K, V]
	stats     Stats
}

// NewTwoQueue returns a 2Q cache with the given total capacity (minimum
// 2): a quarter (at least 1) probationary, the rest protected.
func NewTwoQueue[K comparable, V any](capacity int) *TwoQueue[K, V] {
	if capacity < 2 {
		capacity = 2
	}
	probCap := capacity / 4
	if probCap < 1 {
		probCap = 1
	}
	return &TwoQueue[K, V]{
		probation: NewLRU[K, V](probCap),
		protected: NewLRU[K, V](capacity - probCap),
	}
}

// Get implements Cache.
func (c *TwoQueue[K, V]) Get(k K) (V, bool) {
	if v, ok := c.protected.Get(k); ok {
		c.stats.Hits++
		return v, true
	}
	if v, ok := c.probation.Get(k); ok {
		// Second touch: promote.
		c.probation.Remove(k)
		c.promote(k, v)
		c.stats.Hits++
		return v, true
	}
	c.stats.Misses++
	var zero V
	return zero, false
}

func (c *TwoQueue[K, V]) promote(k K, v V) {
	before := c.protected.Stats().Evictions
	c.protected.Put(k, v)
	c.stats.Evictions += c.protected.Stats().Evictions - before
}

// Put implements Cache.
func (c *TwoQueue[K, V]) Put(k K, v V) {
	c.stats.Puts++
	if c.protected.Contains(k) {
		c.protected.Put(k, v)
		return
	}
	before := c.probation.Stats().Evictions
	c.probation.Put(k, v)
	c.stats.Evictions += c.probation.Stats().Evictions - before
}

// Contains implements Cache.
func (c *TwoQueue[K, V]) Contains(k K) bool {
	return c.protected.Contains(k) || c.probation.Contains(k)
}

// Remove implements Cache.
func (c *TwoQueue[K, V]) Remove(k K) bool {
	return c.protected.Remove(k) || c.probation.Remove(k)
}

// Len implements Cache.
func (c *TwoQueue[K, V]) Len() int { return c.protected.Len() + c.probation.Len() }

// Cap implements Cache.
func (c *TwoQueue[K, V]) Cap() int { return c.protected.Cap() + c.probation.Cap() }

// Stats implements Cache.
func (c *TwoQueue[K, V]) Stats() Stats { return c.stats }

// OnEvict implements Cache. A key promoted from probation to protected
// never leaves the cache as a whole, so the hook is wired to the two
// inner segments: it fires only when capacity pressure in either segment
// pushes an entry out of the cache entirely.
func (c *TwoQueue[K, V]) OnEvict(fn func(K, V)) {
	c.probation.OnEvict(fn)
	c.protected.OnEvict(fn)
}

// PolicyName identifies a cache policy for configuration.
type PolicyName string

// Supported cache policies.
const (
	PolicyLRU      PolicyName = "lru"
	PolicyClock    PolicyName = "clock"
	PolicyTwoQueue PolicyName = "2q"
)

// New builds a cache of the named policy. It returns an error for unknown
// names so configuration mistakes surface early.
func New[K comparable, V any](policy PolicyName, capacity int) (Cache[K, V], error) {
	switch policy {
	case PolicyLRU, "":
		return NewLRU[K, V](capacity), nil
	case PolicyClock:
		return NewClock[K, V](capacity), nil
	case PolicyTwoQueue:
		return NewTwoQueue[K, V](capacity), nil
	default:
		return nil, fmt.Errorf("cache: unknown policy %q", policy)
	}
}
