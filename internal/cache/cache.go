// Package cache implements the bucket cache of the LifeRaft architecture
// (paper §4, Figure 3): a fixed-capacity in-memory store of recently read
// buckets. The paper uses a simple least-recently-used policy with a
// capacity of 20 buckets and manages it independently of the database
// server (SQL Server's buffer pool is flushed after every bucket read).
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

// LRU is a fixed-capacity least-recently-used cache, the paper's policy.
// Entries live in a slab of slots linked into an intrusive recency list, so
// steady-state operation at capacity performs no allocations — the
// scheduler's zero-alloc service loop depends on this. It is not safe for
// concurrent use; each shard's worker owns its cache.
type LRU[K comparable, V any] struct {
	cap     int
	slots   []lruSlot[K, V]
	index   map[K]int32
	head    int32 // most recent, -1 when empty
	tail    int32 // least recent, -1 when empty
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

// Get returns the cached value and makes it the most recent entry.
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

// Put inserts or refreshes a value as the most recent entry, evicting the
// least recent one when the cache is full.
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
	if len(c.index) >= c.cap {
		// Reuse the least-recent slot in place of its evicted entry.
		i = c.tail
		ek, ev, evicted = c.slots[i].k, c.slots[i].v, true
		c.unlink(i)
		delete(c.index, ek)
		c.stats.Evictions++
	} else {
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

// Contains reports membership without affecting recency. This is the φ(i)
// probe of Eq. 1.
func (c *LRU[K, V]) Contains(k K) bool { _, ok := c.index[k]; return ok }

// Len returns the number of cached entries.
func (c *LRU[K, V]) Len() int { return len(c.index) }

// Cap returns the capacity.
func (c *LRU[K, V]) Cap() int { return c.cap }

// Stats returns a snapshot of the counters.
func (c *LRU[K, V]) Stats() Stats { return c.stats }

// OnEvict registers fn to be called whenever Put evicts an entry to make
// room. The hook runs after the mutation completes, so it observes a
// consistent cache (Contains(k) is already false for the evicted key). The
// scheduler uses it to hand an evicted bucket's array back to its store and
// to count the eviction. A nil fn clears the hook.
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
