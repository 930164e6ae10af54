// Package cache implements the bucket cache of the LifeRaft architecture
// (paper §4, Figure 3): an in-memory store of recently read buckets. The
// paper uses a simple least-recently-used policy with a capacity of 20
// buckets and manages it independently of the database server (SQL
// Server's buffer pool is flushed after every bucket read). Its disk read
// whole buckets; ours reads granules, and a bucket may hold a few of them
// or all. So the capacity is a budget of weight — the engine weighs an
// entry in the granules it holds, and budgets 20 whole buckets' worth —
// and eviction removes whole least-recent entries until the rest fit.
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

// LRU is a least-recently-used cache bounded by a budget of weight: every
// entry weighs what its Put or Reweigh says, and whole least-recent entries
// are evicted until the total weight fits the budget. Entries live in a
// slab of slots linked into an intrusive recency list, and an evicted
// entry's slot is the next one's, so steady-state operation at the budget
// performs no allocations — the scheduler's zero-alloc service loop depends
// on this. It is not safe for concurrent use; each shard's worker owns its
// cache.
type LRU[K comparable, V any] struct {
	budget  int
	weight  int
	slots   []lruSlot[K, V]
	free    []int32 // slots of evicted entries, for the next Put
	index   map[K]int32
	head    int32 // most recent, -1 when empty
	tail    int32 // least recent, -1 when empty
	onEvict func(K, V)
	stats   Stats
}

type lruSlot[K comparable, V any] struct {
	k          K
	v          V
	w          int
	prev, next int32 // -1 terminates
}

// NewLRU returns an LRU cache with the given weight budget (minimum 1).
func NewLRU[K comparable, V any](budget int) *LRU[K, V] {
	if budget < 1 {
		budget = 1
	}
	return &LRU[K, V]{
		budget: budget,
		index:  make(map[K]int32),
		head:   -1,
		tail:   -1,
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

// Put inserts or refreshes a value of weight w as the most recent entry,
// then evicts least-recent entries, never k itself, until the total weight
// fits the budget. An entry heavier than the budget stays, alone.
func (c *LRU[K, V]) Put(k K, v V, w int) {
	c.stats.Puts++
	i, ok := c.index[k]
	if ok {
		c.weight -= c.slots[i].w
		c.unlink(i)
	} else {
		if n := len(c.free); n > 0 {
			i, c.free = c.free[n-1], c.free[:n-1]
		} else {
			c.slots = append(c.slots, lruSlot[K, V]{})
			// The slot index is bounded by the entries the weight budget admits,
			// far below 2^31.
			i = int32(len(c.slots) - 1)
		}
		c.slots[i].k = k
		c.index[k] = i
	}
	c.slots[i].v, c.slots[i].w = v, w
	c.weight += w
	c.pushFront(i)
	c.evictAround(i)
}

// Reweigh sets the weight of k, if cached, to w without touching recency,
// then evicts least-recent entries, never k itself, until the total weight
// fits the budget. It reports whether k was cached. The engine calls it
// when a cached bucket has filled more granules.
func (c *LRU[K, V]) Reweigh(k K, w int) bool {
	i, ok := c.index[k]
	if !ok {
		return false
	}
	c.weight += w - c.slots[i].w
	c.slots[i].w = w
	c.evictAround(i)
	return true
}

// evictAround evicts the least-recent entry other than slot keep while the
// total weight exceeds the budget. Each eviction completes before the hook
// hears of it, and the loop rereads the list after every hook, so a hook
// that calls back into the cache sees, and leaves, a consistent one.
func (c *LRU[K, V]) evictAround(keep int32) {
	for c.weight > c.budget {
		i := c.tail
		if i == keep {
			i = c.slots[keep].prev
		}
		if i < 0 {
			return
		}
		s := c.slots[i]
		c.unlink(i)
		delete(c.index, s.k)
		c.weight -= s.w
		c.slots[i] = lruSlot[K, V]{} // the slab keeps no reference to the value
		c.free = append(c.free, i)
		c.stats.Evictions++
		if c.onEvict != nil {
			c.onEvict(s.k, s.v)
		}
	}
}

// Contains reports membership without affecting recency. This is the φ(i)
// probe of Eq. 1.
func (c *LRU[K, V]) Contains(k K) bool { _, ok := c.index[k]; return ok }

// Len returns the number of cached entries.
func (c *LRU[K, V]) Len() int { return len(c.index) }

// Weight returns the total weight of the cached entries.
func (c *LRU[K, V]) Weight() int { return c.weight }

// Budget returns the weight budget.
func (c *LRU[K, V]) Budget() int { return c.budget }

// Stats returns a snapshot of the counters.
func (c *LRU[K, V]) Stats() Stats { return c.stats }

// OnEvict registers fn to be called whenever Put or Reweigh evicts an entry
// to make room. The hook runs after that eviction completes, so it observes
// a consistent cache (Contains(k) is already false for the evicted key, and
// Weight no longer counts it). The scheduler uses it to hand an evicted
// bucket's array back to its store and to count the eviction. A nil fn
// clears the hook.
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
