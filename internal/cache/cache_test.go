package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLRUBasics(t *testing.T) {
	c := NewLRU[int, string](2)
	if c.Cap() != 2 || c.Len() != 0 {
		t.Fatal("fresh cache state")
	}
	c.Put(1, "a")
	c.Put(2, "b")
	if v, ok := c.Get(1); !ok || v != "a" {
		t.Error("Get(1)")
	}
	c.Put(3, "c") // evicts 2 (1 was just used)
	if c.Contains(2) {
		t.Error("2 should have been evicted")
	}
	if !c.Contains(1) || !c.Contains(3) {
		t.Error("1 and 3 should remain")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Hits != 1 || st.Puts != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUUpdateExisting(t *testing.T) {
	c := NewLRU[int, string](2)
	c.Put(1, "a")
	c.Put(1, "a2")
	if c.Len() != 1 {
		t.Error("update should not grow cache")
	}
	if v, _ := c.Get(1); v != "a2" {
		t.Error("update lost")
	}
}

func TestLRUContainsDoesNotPromote(t *testing.T) {
	// φ(i) probes must not perturb recency, or the scheduler's metric
	// computation would itself reorder evictions.
	c := NewLRU[int, int](2)
	c.Put(1, 1)
	c.Put(2, 2)
	c.Contains(1) // must NOT promote 1
	c.Put(3, 3)   // evicts 1 (oldest by true recency)
	if c.Contains(1) {
		t.Error("Contains promoted key 1")
	}
	if !c.Contains(2) {
		t.Error("key 2 should survive")
	}
}

func TestLRUKeysOrder(t *testing.T) {
	c := NewLRU[int, int](3)
	c.Put(1, 1)
	c.Put(2, 2)
	c.Put(3, 3)
	c.Get(1)
	keys := c.Keys()
	if len(keys) != 3 || keys[0] != 1 || keys[1] != 3 || keys[2] != 2 {
		t.Errorf("Keys = %v, want [1 3 2]", keys)
	}
}

func TestLRUMinimumCapacity(t *testing.T) {
	c := NewLRU[int, int](0)
	if c.Cap() != 1 {
		t.Error("capacity should clamp to 1")
	}
	c.Put(1, 1)
	c.Put(2, 2)
	if c.Len() != 1 || c.Contains(1) {
		t.Error("single-slot eviction")
	}
}

func TestLRUMissCounts(t *testing.T) {
	c := NewLRU[int, int](1)
	c.Get(9)
	c.Put(9, 9)
	c.Get(9)
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Errorf("HitRate = %v", st.HitRate())
	}
	if (Stats{}).HitRate() != 0 {
		t.Error("empty HitRate should be 0")
	}
	if st.String() == "" {
		t.Error("String empty")
	}
}

// Property: an LRU of capacity k, after any workload, holds exactly the k
// most recently put/hit distinct keys.
func TestQuickLRUHoldsMostRecent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const cap = 5
		c := NewLRU[int, int](cap)
		var recent []int // most recent first, distinct
		touch := func(k int) {
			for i, v := range recent {
				if v == k {
					recent = append(recent[:i], recent[i+1:]...)
					break
				}
			}
			recent = append([]int{k}, recent...)
			if len(recent) > cap {
				recent = recent[:cap]
			}
		}
		for i := 0; i < 200; i++ {
			k := rng.Intn(12)
			if rng.Intn(2) == 0 {
				c.Put(k, k)
				touch(k)
			} else if _, ok := c.Get(k); ok {
				touch(k)
			}
		}
		if c.Len() != len(recent) {
			return false
		}
		for _, k := range recent {
			if !c.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the cache never exceeds its capacity.
func TestQuickCapacityInvariant(t *testing.T) {
	f := func(seed int64, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		rng := rand.New(rand.NewSource(seed))
		c := NewLRU[int, int](capacity)
		for i := 0; i < 300; i++ {
			k := rng.Intn(40)
			c.Put(k, k)
			c.Get(rng.Intn(40))
			if c.Len() > c.Cap() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestOnEvictFiresOnPolicyEviction: the cache must report every entry
// pushed out by capacity pressure — newScheduler's OnEvict hook hands each
// evicted bucket's array back to the store and counts the eviction.
func TestOnEvictFiresOnPolicyEviction(t *testing.T) {
	c := NewLRU[int, int](2)
	var evicted []int
	c.OnEvict(func(k, _ int) {
		evicted = append(evicted, k)
		if c.Contains(k) {
			t.Errorf("hook fired while %d still in cache", k)
		}
	})
	for k := 0; k < 10; k++ {
		c.Put(k, k)
	}
	if len(evicted)+c.Len() != 10 {
		t.Errorf("%d evictions + %d resident != 10 puts", len(evicted), c.Len())
	}
	if int64(len(evicted)) != c.Stats().Evictions {
		t.Errorf("hook fired %d times, stats count %d evictions",
			len(evicted), c.Stats().Evictions)
	}
}

// TestLRUSteadyStateAllocFree: at capacity, Put/Get/Contains reuse slots
// and allocate nothing — the scheduler's zero-alloc service loop calls
// Put on every cache-miss bucket service.
func TestLRUSteadyStateAllocFree(t *testing.T) {
	c := NewLRU[int, int](8)
	for k := 0; k < 64; k++ { // warm up past capacity
		c.Put(k, k)
	}
	k := 64
	allocs := testing.AllocsPerRun(200, func() {
		c.Put(k, k)
		c.Get(k - 3)
		c.Contains(k - 5)
		k++
	})
	if allocs != 0 {
		t.Errorf("steady-state LRU ops allocate %.1f/op, want 0", allocs)
	}
}
