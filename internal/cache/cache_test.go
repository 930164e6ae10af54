package cache

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestLRUBasics(t *testing.T) {
	c := NewLRU[int, string](2)
	if c.Budget() != 2 || c.Len() != 0 {
		t.Fatal("fresh cache state")
	}
	c.Put(1, "a", 1)
	c.Put(2, "b", 1)
	if v, ok := c.Get(1); !ok || v != "a" {
		t.Error("Get(1)")
	}
	c.Put(3, "c", 1) // evicts 2 (1 was just used)
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
	c.Put(1, "a", 1)
	c.Put(1, "a2", 1)
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
	c.Put(1, 1, 1)
	c.Put(2, 2, 1)
	c.Contains(1)  // must NOT promote 1
	c.Put(3, 3, 1) // evicts 1 (oldest by true recency)
	if c.Contains(1) {
		t.Error("Contains promoted key 1")
	}
	if !c.Contains(2) {
		t.Error("key 2 should survive")
	}
}

func TestLRUKeysOrder(t *testing.T) {
	c := NewLRU[int, int](3)
	c.Put(1, 1, 1)
	c.Put(2, 2, 1)
	c.Put(3, 3, 1)
	c.Get(1)
	keys := c.Keys()
	if len(keys) != 3 || keys[0] != 1 || keys[1] != 3 || keys[2] != 2 {
		t.Errorf("Keys = %v, want [1 3 2]", keys)
	}
}

func TestLRUMinimumCapacity(t *testing.T) {
	c := NewLRU[int, int](0)
	if c.Budget() != 1 {
		t.Error("capacity should clamp to 1")
	}
	c.Put(1, 1, 1)
	c.Put(2, 2, 1)
	if c.Len() != 1 || c.Contains(1) {
		t.Error("single-slot eviction")
	}
}

func TestLRUMissCounts(t *testing.T) {
	c := NewLRU[int, int](1)
	c.Get(9)
	c.Put(9, 9, 1)
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
				c.Put(k, k, 1)
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
			c.Put(k, k, 1)
			c.Get(rng.Intn(40))
			if c.Len() > c.Budget() {
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
		c.Put(k, k, 1)
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
		c.Put(k, k, 1)
	}
	k := 64
	allocs := testing.AllocsPerRun(200, func() {
		c.Put(k, k, 1)
		c.Get(k - 3)
		c.Contains(k - 5)
		k++
	})
	if allocs != 0 {
		t.Errorf("steady-state LRU ops allocate %.1f/op, want 0", allocs)
	}
}

// TestWeightedEvictsUntilItFits: a Put evicts whole least-recent entries,
// as many as it takes, until the total weight fits the budget — and no
// more than that.
func TestWeightedEvictsUntilItFits(t *testing.T) {
	c := NewLRU[int, int](10)
	for k, w := range []int{2, 3, 1, 4} { // weight 10: full, nothing evicted
		c.Put(k, k, w)
	}
	if c.Len() != 4 || c.Weight() != 10 || c.Stats().Evictions != 0 {
		t.Fatalf("%d entries of weight %d, %d evictions; want 4 of 10, none", c.Len(), c.Weight(), c.Stats().Evictions)
	}
	c.Put(4, 4, 6) // 16: entries 0 (2), 1 (3) and 2 (1) must go; 3 stays
	if got := c.Keys(); !reflect.DeepEqual(got, []int{4, 3}) || c.Weight() != 10 {
		t.Fatalf("keys %v of weight %d after a put of 6, want [4 3] of 10", got, c.Weight())
	}
	if c.Stats().Evictions != 3 {
		t.Fatalf("%d evictions, want 3", c.Stats().Evictions)
	}
	c.Put(5, 5, 12) // heavier than the budget: it stays, alone
	if got := c.Keys(); !reflect.DeepEqual(got, []int{5}) || c.Weight() != 12 {
		t.Fatalf("keys %v of weight %d after an over-budget put, want [5] of 12", got, c.Weight())
	}
}

// TestReweighNeverEvictsItself: a cached entry that grew is reweighed in
// place, keeping its recency, and the entries evicted to make room are
// the least recent others — never the one that grew, even when it is the
// least recent or outgrows the budget.
func TestReweighNeverEvictsItself(t *testing.T) {
	c := NewLRU[int, int](10)
	c.Put(1, 1, 2)
	c.Put(2, 2, 2)
	c.Put(3, 3, 2)
	if !c.Reweigh(2, 7) { // 11: 1 goes, the least recent
		t.Fatal("Reweigh of a cached key reported it absent")
	}
	if got := c.Keys(); !reflect.DeepEqual(got, []int{3, 2}) || c.Weight() != 9 {
		t.Fatalf("keys %v of weight %d, want [3 2] of 9", got, c.Weight())
	}
	if !c.Reweigh(2, 9) { // the least recent itself grows: 3 goes instead
		t.Fatal("Reweigh of a cached key reported it absent")
	}
	if got := c.Keys(); !reflect.DeepEqual(got, []int{2}) || c.Weight() != 9 {
		t.Fatalf("keys %v of weight %d, want [2] of 9", got, c.Weight())
	}
	if !c.Reweigh(2, 30) || !c.Contains(2) || c.Weight() != 30 {
		t.Fatalf("an entry that outgrew the budget: contained %v, weight %d; want kept, 30", c.Contains(2), c.Weight())
	}
	if c.Reweigh(99, 1) {
		t.Fatal("Reweigh of an absent key reported it cached")
	}
	if st := c.Stats(); st.Puts != 3 || st.Hits != 0 {
		t.Fatalf("reweighing counted %+v; it is neither a put nor a lookup", st)
	}
}

// TestOnEvictSeesConsistentWeight: every hook call of a multi-entry
// eviction sees the cache as that eviction left it: the key gone, the
// weight without it, the list and the weight agreeing.
func TestOnEvictSeesConsistentWeight(t *testing.T) {
	c := NewLRU[int, int](12)
	weights := map[int]int{}
	var order []int
	c.OnEvict(func(k, v int) {
		order = append(order, k)
		if c.Contains(k) {
			t.Errorf("hook for %d: still cached", k)
		}
		sum := 0
		for _, key := range c.Keys() {
			sum += weights[key]
		}
		if sum != c.Weight() || len(c.Keys()) != c.Len() {
			t.Errorf("hook for %d: entries weigh %d, the cache says %d", k, sum, c.Weight())
		}
	})
	for k := 0; k < 6; k++ {
		weights[k] = 1 + k%3
		c.Put(k, k, weights[k]) // 1+2+3+1+2+3
	}
	weights[6] = 9
	c.Put(6, 6, 9)
	if want := []int{0, 1, 2, 3, 4}; !reflect.DeepEqual(order, want) {
		t.Fatalf("evicted %v, want %v", order, want)
	}
	if got := c.Keys(); !reflect.DeepEqual(got, []int{6, 5}) || c.Weight() != 12 {
		t.Fatalf("keys %v of weight %d, want [6 5] of 12", got, c.Weight())
	}
}

// TestWeightedSteadyStateAllocFree: at the budget, with entries of
// uneven weights, some puts evicting several entries and some none, a
// Put/Reweigh/Get/Contains round allocates nothing once the slab and its
// free list have grown.
func TestWeightedSteadyStateAllocFree(t *testing.T) {
	c := NewLRU[int, int](64)
	k := 0
	round := func() {
		c.Put(k, k, 1+k%7)
		c.Get(k - 3)
		c.Reweigh(k-3, 1+(k+2)%9)
		c.Contains(k - 5)
		k++
	}
	for range 512 { // warm up past the budget
		round()
	}
	if allocs := testing.AllocsPerRun(500, round); allocs != 0 {
		t.Errorf("steady-state weighted LRU round allocates %.1f/op, want 0", allocs)
	}
	if c.Weight() > c.Budget() {
		t.Errorf("weight %d over budget %d", c.Weight(), c.Budget())
	}
}
