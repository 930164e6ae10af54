package cache

import (
	"fmt"
	"testing"
)

// TestPutOverwriteAccounting: refreshing a resident key must not evict,
// must not grow Len, must not fire OnEvict, and must replace the value.
func TestPutOverwriteAccounting(t *testing.T) {
	t.Run("lru", func(t *testing.T) {
		c := NewLRU[int, string](4)
		var evicted []int
		c.OnEvict(func(k int, _ string) { evicted = append(evicted, k) })
		c.Put(1, "a", 1)
		c.Get(1)
		c.Put(2, "b", 1)
		c.Get(2)
		before := c.Stats()
		c.Put(1, "a2", 1) // overwrite, cache not even full
		c.Put(2, "b2", 1)
		st := c.Stats()
		if st.Evictions != before.Evictions {
			t.Fatalf("overwrite evicted: %d -> %d", before.Evictions, st.Evictions)
		}
		if len(evicted) != 0 {
			t.Fatalf("OnEvict fired on overwrite: %v", evicted)
		}
		if c.Len() != 2 {
			t.Fatalf("len = %d after overwriting 2 resident keys, want 2", c.Len())
		}
		if v, ok := c.Get(1); !ok || v != "a2" {
			t.Fatalf("Get(1) = %q,%v want a2", v, ok)
		}
		if v, ok := c.Get(2); !ok || v != "b2" {
			t.Fatalf("Get(2) = %q,%v want b2", v, ok)
		}
	})
}

// TestOnEvictReentrancy: an OnEvict hook that calls back into the cache
// (a hook may read cache state, and a pin-style hook may re-Put) must
// observe the post-eviction state and must not corrupt the cache or
// livelock. The scheduler's hook, set in newScheduler, hands the evicted
// array back to the store and counts the eviction.
func TestOnEvictReentrancy(t *testing.T) {
	t.Run("lru", func(t *testing.T) {
		c := NewLRU[int, string](2)
		var fired []int
		c.OnEvict(func(k int, v string) {
			fired = append(fired, k)
			// The contract: the hook observes a consistent cache with
			// the evicted key already gone.
			if c.Contains(k) {
				t.Fatalf("hook sees evicted key %d still resident", k)
			}
			// Reentrant reads must be safe.
			c.Get(k)
			c.Contains(k + 100)
		})
		for i := 0; i < 10; i++ {
			c.Put(i, fmt.Sprint(i), 1)
		}
		if c.Len() > c.Budget() {
			t.Fatalf("len %d exceeds cap %d", c.Len(), c.Budget())
		}
		if len(fired) == 0 {
			t.Fatal("no evictions fired across 10 puts into a 2-cap cache")
		}
	})

	// Reentrant Put from the hook (re-inserting the evicted victim — the
	// pin pattern): the cache must terminate and end consistent.
	t.Run("lru/reput", func(t *testing.T) {
		c := NewLRU[int, string](2)
		c.Put(0, "pinned", 1)
		depth := 0
		c.OnEvict(func(k int, v string) {
			if k == 0 && depth == 0 {
				depth++
				c.Put(0, "pinned", 1)
			}
		})
		for i := 1; i <= 6; i++ {
			c.Put(i, fmt.Sprint(i), 1)
		}
		if c.Len() > c.Budget() {
			t.Fatalf("len %d exceeds cap %d after reentrant puts", c.Len(), c.Budget())
		}
		// The cache still works.
		c.Put(99, "x", 1)
		if v, ok := c.Get(99); !ok || v != "x" {
			t.Fatalf("cache broken after reentrant hook: %q %v", v, ok)
		}
	})
}

// TestTinyCapacities: zero and one-entry capacities must clamp, bound
// Len, count evictions, and keep serving — the degenerate configs a
// misconfigured ablation run feeds in.
func TestTinyCapacities(t *testing.T) {
	for _, capacity := range []int{0, 1} {
		t.Run(fmt.Sprintf("lru/cap%d", capacity), func(t *testing.T) {
			c := NewLRU[int, string](capacity)
			for i := 0; i < 8; i++ {
				c.Put(i, fmt.Sprint(i), 1)
				if c.Len() > c.Budget() {
					t.Fatalf("len %d exceeds cap %d", c.Len(), c.Budget())
				}
			}
			if !c.Contains(7) {
				t.Fatal("most recent put not resident")
			}
			st := c.Stats()
			if st.Evictions == 0 {
				t.Fatalf("no evictions counted: %+v", st)
			}
			// Get of a missing key on a tiny cache must not panic and
			// must count a miss.
			before := c.Stats().Misses
			if _, ok := c.Get(-1); ok {
				t.Fatal("hit for never-inserted key")
			}
			if c.Stats().Misses != before+1 {
				t.Fatal("miss not counted")
			}
		})
	}
}

// TestEmptyHitRate: a fresh cache (and a fresh Stats zero value) must
// report 0, not NaN — this feeds straight into BENCH JSON and division
// by zero would poison every downstream gate comparison.
func TestEmptyHitRate(t *testing.T) {
	if hr := (Stats{}).HitRate(); hr != 0 {
		t.Fatalf("zero-value HitRate = %v, want 0", hr)
	}
	c := NewLRU[int, string](4)
	if hr := c.Stats().HitRate(); hr != 0 || hr != hr {
		t.Fatalf("fresh HitRate = %v, want 0", hr)
	}
	// Miss-only traffic: rate stays 0, still not NaN.
	c.Get(1)
	if hr := c.Stats().HitRate(); hr != 0 {
		t.Fatalf("miss-only HitRate = %v, want 0", hr)
	}
}
