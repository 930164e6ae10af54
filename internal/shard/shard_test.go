package shard

import (
	"slices"
	"testing"

	"liferaft/internal/bucket"
	"liferaft/internal/catalog"
	"liferaft/internal/geom"
	"liferaft/internal/xmatch"
)

func testPartition(t *testing.T, perBucket int) *bucket.Partition {
	t.Helper()
	cat, err := catalog.New(catalog.Config{
		Name: "sdss", N: 6400, Seed: 9, GenLevel: 4, CacheTrixels: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	part, err := bucket.NewPartition(cat, perBucket, 0)
	if err != nil {
		t.Fatal(err)
	}
	return part
}

func TestNewMapValidation(t *testing.T) {
	part := testPartition(t, 200) // 32 buckets
	if _, err := NewMap(nil, 2); err == nil {
		t.Error("nil partition should fail")
	}
	if _, err := NewMap(part, 0); err == nil {
		t.Error("zero shards should fail")
	}
	if _, err := NewMap(part, -1); err == nil {
		t.Error("negative shards should fail")
	}
}

// TestRoundRobinPlacement: bucket counts differ by at most one across
// shards, and every run of n consecutive buckets — what a region query
// touches — lands on min(n, K) shards in shares within one of each other.
func TestRoundRobinPlacement(t *testing.T) {
	part := testPartition(t, 200) // 32 buckets
	nb := part.NumBuckets()
	for _, k := range []int{1, 2, 3, 4, 7, 8, 31, 32} {
		m, err := NewMap(part, k)
		if err != nil {
			t.Fatal(err)
		}
		if m.Shards() != k || m.NumBuckets() != nb {
			t.Fatalf("k=%d: wrong dimensions", k)
		}
		owned := make([]int, k)
		for b := 0; b < nb; b++ {
			owned[m.Owner(b)]++
		}
		for s, n := range owned {
			if m.Buckets(s) != n {
				t.Errorf("k=%d: Buckets(%d) = %d, Owner assigns it %d", k, s, m.Buckets(s), n)
			}
		}
		if lo, hi := slices.Min(owned), slices.Max(owned); hi-lo > 1 {
			t.Errorf("k=%d: imbalanced: min %d max %d", k, lo, hi)
		}
		for n := 1; n <= nb; n++ {
			for start := 0; start+n <= nb; start++ {
				run := make([]int, k)
				touched := 0
				for b := start; b < start+n; b++ {
					if run[m.Owner(b)]++; run[m.Owner(b)] == 1 {
						touched++
					}
				}
				// Shards the run misses (n < k) count as zero shares.
				if lo, hi := slices.Min(run), slices.Max(run); touched != min(n, k) || hi-lo > 1 {
					t.Fatalf("k=%d: buckets [%d, %d) touch %d shards with shares %v, want %d shards within 1",
						k, start, start+n, touched, run, min(n, k))
				}
			}
		}
	}
}

func TestMoreShardsThanBuckets(t *testing.T) {
	part := testPartition(t, 3200) // 2 buckets
	m, err := NewMap(part, 8)
	if err != nil {
		t.Fatal(err)
	}
	owned := 0
	for s := 0; s < 8; s++ {
		if m.Buckets(s) > 0 {
			owned++
		}
	}
	if owned != 2 {
		t.Fatalf("%d shards own buckets, want 2 (the rest are empty shards)", owned)
	}
}

func TestFanout(t *testing.T) {
	part := testPartition(t, 200)
	m, err := NewMap(part, 4)
	if err != nil {
		t.Fatal(err)
	}
	cat := part.Catalog()
	objs := cat.Objects(0, 64)
	var wos []xmatch.WorkloadObject
	for _, o := range objs {
		wos = append(wos, xmatch.NewWorkloadObject(1, o, geom.ArcsecToRad(5)))
	}
	fan := m.Fanout(wos)
	if len(fan) != 4 {
		t.Fatalf("fan-out has %d entries, want 4", len(fan))
	}
	// Every object must land on exactly the shards owning its buckets,
	// once per shard.
	for _, wo := range wos {
		want := map[int]bool{}
		for _, bi := range part.BucketsForRanges(wo.Ranges()) {
			want[m.Owner(bi)] = true
		}
		for s := 0; s < 4; s++ {
			got := 0
			for _, fo := range fan[s] {
				if fo.Obj.ID == wo.Obj.ID {
					got++
				}
			}
			wantN := 0
			if want[s] {
				wantN = 1
			}
			if got != wantN {
				t.Fatalf("object %d appears %d times on shard %d, want %d", wo.Obj.ID, got, s, wantN)
			}
		}
	}
	// The first object sits in bucket 0, which shard 0 owns.
	first := m.Fanout(wos[:1])
	if len(first[0]) != 1 {
		t.Error("first object should land on shard 0")
	}
	// Empty input fans out to nothing.
	for s, part := range m.Fanout(nil) {
		if len(part) != 0 {
			t.Errorf("empty fan-out has work on shard %d", s)
		}
	}
}
