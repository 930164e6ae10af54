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

// TestFanout: a shard's share count is the number of objects with a bucket
// on it — what the per-shard slices Fanout used to build were long — so an
// object straddling two shards' buckets counts on both, and a shard the
// query does not reach counts zero.
func TestFanout(t *testing.T) {
	part := testPartition(t, 200)
	m, err := NewMap(part, 4)
	if err != nil {
		t.Fatal(err)
	}
	cat := part.Catalog()
	var wos []xmatch.WorkloadObject
	for _, o := range cat.Objects(0, 64) {
		wos = append(wos, xmatch.NewWorkloadObject(1, o, geom.ArcsecToRad(5)))
	}
	// The last object of bucket 0 with a radius wide enough to reach into
	// bucket 1: shards 0 and 1 both.
	straddler := xmatch.NewWorkloadObject(1, cat.Objects(199, 200)[0], geom.Radians(2))
	if bis := part.BucketsForRanges(straddler.Ranges()); len(bis) < 2 {
		t.Fatalf("fixture: the wide object reaches buckets %v, want two or more", bis)
	}
	wos = append(wos, straddler)

	// Reference: the shards owning each object's buckets, once per shard.
	want := make([]int, 4)
	straddled := 0
	for _, wo := range wos {
		on := map[int]bool{}
		for _, bi := range part.BucketsForRanges(wo.Ranges()) {
			on[m.Owner(bi)] = true
		}
		for s := range on {
			want[s]++
		}
		if len(on) > 1 {
			straddled++
		}
	}
	if straddled == 0 {
		t.Fatal("fixture: no object has buckets on two shards")
	}
	got := m.Fanout(wos)
	if !slices.Equal(got, want) {
		t.Fatalf("share counts %v, want %v", got, want)
	}
	total := 0
	for _, n := range got {
		total += n
	}
	if total <= len(wos) {
		t.Errorf("counts sum to %d over %d objects: a straddling object must count on every shard it reaches", total, len(wos))
	}

	// The first object sits in bucket 0, which shard 0 owns: the other
	// three shards are untouched.
	if first := m.Fanout(wos[:1]); !slices.Equal(first, []int{1, 0, 0, 0}) {
		t.Errorf("first object counts %v, want [1 0 0 0]", first)
	}
	// Empty input fans out to nothing, on every shard.
	if none := m.Fanout(nil); !slices.Equal(none, []int{0, 0, 0, 0}) {
		t.Errorf("empty fan-out counts %v", none)
	}
}
