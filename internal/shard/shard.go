// Package shard partitions the bucket space of a LifeRaft engine across K
// independent disk/worker shards. LifeRaft (the paper) schedules queries
// by data contention so a *single* disk arm services the hottest
// partition; this package scales the same aged-workload-throughput policy
// to many disks by giving each shard its own disk, bucket cache, and
// workload queues, while the engine hands each submitted query to the
// shards owning the buckets its workload objects overlap.
//
// Buckets are dealt to shards round-robin along the HTM curve (bucket i
// belongs to shard i mod K), the declustering a striped multi-disk
// deployment uses: a region query's buckets are a contiguous run of the
// curve, so any n consecutive buckets land on min(n, K) shards in shares
// within one bucket of each other, every query drives every arm, and its
// bucket services run K abreast. (A contiguous range per shard would keep
// a query on one arm and leave the others idle behind it.) This is the
// only placement; there is no strategy to choose.
//
// The package provides one building block: Map is that assignment for one
// partition — bucket ownership lookups and, for a query, how many of its
// workload objects each shard has work for. It moves no objects: the engine
// hands every touched shard the query's own list, and a shard queues what
// falls in the buckets it owns.
//
// The per-shard engines themselves live in internal/core (see
// core.Config.Shards), as does the per-query fan-in across shards (a
// query completes when the last shard holding part of it does); shards on
// a virtual clock each charge costs to their own forked clock
// (simclock.Fork) so concurrent shards do not serialize on one modeled
// disk.
package shard

import (
	"fmt"

	"liferaft/internal/bucket"
	"liferaft/internal/xmatch"
)

// Map is the bucket-to-shard assignment for one partition: bucket i along
// the HTM curve belongs to shard i mod K. It is immutable once built and
// safe for concurrent use; it answers who owns a bucket (Owner) and what
// share of a query's objects each shard has (Fanout), and holds no
// per-query state.
type Map struct {
	part   *bucket.Partition
	shards int
}

// NewMap deals part's buckets round-robin across shards. shards may exceed
// the bucket count; the excess shards simply own no buckets.
func NewMap(part *bucket.Partition, shards int) (*Map, error) {
	if part == nil {
		return nil, fmt.Errorf("shard: nil partition")
	}
	if shards < 1 {
		return nil, fmt.Errorf("shard: shards %d must be >= 1", shards)
	}
	return &Map{part: part, shards: shards}, nil
}

// Shards returns the number of shards.
func (m *Map) Shards() int { return m.shards }

// NumBuckets returns the number of buckets in the underlying partition.
func (m *Map) NumBuckets() int { return m.part.NumBuckets() }

// Owner returns the shard owning bucket b.
func (m *Map) Owner(b int) int { return b % m.shards }

// Buckets returns how many buckets shard s owns.
func (m *Map) Buckets(s int) int {
	// Buckets s, s+K, s+2K, ... below NumBuckets.
	return (m.NumBuckets() - s + m.shards - 1) / m.shards
}

// Fanout counts a query's workload objects by owning shard: object w counts
// toward every shard owning a bucket whose span overlaps w's bounding HTM
// range, once per shard (an object straddling two shards' buckets counts on
// both). The result always has exactly Shards() entries; shards the query
// does not touch count zero. This is the coordinator-side half of admission,
// and it copies nothing: every touched shard is handed the same objs and
// its engine re-derives the per-bucket assignment locally, restricted to the
// buckets it owns, so the union of per-shard assignments equals the
// single-engine assignment exactly. A shard's count is what it sizes the
// query's state by — how many of objs it will queue at least once.
func (m *Map) Fanout(objs []xmatch.WorkloadObject) []int {
	// One allocation for the counts and the once-per-shard guard: mark[s]
	// holds the stamp of the last object that reached shard s.
	scratch := make([]int, 2*m.shards)
	counts, mark := scratch[:m.shards:m.shards], scratch[m.shards:]
	var bis []int
	for i, wo := range objs {
		bis = m.part.AppendBucketsForRanges(bis[:0], wo.Ranges())
		for _, bi := range bis {
			s := m.Owner(bi)
			if mark[s] == i+1 {
				continue
			}
			mark[s] = i + 1
			counts[s]++
		}
	}
	return counts
}
