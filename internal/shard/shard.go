// Package shard partitions the bucket space of a LifeRaft engine across K
// independent disk/worker shards. LifeRaft (the paper) schedules queries
// by data contention so a *single* disk arm services the hottest
// partition; this package scales the same aged-workload-throughput policy
// to many disks by giving each shard its own disk, bucket cache, and
// workload queues, while a coordinator fans each submitted query's
// workload objects out to the shards owning the buckets they overlap and
// tracks per-query completion across shards.
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
// The package provides the building blocks the engine composes:
//
//   - Map is that assignment for one partition: bucket ownership lookups
//     and workload-object fan-out.
//   - Coordinator tracks in-flight queries that fanned out to several
//     shards and reports the merged completion instant when the last
//     shard finishes.
//
// The per-shard engines themselves live in internal/core (see
// core.Config.Shards); shards on a virtual clock each charge costs to
// their own forked clock (simclock.Fork) so concurrent shards do not
// serialize on one modeled disk.
package shard

import (
	"fmt"
	"sync"
	"time"

	"liferaft/internal/bucket"
	"liferaft/internal/xmatch"
)

// Map is the bucket-to-shard assignment for one partition: bucket i along
// the HTM curve belongs to shard i mod K.
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

// Fanout groups a query's workload objects by owning shard: object w goes
// to every shard owning a bucket whose span overlaps w's bounding HTM
// range, once per shard. The result always has exactly Shards() entries;
// shards the query does not touch hold nil. This is the coordinator-side
// half of admission — each shard's engine re-derives the per-bucket
// assignment locally, restricted to the buckets it owns, so the union of
// per-shard assignments equals the single-engine assignment exactly.
func (m *Map) Fanout(objs []xmatch.WorkloadObject) [][]xmatch.WorkloadObject {
	out := make([][]xmatch.WorkloadObject, m.shards)
	// Two passes over the objects with the same scratch: the first counts
	// each shard's share, so the second fills slices carved at their final
	// size from one backing array. mark[s] holds the stamp of the last
	// (pass, object) that reached shard s — the once-per-shard guard.
	counts := make([]int, m.shards)
	mark := make([]int, m.shards)
	var bis []int
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			total := 0
			for _, n := range counts {
				total += n
			}
			backing := make([]xmatch.WorkloadObject, total)
			for s, n := range counts {
				if n > 0 { // untouched shards hold nil
					out[s], backing = backing[:0:n], backing[n:]
				}
			}
		}
		for i, wo := range objs {
			bis = m.part.AppendBucketsForRanges(bis[:0], wo.Ranges())
			stamp := pass*len(objs) + i + 1
			for _, bi := range bis {
				s := m.Owner(bi)
				if mark[s] == stamp {
					continue
				}
				mark[s] = stamp
				if pass == 0 {
					counts[s]++
				} else {
					out[s] = append(out[s], wo)
				}
			}
		}
	}
	return out
}

// Coordinator tracks queries in flight across several shards: a query
// registers with its fan-out width, each shard reports its local
// completion, and the coordinator reports the query done — with the
// latest (merged) completion instant — when the last shard finishes. It
// is safe for concurrent use by shard workers.
type Coordinator struct {
	mu      sync.Mutex
	pending map[uint64]*fanState
}

type fanState struct {
	remaining int
	latest    time.Time
}

// NewCoordinator returns an empty coordinator.
func NewCoordinator() *Coordinator {
	return &Coordinator{pending: make(map[uint64]*fanState)}
}

// Register records that query q fanned out to n shards. Registering an
// in-flight query twice or a non-positive fan-out is a programming error.
func (c *Coordinator) Register(q uint64, n int) error {
	if n < 1 {
		return fmt.Errorf("shard: query %d registered with fan-out %d", q, n)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.pending[q]; dup {
		return fmt.Errorf("shard: query %d already in flight", q)
	}
	c.pending[q] = &fanState{remaining: n}
	return nil
}

// Complete records that one shard finished its part of query q at
// instant at. When the last shard reports, done is true and latest is the
// merged completion instant (the maximum across shards). Completing an
// unregistered query panics: it means a shard serviced work the
// coordinator never fanned out.
func (c *Coordinator) Complete(q uint64, at time.Time) (done bool, latest time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.pending[q]
	if st == nil {
		panic(fmt.Sprintf("shard: completion for unregistered query %d", q))
	}
	if at.After(st.latest) {
		st.latest = at
	}
	st.remaining--
	if st.remaining > 0 {
		return false, time.Time{}
	}
	delete(c.pending, q)
	return true, st.latest
}

// Pending returns the number of queries still in flight.
func (c *Coordinator) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}
