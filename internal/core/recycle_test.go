package core

import (
	"context"
	"fmt"
	"reflect"
	"strconv"
	"testing"
	"time"

	"liferaft/internal/bucket"
	"liferaft/internal/cache"
	"liferaft/internal/catalog"
	"liferaft/internal/disk"
	"liferaft/internal/metric"
	"liferaft/internal/segment"
	"liferaft/internal/simclock"
	"liferaft/internal/xmatch"
)

// TestRecycledBucketsMatchBruteForce: a bucket array the cache evicts is
// the one the shard's next cold scan decodes into, so a view of it that
// outlived the eviction would answer with another bucket's objects. Under
// heavy eviction churn — one or two cached buckets a shard, every cache
// policy, K = 1, 2 and 4 — hot queries whose services are split and run in
// part by idle siblings, scan-sized queries over eight buckets, and cancels
// must still answer exactly the brute-force pairs (a cancelled query a
// subset of them), round after round, the later rounds starting on what the
// earlier ones left cached. The same churn over the simulated store, whose
// arrays are the catalog's and never recycled, leaves what the partition
// materializes unchanged.
func TestRecycledBucketsMatchBruteForce(t *testing.T) {
	shardPart, _ := shardFixture(t)
	// The fixture's buckets at a 64-byte stride, so the store is 800 KB.
	part, err := bucket.NewPartition(shardPart.Catalog(), shardPart.PerBucket(), 64)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := segment.Write(dir, part, segment.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	locals := allObjects(part)
	before := append([]catalog.Object(nil), locals...)

	var jobs []Job
	for i := 0; i < 4; i++ {
		// Every fourth bucket is shard 0's at each K, so the other arms are
		// idle to help with these split services.
		jobs = append(jobs, spanQuery(part, uint64(len(jobs)+1), 4*i, 1, 3*servicePartUnits+8*i))
	}
	for i := 0; i < 4; i++ {
		jobs = append(jobs, spanQuery(part, uint64(len(jobs)+1), 5*i, 8, 25))
	}
	want := make([][]xmatch.Pair, len(jobs))
	for i, j := range jobs {
		want[i] = xmatch.BruteForce(locals, j.Objects, nil)
	}
	cancelled := map[uint64]bool{3: true, 6: true}

	backends := []struct {
		name string
		cfg  func() Config
	}{
		{"file", func() Config {
			set, err := segment.OpenSet(dir)
			if err != nil {
				t.Fatal(err)
			}
			// Tm of 20 µs: a 64-unit part lasts long enough for an idle
			// sibling to wake and take the next.
			model := disk.SkyQuery()
			model.MatchCost = 20 * time.Microsecond
			clk := simclock.Real{}
			d := disk.New(model, clk)
			return Config{
				Store: bucket.NewStore(part, d, true).WithBackend(segment.NewBackend(set, true)),
				Disk:  d, Clock: clk, Alpha: 0.25, MaterializeResults: true,
			}
		}},
		{"sim", func() Config { cfg, _ := NewVirtual(part, 0.25, true); return cfg }},
	}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			forEachK(t, func(t *testing.T, k int) {
				for _, policy := range []cache.PolicyName{cache.PolicyLRU, cache.PolicyClock, cache.PolicyTwoQueue} {
					for _, cached := range []int{1, 2} {
						t.Run(fmt.Sprintf("%s/cache=%d", policy, cached), func(t *testing.T) {
							cfg := be.cfg()
							defer cfg.Store.Close()
							cfg.Shards, cfg.CachePolicy, cfg.CacheBuckets = k, policy, cached
							em := NewEngineMetrics(metric.NewRegistry())
							cfg.Metrics = em
							churn(t, cfg, jobs, want, cancelled)
							var services, own, helped, evicted float64
							for s := 0; s < k; s++ {
								sh := strconv.Itoa(s)
								services += em.services.With(sh, "scan").Value() + em.services.With(sh, "index").Value()
								own += em.parts.With(sh, "own").Value()
								helped += em.parts.With(sh, "helped").Value()
								evicted += em.cacheEvict.With(sh, "ram").Value()
							}
							t.Logf("%.0f services in %.0f parts, %.0f run by a sibling; %.0f evictions", services, own+helped, helped, evicted)
							if evicted == 0 {
								t.Error("no bucket was evicted: nothing was recycled")
							}
							if k > 1 && own+helped <= services {
								t.Errorf("%.0f parts for %.0f services: no service was split", own+helped, services)
							}
						})
					}
				}
			})
		})
	}
	if !reflect.DeepEqual(allObjects(part), before) {
		t.Error("the partition materializes other objects after the churn: a simulated store's array was recycled")
	}
}

// churn runs three rounds of jobs through a Live engine over cfg: each
// round submits them all, cancels those marked, and checks every result
// against want — the brute-force pairs, or for a query the cancel reached,
// a subset of them.
func churn(t *testing.T, cfg Config, jobs []Job, want [][]xmatch.Pair, cancel map[uint64]bool) {
	t.Helper()
	l, err := NewLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for round := 0; round < 3; round++ {
		chans := make([]<-chan Result, len(jobs))
		for i, j := range jobs {
			if chans[i], err = l.SubmitCtx(context.Background(), j); err != nil {
				t.Fatal(err)
			}
		}
		for id := range cancel {
			if err := l.Cancel(id); err != nil {
				t.Fatal(err)
			}
		}
		for i, ch := range chans {
			r, ok := <-ch
			if !ok {
				t.Fatalf("round %d, q%d: no result", round, jobs[i].ID)
			}
			if r.Matches != len(r.Pairs) {
				t.Errorf("round %d, q%d: %d matches, %d pairs", round, jobs[i].ID, r.Matches, len(r.Pairs))
			}
			if !r.Cancelled {
				if !samePairSet(r.Pairs, want[i]) {
					t.Errorf("round %d, q%d: %d pairs, not the %d brute-force pairs", round, jobs[i].ID, len(r.Pairs), len(want[i]))
				}
				continue
			}
			if !cancel[jobs[i].ID] {
				t.Errorf("round %d: q%d was cancelled without being asked to be", round, jobs[i].ID)
			}
			in := make(map[xmatch.Pair]bool, len(want[i]))
			for _, p := range want[i] {
				in[p] = true
			}
			for _, p := range r.Pairs {
				if !in[p] {
					t.Errorf("round %d: cancelled q%d carries %v, which brute force does not have", round, jobs[i].ID, p)
					break
				}
			}
		}
	}
}
