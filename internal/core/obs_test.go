package core

import (
	"context"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"liferaft/internal/bucket"
	"liferaft/internal/catalog"
	"liferaft/internal/disk"
	"liferaft/internal/metric"
	"liferaft/internal/simclock"
	"liferaft/internal/xmatch"
)

// TestLiveWithoutMetrics: a nil Config.Metrics is how instrumentation is
// turned off, so every observability handle in the engine is nil and each
// use of one must sit behind its nil check; an unguarded one panics a shard
// worker and with it the test binary. A Live engine without metrics is
// driven through every path that carries such a check: a real clock at
// K = 1 and 2 — where a 300-unit service is split and the idle arm runs
// parts of it — and a virtual one, scan and index services, cache
// evictions, spilled queues, a cancel, and Close. Every query that was not
// cancelled answers the brute-force pairs.
func TestLiveWithoutMetrics(t *testing.T) {
	part, _ := shardFixture(t)
	var locals []catalog.Object
	for b := 0; b < part.NumBuckets(); b++ {
		locals = append(locals, part.Materialize(b)...)
	}
	clocks := []struct {
		name string
		clk  func() simclock.Clock
	}{
		{"real", func() simclock.Clock { return simclock.Real{} }},
		{"virtual", func() simclock.Clock { return simclock.NewVirtual() }},
	}
	for _, c := range clocks {
		for _, k := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/K=%d", c.name, k), func(t *testing.T) {
				cfg := NewOn(part, 0.25, true, c.clk())
				cfg.Shards, cfg.CacheBuckets, cfg.WorkloadMemoryCap = k, 1, 200
				l, err := NewLive(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer l.Close()
				run := func(jobs ...Job) {
					t.Helper()
					chans := make([]<-chan Result, len(jobs))
					for i, j := range jobs {
						if chans[i], err = l.SubmitCtx(context.Background(), j); err != nil {
							t.Fatal(err)
						}
					}
					if err := l.Cancel(jobs[len(jobs)-1].ID); err != nil {
						t.Fatal(err)
					}
					for i, ch := range chans {
						r := <-ch
						if r.Cancelled {
							continue
						}
						want := xmatch.BruteForce(locals, jobs[i].Objects, nil)
						xmatch.SortPairs(want)
						xmatch.SortPairs(r.Pairs)
						if len(r.Pairs) != len(want) || !reflect.DeepEqual(r.Pairs, want) {
							t.Errorf("q%d: %d pairs, brute force %d", jobs[i].ID, len(r.Pairs), len(want))
						}
					}
				}
				run(warmJob(part, 1), spanQuery(part, 2, 0, 8, 25), spanQuery(part, 3, 8, 8, 2),
					hotJob(part, 4, 300), spanQuery(part, 5, 16, 8, 25))
				if c.name == "real" && k == 2 {
					// hotBucket is shard 1's: a match shard 0 charges from
					// here on is a part it ran for shard 1. Whether the
					// idle arm wins a claim is a race on the wall clock,
					// so give it a few services.
					before := l.cfgs[0].Store.Disk().Stats().Matches
					for id := uint64(10); l.cfgs[0].Store.Disk().Stats().Matches == before; id++ {
						if id == 30 {
							t.Fatal("20 split services, and the idle arm ran no part of any")
						}
						run(hotJob(part, id, 300), hotJob(part, id+100, 20))
					}
				}
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				st, _ := l.Stats()
				if st.ScanServices == 0 || st.IndexServices == 0 || st.Cache.Evictions == 0 || st.SpilledObjects == 0 {
					t.Errorf("%d scan and %d index services, %d evictions, %d objects spilled: want all four above 0",
						st.ScanServices, st.IndexServices, st.Cache.Evictions, st.SpilledObjects)
				}
			})
		}
	}
}

// TestCacheFamiliesScrape pins the scrape contract the benchmark's
// cache.ram_hit_rate reads: every bucket service of a shard counts once in
// liferaft_cache_{hits,misses}_total{tier="ram"}, and the engine renders
// no other cache tier and no prefetch family. The hot trace arrives one
// query per virtual second, so later queries find their buckets cached.
func TestCacheFamiliesScrape(t *testing.T) {
	part, _, hotJobs, _ := parityFixture(t)
	offsets := make([]time.Duration, len(hotJobs))
	for i := range offsets {
		offsets[i] = time.Duration(i) * time.Second
	}
	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			reg := metric.NewRegistry()
			clk := simclock.NewVirtual()
			d := disk.New(parityModel(), clk)
			cfg := Config{
				Store: bucket.NewStore(part, d, false), Alpha: 0.5, CacheBuckets: 20, Shards: k, Metrics: NewEngineMetrics(reg),
			}
			_, stats, err := Run(cfg, hotJobs, offsets)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			if err := reg.WriteText(&b); err != nil {
				t.Fatal(err)
			}
			scrape := b.String()
			for s := 0; s < k; s++ {
				shard := fmt.Sprintf(`shard="%d"`, s)
				hits := sampleSum(t, scrape, "liferaft_cache_hits_total", shard, `tier="ram"`)
				misses := sampleSum(t, scrape, "liferaft_cache_misses_total", shard, `tier="ram"`)
				services := sampleSum(t, scrape, "liferaft_engine_services_total", shard)
				served := float64(stats.PerShard[s].Stats.BucketsServed)
				if hits == 0 || misses == 0 || hits+misses != services || services != served {
					t.Errorf("shard %d: ram hits %v + misses %v, services %v, BucketsServed %v; want hits and misses nonzero, summing to both", s, hits, misses, services, served)
				}
			}
			for _, line := range strings.Split(scrape, "\n") {
				if strings.Contains(line, `tier="disk"`) || strings.Contains(line, "liferaft_prefetch_total") {
					t.Errorf("scrape renders a disk-tier series: %s", line)
				}
			}
		})
	}
}

// sampleSum adds up the samples of family in scrape whose labels include
// every one of labels.
func sampleSum(t *testing.T, scrape, family string, labels ...string) float64 {
	t.Helper()
	var sum float64
	for _, line := range strings.Split(scrape, "\n") {
		name, rest, ok := strings.Cut(line, "{")
		if !ok || name != family {
			continue
		}
		set, val, _ := strings.Cut(rest, "} ")
		match := true
		for _, l := range labels {
			match = match && strings.Contains(","+set+",", ","+l+",")
		}
		if !match {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// TestCacheBytesGaugeIsResidentGranules: liferaft_cache_bytes is the
// on-disk size of what the RAM cache holds — on a segment store, the
// granules Scan services filled. A miss needing k granules sets it to their
// bytes, a hit needing j more adds theirs, and an eviction takes away the
// evicted bucket's.
func TestCacheBytesGaugeIsResidentGranules(t *testing.T) {
	part, dir := granuleFixture(t)
	em := NewEngineMetrics(metric.NewRegistry())
	s := fileScheduler(t, part, dir, 2, em)
	defer s.cfg.Store.Close()
	gauge := em.cacheBytes.With("0", "ram")
	held := map[int]map[int]bool{5: {}, 9: {}, 13: {}}
	resident := map[int]int64{}
	for _, c := range []struct {
		what    string
		b       int
		job     Job
		evicted int // -1: none
	}{
		{"miss", 5, stretchJob(part, 1, 5, 10, 40), -1},
		{"hit that fills", 5, stretchJob(part, 2, 5, 30, 70), -1},
		{"second bucket", 9, stretchJob(part, 3, 9, 100, 140), -1},
		{"miss that evicts the first", 13, stretchJob(part, 4, 13, 200, 220), 5},
	} {
		serve(t, s, c.job)
		added := selectGranules(part, c.b, c.job, held[c.b])
		if added == 0 {
			t.Fatalf("%s: the queue needs no granule the cache lacks", c.what)
		}
		resident[c.b] += added
		delete(resident, c.evicted)
		var want int64
		for _, n := range resident {
			want += n
		}
		if got := gauge.Value(); got != float64(want) {
			t.Errorf("%s: liferaft_cache_bytes = %.0f, want %d (%d added)", c.what, got, want, added)
		}
	}
}
