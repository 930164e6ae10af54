package core

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"liferaft/internal/bucket"
	"liferaft/internal/disk"
	"liferaft/internal/metric"
	"liferaft/internal/simclock"
)

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
				Store: bucket.NewStore(part, d, false), Disk: d, Clock: clk,
				Alpha: 0.5, CacheBuckets: 20, Shards: k, Metrics: NewEngineMetrics(reg),
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
