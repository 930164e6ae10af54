package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"testing"
	"time"

	"liferaft/internal/bucket"
	"liferaft/internal/catalog"
	"liferaft/internal/disk"
	"liferaft/internal/geom"
	"liferaft/internal/htm"
	"liferaft/internal/metric"
	"liferaft/internal/segment"
	"liferaft/internal/simclock"
	"liferaft/internal/trace"
	"liferaft/internal/xmatch"
)

// TestRecycledBucketsMatchBruteForce: a bucket array the cache evicts is
// the one the shard's next cold scan decodes into, and a cached bucket
// fills only the granules it lacks, so a view of an array that outlived its
// eviction, or a join over a slot no fill reached, would answer with
// another bucket's objects. Under eviction churn — an LRU of one, two or
// four buckets a shard, K = 1, 2 and 4 — hot queries whose services are
// split and run in part by idle siblings, scan-sized queries over eight
// buckets, cancels, and queries that reach a disjoint stretch of the same
// eight other buckets each round, so that a bucket one round left cached
// is filled by the next, must still answer exactly the brute-force pairs
// (a cancelled query a subset of them), round after round, the later
// rounds starting on what the earlier ones left cached. On the file store
// some of those hits read granules. The same churn over the simulated
// store, whose arrays are the catalog's and never recycled, leaves what
// the partition materializes unchanged; it runs on a virtual clock, where
// no service is split, so there every service is one part its owner ran.
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
	// stretch reaches objects [20+130k, +25) of each of buckets 24-31, which
	// the jobs above leave alone, for k = r and the next of three: stretch k
	// lies in granule 2k of 64 objects, so a service reads two runs with an
	// unread granule between them, and the next round needs one run more.
	stretch := func(id uint64, r int) Job {
		job := Job{ID: id}
		for b := 24; b < 32; b++ {
			objs := part.Materialize(b)
			for _, k := range []int{r, (r + 1) % 3} {
				for _, o := range objs[20+130*k:][:25] {
					job.Objects = append(job.Objects, xmatch.NewWorkloadObject(id, o, geom.ArcsecToRad(5)))
				}
			}
		}
		return job
	}
	rounds := [][]Job{jobs, {stretch(101, 0)}, {stretch(102, 1)}, jobs, {stretch(103, 2)}}
	want := make(map[uint64][]xmatch.Pair)
	for _, round := range rounds {
		for _, j := range round {
			want[j.ID] = xmatch.BruteForce(locals, j.Objects, nil)
		}
	}
	cancelled := map[uint64]bool{3: true, 6: true}

	backends := []struct {
		name  string
		split bool // services are split at K > 1 (a real clock)
		cfg   func() Config
	}{
		{"file", true, func() Config {
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
				Alpha: 0.25,
			}
		}},
		{"sim", false, func() Config { cfg, _ := NewVirtual(part, 0.25, true); return cfg }},
	}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			forEachK(t, func(t *testing.T, k int) {
				filled := 0.0
				for _, cached := range []int{1, 2, 4} {
					t.Run(fmt.Sprintf("lru/cache=%d", cached), func(t *testing.T) {
						cfg := be.cfg()
						defer cfg.Store.Close()
						cfg.Shards, cfg.CacheBuckets = k, cached
						em := NewEngineMetrics(metric.NewRegistry())
						cfg.Metrics = em
						churn(t, cfg, rounds, want, cancelled)
						var services, own, helped, evicted, fills float64
						for s := 0; s < k; s++ {
							sh := strconv.Itoa(s)
							scans := em.services.With(sh, "scan").Value()
							services += scans + em.services.With(sh, "index").Value()
							own += em.parts.With(sh, "own").Value()
							helped += em.parts.With(sh, "helped").Value()
							evicted += em.cacheEvict.With(sh, "ram").Value()
							// Every scan that missed read; the other reads are
							// hits that filled.
							misses := scans - em.cacheHits.With(sh, "ram").Value()
							fills += float64(em.readSec.With(sh, "scan").Count()) - misses
						}
						filled += fills
						t.Logf("%.0f services in %.0f parts, %.0f run by a sibling; %.0f evictions; %.0f hits read granules", services, own+helped, helped, evicted, fills)
						if evicted == 0 {
							t.Error("no bucket was evicted: nothing was recycled")
						}
						switch {
						case be.split && k > 1 && own+helped <= services:
							t.Errorf("%.0f parts for %.0f services: no service was split", own+helped, services)
						case !be.split && (helped != 0 || own != services):
							t.Errorf("%.0f parts for %.0f services, %.0f run by a sibling: a service was split on a virtual clock", own+helped, services, helped)
						}
					})
				}
				if be.name == "file" && filled == 0 {
					t.Error("no cache hit read a granule: nothing was filled")
				}
			})
		})
	}
	if !reflect.DeepEqual(allObjects(part), before) {
		t.Error("the partition materializes other objects after the churn: a simulated store's array was recycled")
	}
}

// churn runs rounds of jobs through a Live engine over cfg: each round
// submits its jobs, cancels those marked, and checks every result against
// want — the brute-force pairs, or for a query the cancel reached, a subset
// of them.
func churn(t *testing.T, cfg Config, rounds [][]Job, want map[uint64][]xmatch.Pair, cancel map[uint64]bool) {
	t.Helper()
	l, err := NewLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for round, jobs := range rounds {
		chans := make([]<-chan Result, len(jobs))
		for i, j := range jobs {
			if chans[i], err = l.SubmitCtx(context.Background(), j); err != nil {
				t.Fatal(err)
			}
		}
		for _, j := range jobs {
			if cancel[j.ID] {
				if err := l.Cancel(j.ID); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i, ch := range chans {
			w := want[jobs[i].ID]
			r, ok := <-ch
			if !ok {
				t.Fatalf("round %d, q%d: no result", round, jobs[i].ID)
			}
			if r.Matches != len(r.Pairs) {
				t.Errorf("round %d, q%d: %d matches, %d pairs", round, jobs[i].ID, r.Matches, len(r.Pairs))
			}
			if !r.Cancelled {
				if !samePairSet(r.Pairs, w) {
					t.Errorf("round %d, q%d: %d pairs, not the %d brute-force pairs", round, jobs[i].ID, len(r.Pairs), len(w))
				}
				continue
			}
			if !cancel[jobs[i].ID] {
				t.Errorf("round %d: q%d was cancelled without being asked to be", round, jobs[i].ID)
			}
			in := make(map[xmatch.Pair]bool, len(w))
			for _, p := range w {
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

// TestScanReadsGranulesOnce: on a segment store a Scan service reads only
// the granules its queue's keys select that the cached bucket lacks, so a
// run of services on one cached bucket moves each selected granule once:
// liferaft_store_read_bytes_total{kind="scan"} is the distinct selected
// granules times the granule size, the short last granule counted at its
// length, in one observation per service that read anything. RunStats.Disk
// keeps the model's account — one sequential read per miss, none per hit —
// and a traced query's scan store_read span marks a service that read or
// missed.
// An eviction forgets the granules, so the next miss reads them again; a
// queue whose keys select nothing reads nothing, and its miss still counts.
func TestScanReadsGranulesOnce(t *testing.T) {
	part, dir := granuleFixture(t)
	em := NewEngineMetrics(metric.NewRegistry())
	s := fileScheduler(t, part, dir, 1, em)
	defer s.cfg.Store.Close()
	locals := allObjects(part)
	rec := trace.New(trace.Config{})
	bytes, reads := em.readBytes.With("0", "scan"), em.readSec.With("0", "scan")
	var want float64
	check := func(what string, job Job, b int, have map[int]bool, miss bool) {
		t.Helper()
		seq, obs := s.cfg.Store.Disk().Stats().SeqReads, reads.Count()
		job.Trace = rec.Start("read-once", job.ID)
		r := serve(t, s, job)
		spans := 0
		for _, sp := range rec.Finish(job.Trace).Spans {
			if sp.Stage == trace.StageStoreRead && sp.Attr == "scan" {
				spans++
			}
		}
		if pairs := xmatch.BruteForce(locals, job.Objects, nil); len(pairs) == 0 || !samePairSet(r.Pairs, pairs) {
			t.Errorf("%s: %d pairs, not the %d brute-force pairs", what, len(r.Pairs), len(pairs))
		}
		added := selectGranules(part, b, job, have)
		want += float64(added)
		t.Logf("%s: %d units, %d bytes of granules not yet resident", what, len(job.Objects), added)
		if got := bytes.Value(); got != want {
			t.Errorf("%s: %.0f scan bytes read in all, want %.0f (%d for this service)", what, got, want, added)
		}
		if n := reads.Count() - obs; n != 0 && n != 1 || (n == 1) != (added > 0) {
			t.Errorf("%s: %d scan read observations for a service that read %d bytes", what, n, added)
		}
		if (spans == 1) != (miss || added > 0) || spans > 1 {
			t.Errorf("%s: %d scan store_read spans for a service that read %d bytes", what, spans, added)
		}
		wantSeq := seq
		if miss {
			wantSeq++
		}
		if got := s.cfg.Store.Disk().Stats().SeqReads; got != wantSeq {
			t.Errorf("%s: %d sequential reads accounted, want %d", what, got, wantSeq)
		}
	}
	const b, other = 5, 9
	have := make(map[int]bool)
	check("miss", stretchJob(part, 1, b, 10, 40), b, have, true)
	check("hit past what the miss read", stretchJob(part, 2, b, 30, 70), b, have, false)
	check("hit on the short last granule", stretchJob(part, 3, b, 390, 400), b, have, false)
	check("hit inside what is resident", stretchJob(part, 4, b, 15, 35), b, have, false)
	check("miss that evicts", stretchJob(part, 5, other, 100, 140), other, make(map[int]bool), true)
	check("miss after the eviction", stretchJob(part, 6, b, 10, 40), b, make(map[int]bool), true)

	// Objects of a far bucket queued on bucket 13 by hand: their circles
	// reach none of its IDs, so every key is empty.
	far := stretchJob(part, 7, 20, 100, 130)
	s.queries[far.ID] = &queryState{job: far, result: Result{QueryID: far.ID}, remaining: len(far.Objects)}
	now := s.cfg.clock().Now()
	for _, wo := range far.Objects {
		s.pushItem(13, item{wo: wo, arrived: now, ageWeight: 1})
	}
	seq, obs, before := s.cfg.Store.Disk().Stats().SeqReads, reads.Count(), bytes.Value()
	if done, _ := s.step(now); len(done) != 1 || len(done[0].Pairs) != 0 {
		t.Fatalf("the far queue's service completed %v, want q%d with no pairs", done, far.ID)
	}
	if s.stats.ScanServices != 7 || reads.Count() != obs || bytes.Value() != before || s.cfg.Store.Disk().Stats().SeqReads != seq+1 {
		t.Errorf("a scan miss whose keys select nothing: %d scan services (want 7), %d read observations and %.0f bytes (want none), %d sequential reads accounted (want 1)",
			s.stats.ScanServices, reads.Count()-obs, bytes.Value()-before, s.cfg.Store.Disk().Stats().SeqReads-seq)
	}
}

// TestProbeKeepsNothing: on a segment store an index probe is a fill of a
// Resident the store resets for every probe and no cache holds. It reads
// the distinct granules its queue's keys select —
// liferaft_store_read_bytes_total{kind="probe"} moves by their bytes, the
// short last granule at its length — and the same probe again reads them
// again. A Scan service of the bucket after the probes is still a miss,
// accounted as one sequential read, that reads every granule its own keys
// select, the probed ones among them.
func TestProbeKeepsNothing(t *testing.T) {
	part, dir := granuleFixture(t)
	em := NewEngineMetrics(metric.NewRegistry())
	s := fileScheduler(t, part, dir, 4, em)
	defer s.cfg.Store.Close()
	locals := allObjects(part)
	probeBytes, scanBytes := em.readBytes.With("0", "probe"), em.readBytes.With("0", "scan")
	misses := em.cacheMiss.With("0", "ram")
	const b = 5
	for id := uint64(1); id <= 2; id++ {
		// Four units of a 400-object bucket: under the 3% threshold.
		job := stretchJob(part, id, b, 100, 104)
		before := probeBytes.Value()
		r := serve(t, s, job)
		if pairs := xmatch.BruteForce(locals, job.Objects, nil); len(pairs) == 0 || !samePairSet(r.Pairs, pairs) {
			t.Errorf("probe %d: %d pairs, not the %d brute-force pairs", id, len(r.Pairs), len(pairs))
		}
		if s.stats.IndexServices != int64(id) || s.stats.ScanServices != 0 {
			t.Fatalf("after probe %d: %d index and %d scan services; the fixture must probe", id, s.stats.IndexServices, s.stats.ScanServices)
		}
		want := selectGranules(part, b, job, make(map[int]bool))
		if got := probeBytes.Value() - before; got != float64(want) || want == 0 {
			t.Errorf("probe %d read %.0f bytes, want the %d bytes of the granules its keys select", id, got, want)
		}
	}
	job := stretchJob(part, 3, b, 90, 130)
	missed, seq := misses.Value(), s.cfg.Store.Disk().Stats().SeqReads
	r := serve(t, s, job)
	if pairs := xmatch.BruteForce(locals, job.Objects, nil); !samePairSet(r.Pairs, pairs) {
		t.Errorf("scan: %d pairs, not the %d brute-force pairs", len(r.Pairs), len(pairs))
	}
	if s.stats.ScanServices != 1 || misses.Value() != missed+1 || s.cfg.Store.Disk().Stats().SeqReads != seq+1 {
		t.Errorf("the scan after the probes: %d scan services, %.0f cache misses and %d sequential reads; want 1 each: the probed bucket is not resident",
			s.stats.ScanServices, misses.Value()-missed, s.cfg.Store.Disk().Stats().SeqReads-seq)
	}
	if got, want := scanBytes.Value(), selectGranules(part, b, job, make(map[int]bool)); got != float64(want) {
		t.Errorf("the scan read %.0f bytes, want all %d its keys select", got, want)
	}
}

// granuleFixture is the shard fixture's catalog at a 640-byte stride — six
// records a granule, 67 granules a bucket, the last of four records —
// written to a segment store under t's temp dir.
func granuleFixture(t *testing.T) (*bucket.Partition, string) {
	t.Helper()
	shardPart, _ := shardFixture(t)
	part, err := bucket.NewPartition(shardPart.Catalog(), shardPart.PerBucket(), 640)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := segment.Write(dir, part, segment.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	return part, dir
}

// fileScheduler is a materializing scheduler over the segment store in
// dir, on the real clock, with a cache of cached buckets.
func fileScheduler(t *testing.T, part *bucket.Partition, dir string, cached int, em *EngineMetrics) *scheduler {
	t.Helper()
	set, err := segment.OpenSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	clk := simclock.Real{}
	d := disk.New(parityModel(), clk)
	s, err := newScheduler(Config{
		Store: bucket.NewStore(part, d, true).WithBackend(segment.NewBackend(set, true)),
		Alpha: 0.25, CacheBuckets: cached, Metrics: em,
	})
	if err != nil {
		set.Close()
		t.Fatal(err)
	}
	return s
}

// stretchJob is a query of objects [lo, hi) of bucket b. One near an end
// of the bucket may reach the next bucket too, where its few units are an
// index probe.
func stretchJob(part *bucket.Partition, id uint64, b, lo, hi int) Job {
	job := Job{ID: id}
	for _, o := range part.Materialize(b)[lo:hi] {
		job.Objects = append(job.Objects, xmatch.NewWorkloadObject(id, o, geom.ArcsecToRad(5)))
	}
	return job
}

// selectGranules adds to have the granules of bucket b that job's keys
// select — granule g when a key meets [first_g, first_g+1], the IDs its
// records may hold, equal IDs straddling a boundary — and returns the
// on-disk bytes of those it added.
func selectGranules(part *bucket.Partition, b int, job Job, have map[int]bool) int64 {
	objs := part.Materialize(b)
	stride := int(part.ObjectBytes())
	per := segment.BlockSize / stride
	span := part.Bucket(b).Span
	var added int64
	for g := 0; g*per < len(objs); g++ {
		first, next := objs[g*per].HTMID, htm.ID(math.MaxUint64)
		if (g+1)*per < len(objs) {
			next = objs[(g+1)*per].HTMID
		}
		for _, wo := range job.Objects {
			k := wo.RangeIn(span)
			if !have[g] && k.Start <= k.End && k.Start <= next && k.End >= first {
				have[g] = true
				added += int64(min(per, len(objs)-g*per) * stride)
			}
		}
	}
	return added
}
