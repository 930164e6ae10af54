package core

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"

	"liferaft/internal/bucket"
	"liferaft/internal/catalog"
	"liferaft/internal/geom"
	"liferaft/internal/shard"
	"liferaft/internal/simclock"
	"liferaft/internal/xmatch"
)

// spreadJob is a query of n objects drawn at even intervals from the whole
// curve of part's own catalog, each searched at radius: it has work in every
// bucket's neighbourhood, so on every shard at any K, and at a few arcsec
// every object's one counterpart is itself.
func spreadJob(part *bucket.Partition, id uint64, n int, radius float64) Job {
	cat := part.Catalog()
	stride := int64(cat.Total()) / int64(n)
	job := Job{ID: id}
	for i := int64(0); i < int64(n); i++ {
		o := cat.Objects(i*stride, i*stride+1)[0]
		job.Objects = append(job.Objects, xmatch.NewWorkloadObject(id, o, radius))
	}
	return job
}

func allObjects(part *bucket.Partition) []catalog.Object {
	var locals []catalog.Object
	for b := 0; b < part.NumBuckets(); b++ {
		locals = append(locals, part.Materialize(b)...)
	}
	return locals
}

// perShardReference replays jobs the way the engine did before the shards
// shared a job's objects and a query's pair array: each shard is handed a
// private slice of exactly its share (the objects with a bucket on it),
// replays that sub-trace alone with its pairs grown from nil, and the
// per-shard results are merged in shard order — counters summed, completion
// the latest, pairs concatenated. What Run and Live return must equal it to
// the bit, pair order included.
func perShardReference(t *testing.T, cfg Config, jobs []Job, offs []time.Duration) map[uint64]Result {
	t.Helper()
	cfg, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	part := cfg.Store.Partition()
	m, err := shard.NewMap(part, cfg.Shards)
	if err != nil {
		t.Fatal(err)
	}
	cfgs, err := forkConfigs(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	defer closeForked(cfgs)
	out := make(map[uint64]Result)
	for i, j := range jobs {
		if len(j.Objects) == 0 { // no work anywhere: complete on arrival
			at := cfg.Clock.Now().Add(offs[i])
			out[j.ID] = Result{QueryID: j.ID, Arrived: at, Completed: at}
		}
	}
	for s, sc := range cfgs {
		var sub []Job
		var subOffs []time.Duration
		for i, j := range jobs {
			var own []xmatch.WorkloadObject
			for _, wo := range j.Objects {
				for _, bi := range part.BucketsForRanges(wo.Ranges()) {
					if m.Owner(bi) == s {
						own = append(own, wo)
						break
					}
				}
			}
			if len(own) > 0 {
				sub = append(sub, Job{ID: j.ID, Objects: own, Pred: j.Pred})
				subOffs = append(subOffs, offs[i])
			}
		}
		res, _, err := runEngine(sc, sub, subOffs)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			prev, seen := out[r.QueryID]
			if !seen {
				out[r.QueryID] = r
				continue
			}
			pairs := append(prev.Pairs, r.Pairs...)
			prev.absorb(r)
			prev.Pairs = pairs
			out[r.QueryID] = prev
		}
	}
	return out
}

func submitWait(t *testing.T, l *Live, job Job) Result {
	t.Helper()
	ch, err := l.SubmitCtx(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := <-ch
	if !ok {
		t.Fatal("channel closed without a result")
	}
	if _, again := <-ch; again {
		t.Fatalf("q%d delivered a second result", job.ID)
	}
	return r
}

// samePairSet reports whether got and want hold the same pairs, in any order.
func samePairSet(got, want []xmatch.Pair) bool {
	g, w := append([]xmatch.Pair(nil), got...), append([]xmatch.Pair(nil), want...)
	xmatch.SortPairs(g)
	xmatch.SortPairs(w)
	return reflect.DeepEqual(g, w)
}

// TestLiveQueryPairsAreOneArray: a materializing query's pairs are allocated
// once, at submission, whatever their number — so submit-to-result costs a
// 100-pair and a 400-pair query the same allocations, and the bytes it
// allocates beyond a non-materializing engine's are about the pairs
// themselves, not several copies of them — and the pairs are the brute-force
// pairs in the order per-shard slices concatenated in shard order had.
func TestLiveQueryPairsAreOneArray(t *testing.T) {
	part, _ := shardFixture(t)
	locals := allObjects(part)
	small := spreadJob(part, 1, 100, geom.ArcsecToRad(5))
	large := spreadJob(part, 2, 400, geom.ArcsecToRad(5))
	forEachK(t, func(t *testing.T, k int) {
		for _, job := range []Job{small, large} {
			l, err := NewLive(shardCfg(part, k, true))
			if err != nil {
				t.Fatal(err)
			}
			res := submitWait(t, l, job)
			l.Close()
			want := xmatch.BruteForce(locals, job.Objects, nil)
			if len(want) < len(job.Objects) {
				t.Fatalf("fixture: %d brute-force pairs for %d objects of the catalog itself", len(want), len(job.Objects))
			}
			if res.Matches != len(res.Pairs) || !samePairSet(res.Pairs, want) {
				t.Errorf("q%d: %d matches, %d pairs; brute force has %d", job.ID, res.Matches, len(res.Pairs), len(want))
			}
			ref := perShardReference(t, shardCfg(part, k, true), []Job{job}, []time.Duration{0})[job.ID]
			if !reflect.DeepEqual(res.Pairs, ref.Pairs) {
				t.Errorf("q%d: pairs are not in shard order, service order within a shard", job.ID)
			}
			if res.Assignments != ref.Assignments || res.ResponseTime() != ref.ResponseTime() {
				t.Errorf("q%d: %d assignments in %v, per-shard replay %d in %v",
					job.ID, res.Assignments, res.ResponseTime(), ref.Assignments, ref.ResponseTime())
			}
		}
		if raceEnabled {
			return // race instrumentation allocates
		}

		// cost is what one warm submit-to-result allocates: count and bytes.
		// Every bucket is scanned into the cache first, so the measured
		// services read nothing and differ only in what they do with pairs.
		warm := spreadJob(part, 7, 1600, geom.ArcsecToRad(5))
		cost := func(materialize bool, job Job) (allocs, bytes float64) {
			cfg := shardCfg(part, k, materialize)
			cfg.CacheBuckets = part.NumBuckets()
			l, err := NewLive(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			submitWait(t, l, warm)
			run := func() {
				if r := submitWait(t, l, job); materialize && len(r.Pairs) < len(job.Objects) {
					t.Fatalf("q%d: %d pairs", job.ID, len(r.Pairs))
				}
			}
			for i := 0; i < 8; i++ {
				run() // queues, joiner buffers and caches reach their sizes
			}
			const runs = 50
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs = testing.AllocsPerRun(runs, run)
			runtime.ReadMemStats(&after)
			return allocs, float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
		}
		smallAllocs, smallBytes := cost(true, small)
		largeAllocs, largeBytes := cost(true, large)
		_, smallPlain := cost(false, small)
		_, largePlain := cost(false, large)
		t.Logf("K=%d: 100 objects %.0f allocs, %.0f B (%.0f B without pairs); 400 objects %.0f allocs, %.0f B (%.0f B without pairs)",
			k, smallAllocs, smallBytes, smallPlain, largeAllocs, largeBytes, largePlain)
		if math.Abs(largeAllocs-smallAllocs) > 3 {
			t.Errorf("a 400-pair query costs %.0f allocations, a 100-pair query %.0f: the count must not follow the pairs",
				largeAllocs, smallAllocs)
		}
		// The byte budget is held on the large query: on 100 objects at K = 4
		// the four spare pairs of each region and the allocator's size-class
		// rounding are a sixth of the pairs by themselves.
		pairBytes := float64(len(large.Objects)) * float64(reflect.TypeOf(xmatch.Pair{}).Size())
		if extra := largeBytes - largePlain; extra > 1.3*pairBytes {
			t.Errorf("materializing allocates %.0f B more than not, over 1.3 x the %.0f B the pairs take", extra, pairBytes)
		}
	})
}

// TestPairRegionOverflowSparesNeighbours: a shard that finds more pairs than
// its region of the query's pair array holds grows out of it into an array
// of its own and never writes into the next shard's region. First on a fanIn
// by hand, then end to end: at a search radius of two degrees every object
// has several counterparts, so regions sized for about one each overflow
// while sibling workers are appending to theirs.
func TestPairRegionOverflowSparesNeighbours(t *testing.T) {
	pair := func(shard, i int) xmatch.Pair {
		return xmatch.Pair{QueryID: 9, Local: catalog.Object{ID: uint64(shard)}, Remote: catalog.Object{ID: uint64(i)}}
	}
	fill := func(f *fanIn, lens []int) (want []xmatch.Pair) {
		for s, n := range lens {
			if f.parts[s].share == 0 {
				continue
			}
			j := f.job(Job{ID: 9}, s)
			got := j.region
			for i := 0; i < n; i++ {
				got = append(got, pair(s, i))
				want = append(want, pair(s, i))
			}
			f.parts[s].res = Result{QueryID: 9, Matches: n, Assignments: 1, Pairs: got}
		}
		return want
	}
	counts := []int{3, 0, 2, 4} // shard 1 untouched
	// Every shard inside its region: the result is the array itself.
	f, width := newFanIn(counts, true)
	if width != 3 {
		t.Fatalf("width %d, want 3", width)
	}
	want := fill(&f, []int{regionCap(3), 0, 1, 2})
	res := f.result()
	if !reflect.DeepEqual(res.Pairs, want) || res.Matches != len(want) || res.Assignments != 3 {
		t.Errorf("in-place merge: %d pairs (%d matches, %d assignments), want %d in shard order", len(res.Pairs), res.Matches, res.Assignments, len(want))
	}
	if &res.Pairs[0] != &f.pairs[:1][0] {
		t.Error("in-place merge copied the pairs out of the query's array")
	}
	// Shard 0 outgrows its region by one pair, shard 2 by many: shards 2
	// and 3 must read back what they wrote.
	f, _ = newFanIn(counts, true)
	want = fill(&f, []int{regionCap(3) + 1, 0, 5 * regionCap(2), regionCap(4)})
	if res = f.result(); !reflect.DeepEqual(res.Pairs, want) {
		t.Errorf("overflow merge: %d pairs, want %d in shard order with every shard's intact", len(res.Pairs), len(want))
	}
	// No pairs anywhere: nil, not an empty slice of the array.
	f, _ = newFanIn(counts, true)
	fill(&f, []int{0, 0, 0, 0})
	if res = f.result(); res.Pairs != nil {
		t.Errorf("a query without pairs has Pairs %v, want nil", res.Pairs)
	}

	part, _ := shardFixture(t)
	locals := allObjects(part)
	job := spreadJob(part, 3, 60, geom.Radians(2))
	want = xmatch.BruteForce(locals, job.Objects, nil)
	forEachK(t, func(t *testing.T, k int) {
		m, err := shard.NewMap(part, k)
		if err != nil {
			t.Fatal(err)
		}
		room := 0
		for _, n := range m.Fanout(job.Objects) {
			if n > 0 {
				room += regionCap(n)
			}
		}
		if len(want) <= room {
			t.Fatalf("fixture: %d pairs fit the regions' %d; no shard would overflow", len(want), room)
		}
		l, err := NewLive(shardCfg(part, k, true))
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		for round := 0; round < 3; round++ {
			res := submitWait(t, l, job)
			if res.Matches != len(want) || !samePairSet(res.Pairs, want) {
				t.Fatalf("round %d: %d matches, %d pairs; brute force has %d", round, res.Matches, len(res.Pairs), len(want))
			}
		}
		ref := perShardReference(t, shardCfg(part, k, true), []Job{job}, []time.Duration{0})[job.ID]
		got, _, err := Run(shardCfg(part, k, true), []Job{job}, []time.Duration{0})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[0].Pairs, ref.Pairs) {
			t.Error("overflowed pairs are not in shard order, service order within a shard")
		}
	})
}

// TestNoMatchAndCancelledPairs: a query that matches nothing resolves with
// Pairs nil, not an empty stretch of its pair array; a cancelled one carries
// the pairs found before the cancel, in order, and both deliver one terminal
// Result.
func TestNoMatchAndCancelledPairs(t *testing.T) {
	part, _ := shardFixture(t)
	locals := allObjects(part)
	forEachK(t, func(t *testing.T, k int) {
		l, err := NewLive(shardCfg(part, k, true))
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		none := spreadJob(part, 4, 50, geom.ArcsecToRad(5))
		none.Pred = xmatch.MagnitudeWindow(100, 101) // no object is that faint
		if res := submitWait(t, l, none); res.Pairs != nil || res.Matches != 0 || res.Cancelled || res.Assignments < 50 {
			t.Errorf("no-match query: %+v, want nil Pairs and every object assigned", res)
		}

		// A cancel halfway through, without a clock to race: the shards'
		// schedulers driven by hand over the query's fan-in, each stopped
		// after its first service.
		job := spreadJob(part, 5, 200, geom.ArcsecToRad(5))
		want := xmatch.BruteForce(locals, job.Objects, nil)
		cfg, err := shardCfg(part, k, true).withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		m, err := shard.NewMap(part, k)
		if err != nil {
			t.Fatal(err)
		}
		cfgs, err := forkConfigs(cfg, m)
		if err != nil {
			t.Fatal(err)
		}
		defer closeForked(cfgs)
		f, width := newFanIn(m.Fanout(job.Objects), true)
		if width != k {
			t.Fatalf("fixture: the query touches %d of %d shards", width, k)
		}
		var prefix []xmatch.Pair
		for s, sc := range cfgs {
			sched, err := newScheduler(sc)
			if err != nil {
				t.Fatal(err)
			}
			now := sc.Clock.Now()
			if r := sched.admit(f.job(job, s), now); r != nil {
				t.Fatalf("shard %d completed the query at admission", s)
			}
			if done, _ := sched.step(now); len(done) != 0 {
				t.Fatalf("shard %d finished the query in one service", s)
			}
			prefix = append(prefix, sched.queries[job.ID].result.Pairs...)
			r := sched.cancel(job.ID, sc.Clock.Now())
			if r == nil || !r.Cancelled {
				t.Fatalf("shard %d: cancel returned %+v", s, r)
			}
			f.parts[s].res = *r
		}
		res := f.result()
		if !res.Cancelled || len(prefix) == 0 || !reflect.DeepEqual(res.Pairs, prefix) || res.Matches != len(prefix) {
			t.Errorf("cancelled query: cancelled=%v with %d pairs (%d matches), want the %d found before the cancel",
				res.Cancelled, len(res.Pairs), res.Matches, len(prefix))
		}
		if len(prefix) >= len(want) {
			t.Errorf("fixture: the cancel came after all %d pairs", len(want))
		}
		inWant := make(map[[2]uint64]bool, len(want))
		for _, p := range want {
			inWant[[2]uint64{p.Local.ID, p.Remote.ID}] = true
		}
		for _, p := range res.Pairs {
			if !inWant[[2]uint64{p.Local.ID, p.Remote.ID}] {
				t.Fatalf("cancelled query carries pair %v, which brute force does not have", p)
			}
		}
	})

	// And through a running engine on a real clock, where the cancel lands
	// wherever it lands: one terminal Result, marked cancelled, whose pairs
	// are a subset of the answer.
	job := spreadJob(part, 6, 400, geom.ArcsecToRad(5))
	cfg := NewOn(part, 0.25, true, simclock.Real{})
	cfg.Shards = 2
	l, err := NewLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ch, err := l.SubmitCtx(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	res, ok := <-ch
	if _, again := <-ch; !ok || again || !res.Cancelled || res.Matches != len(res.Pairs) || len(res.Pairs) >= len(job.Objects) {
		t.Errorf("cancelled live query: ok=%v second=%v %d pairs of %d objects, cancelled=%v",
			ok, again, len(res.Pairs), len(job.Objects), res.Cancelled)
	}
}

// TestShardedAgeWeightUsesShareCount: with the QoS extension on (gamma = 2)
// a query's requests age by a weight computed from how many objects it has
// on the shard, not from the length of the job's shared object list — a
// schedule that used the latter would depreciate every query as if all of it
// sat on every shard. Run at K = 2 and 4 must reproduce, instant for
// instant, the replay in which each shard sees only its share: on the
// fixture trace, and on three queries built so that the two weights order
// them differently — behind a service that keeps shard 0 busy, a query with
// one object there (and two hundred on shard 1) waits beside a query with
// thirty there; aged by its share the first goes first, aged by its length
// it goes last.
func TestShardedAgeWeightUsesShareCount(t *testing.T) {
	part, jobs := shardFixture(t)
	inBucket := func(id uint64, b, n int) []xmatch.WorkloadObject {
		var wos []xmatch.WorkloadObject
		for _, o := range part.Materialize(b) {
			wo := xmatch.NewWorkloadObject(id, o, geom.ArcsecToRad(5))
			if len(wos) < n && len(part.BucketsForRanges(wo.Ranges())) == 1 {
				wos = append(wos, wo)
			}
		}
		if len(wos) != n {
			t.Fatalf("fixture: bucket %d has %d objects of its own, want %d", b, len(wos), n)
		}
		return wos
	}
	// Buckets 0, 4 and 8 are shard 0's and bucket 1 is shard 1's at K = 2
	// and K = 4 alike.
	trio := []Job{
		{ID: 1, Objects: inBucket(1, 0, 40)},
		{ID: 2, Objects: inBucket(2, 4, 30)},
		{ID: 3, Objects: append(inBucket(3, 8, 1), inBucket(3, 1, 200)...)},
	}
	trioOffs := []time.Duration{0, time.Millisecond, time.Millisecond}
	for _, k := range []int{2, 4} {
		for _, c := range []struct {
			name  string
			alpha float64
			jobs  []Job
			offs  []time.Duration
		}{
			{"fixture trace", 0.25, jobs, satOffsets(len(jobs))},
			{"one object against thirty", 1, trio, trioOffs},
		} {
			mk := func() Config {
				cfg := shardCfg(part, k, false)
				cfg.Alpha, cfg.AgeDepreciationGamma = c.alpha, 2
				return cfg
			}
			got, _, err := Run(mk(), c.jobs, c.offs)
			if err != nil {
				t.Fatal(err)
			}
			want := perShardReference(t, mk(), c.jobs, c.offs)
			if len(got) != len(want) {
				t.Fatalf("K=%d, %s: %d results, per-shard replay %d", k, c.name, len(got), len(want))
			}
			for _, r := range got {
				if w := want[r.QueryID]; !reflect.DeepEqual(r, w) {
					t.Errorf("K=%d, %s: q%d = %+v, per-shard replay with share-count weights %+v", k, c.name, r.QueryID, r, w)
				}
			}
		}
	}
}

// BenchmarkSubmitMaterializing is one materializing query's way through a
// sharded Live engine on a clock that charges the model without sleeping it:
// what submit-to-result allocates (B/op, allocs/op) for a 300-object job,
// and what admission costs now that every shard walks the whole job.
func BenchmarkSubmitMaterializing(b *testing.B) {
	part, _ := shardFixture(b)
	job := spreadJob(part, 1, 300, geom.ArcsecToRad(5))
	for _, k := range []int{2, 4} {
		b.Run("K="+strconv.Itoa(k), func(b *testing.B) {
			cfg := NewOn(part, 0.25, true, simclock.NewVirtualTick(time.Millisecond))
			cfg.Shards, cfg.CacheBuckets = k, part.NumBuckets()
			l, err := NewLive(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			run := func(job Job) {
				ch, err := l.SubmitCtx(context.Background(), job)
				if err != nil {
					b.Fatal(err)
				}
				if r := <-ch; len(r.Pairs) < len(job.Objects) {
					b.Fatalf("%d pairs for %d objects", len(r.Pairs), len(job.Objects))
				}
			}
			// Scan every bucket into the cache, so the measured services
			// read nothing and B/op is the query's own.
			run(spreadJob(part, 2, 1600, geom.ArcsecToRad(5)))
			for i := 0; i < 8; i++ {
				run(job)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(job)
			}
		})
	}
}
