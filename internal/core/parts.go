package core

import (
	"sync"
	"sync/atomic"
	"time"

	"liferaft/internal/catalog"
	"liferaft/internal/disk"
	"liferaft/internal/simclock"
	"liferaft/internal/xmatch"
)

// servicePartUnits is how many work units one part of a split scan-kind
// service holds — on a segment store every service is one, on the
// simulated store every one but an index probe. A service is split only
// when its queue fills two parts; below that the fork-join costs more
// than the overlap buys (and every cold_sweep service, at ≈10 units, is
// far below it). A constant, not a knob: hot_batch at 2 shards (parent:
// 41.3 qps and 1.7–2.2 ms of CPU per query; two-arm ceiling ≈52 qps)
// read, over 20 s windows,
//
//	units/part          8      16     32     64     128
//	qps, seed 3         50.1   50.3   49.9   48.7   46.8
//	qps, seeds 4, 5            49.8   49.4   48.4
//	CPU ms per query                  2.1    1.9
//
// Parts as long as half a hot service leave the last one unbalanced, and
// short ones buy their last qps with a timer, a wake-up and a rendezvous
// each: 32 units read 0.7 qps above 64 over ten seeds and 0.2 ms of CPU per
// query above it over four, and CPU is what is left to pay once the
// modeled sleep goes (ROADMAP 2(i)). 64 units is ≈8 ms of Tm — also the
// longest a helper's own shard waits for it.
const servicePartUnits = 64

// forkJoin is the join-and-charge step of one bucket service, cut into
// parts that any shard worker may run. Every scheduler owns one record and
// reuses it for each of its services; Live hands every other worker a
// pointer to it. The owner fills the record in, publishes it by storing
// claims, runs parts itself, and waits for all of them; an idle sibling
// that claims a part joins it with the part's Joiner and charges its Tm to
// its own disk, on its own clock.
//
// Everything below claims and wg is written by the owner between services
// and read by a helper only after a successful claim. A claim succeeds
// only while the service it belongs to still has an unclaimed part, and
// that service cannot end before the part does, so a helper that comes
// late — after the service ended, or while the owner is filling in the
// next one — finds the count exhausted and touches nothing.
type forkJoin struct {
	// claims holds the service's part count in its high half and the
	// number of parts claimed so far in its low half.
	claims atomic.Uint64
	wg     sync.WaitGroup

	runs  [][]catalog.Object      // what the join reads; immutable for the service
	wos   []xmatch.WorkloadObject // the queue; sorted by MinID when split
	preds map[uint64]xmatch.Predicate
	// materialize is the Store's: without it a part is its charge alone.
	materialize bool
	// size is the units per part: part i is wos[i*size:][:size], the last
	// one shorter.
	size  int
	parts []servicePart
}

// servicePart is one part's buffers and outcome. Part i of every service
// reuses slot i, so a steady state allocates nothing.
type servicePart struct {
	join  xmatch.Joiner
	pairs []xmatch.Pair // aliases join; valid until slot i's next part
	end   time.Time     // on the clock of whoever ran it
}

// begin publishes a service of n parts over fj.wos, part 0 already claimed
// for the owner: a one-part service is never anyone else's.
func (fj *forkJoin) begin(n int) {
	fj.size = len(fj.wos)
	if n > 1 {
		fj.size = servicePartUnits
	}
	for len(fj.parts) < n {
		fj.parts = append(fj.parts, servicePart{})
	}
	fj.wg.Add(n)
	fj.claims.Store(uint64(n)<<32 | 1)
}

// claim takes the next unclaimed part of the service in progress, if any.
func (fj *forkJoin) claim() (int, bool) {
	for {
		c := fj.claims.Load()
		next := uint32(c)
		if uint64(next) >= c>>32 {
			return 0, false
		}
		if fj.claims.CompareAndSwap(c, c+1) {
			return int(next), true
		}
	}
}

// run joins claimed part i and charges Tm for each of its units, less the
// time the join itself took, to d: the arm of whoever runs it.
func (fj *forkJoin) run(i int, clk simclock.Clock, d *disk.Disk) {
	p := &fj.parts[i]
	lo := i * fj.size
	wos := fj.wos[lo:min(lo+fj.size, len(fj.wos))]
	// The charge models this very work, so the time it took on the clock
	// counts toward it: the part lasts Tm × units, not Tm × units on top of
	// its own join. A virtual clock does not move while the engine
	// computes, so there the whole charge is slept as ever.
	var joined time.Duration
	if fj.materialize {
		t0 := clk.Now()
		p.pairs = p.join.Merge(fj.runs, wos, fj.preds)
		joined = clk.Now().Sub(t0)
	}
	d.MatchObjectsAfter(len(wos), joined)
	p.end = clk.Now()
	fj.wg.Done()
}

// finish waits for every part of the service begin(n) published and
// returns the latest part's end.
func (fj *forkJoin) finish(n int) time.Time {
	fj.wg.Wait()
	end := fj.parts[0].end
	for i := 1; i < n; i++ {
		if e := fj.parts[i].end; e.After(end) {
			end = e
		}
	}
	return end
}
