package core

import "liferaft/internal/xmatch"

// fanIn is one query's way through a K-shard engine's front end (Run and
// Live.SubmitCtx share it): what each shard is handed at submission and
// what comes back from it.
//
// Nothing is copied on the way in. Every touched shard is handed the
// caller's Job.Objects, read-only, with its share count; its scheduler
// queues only the buckets it owns.
//
// On the way out a materializing query's pairs land in one array, allocated
// here from the share counts and carved into one capped region per touched
// shard. A region is a three-index slice: the scheduler's append fills it in
// place, and a shard that finds more pairs than its region holds falls back
// to a private array through append's ordinary copy-on-grow — it cannot
// reach a neighbour's region, so shard workers append side by side without a
// lock. result closes the gaps between the regions in place.
type fanIn struct {
	// pairs is the query's pair array, empty; nil when the engine does not
	// materialize or the query touches no shard.
	pairs []xmatch.Pair
	// parts has one entry per shard of the engine.
	parts []part
}

// part is one shard's slot in a fanIn.
type part struct {
	// share is how many of the job's objects have work on this shard
	// (shard.Map.Fanout's count); zero for a shard the query does not touch.
	share int
	// region is this shard's stretch of fanIn.pairs: empty, with room for
	// regionCap(share) pairs and not one more.
	region []xmatch.Pair
	// res is the shard's result, valid once the shard has delivered it.
	res Result
}

// regionCap is the room a shard gets for the pairs of n workload objects.
// Archives are cross-matched because they hold the same sky, so an object
// has about one counterpart; the eighth and the four on top absorb the
// objects that have two without the region's shard having to grow out of it.
func regionCap(n int) int { return n + n/8 + 4 }

// newFanIn lays a query out over the shards from its per-shard share counts
// and reports how many shards it touches.
func newFanIn(counts []int, materialize bool) (f fanIn, width int) {
	f.parts = make([]part, len(counts))
	room := 0
	for s, n := range counts {
		if n > 0 {
			f.parts[s].share = n
			room += regionCap(n)
			width++
		}
	}
	if !materialize || width == 0 {
		return f, width
	}
	f.pairs = make([]xmatch.Pair, 0, room)
	off := 0
	for s := range f.parts {
		if n := f.parts[s].share; n > 0 {
			end := off + regionCap(n)
			f.parts[s].region = f.pairs[off:off:end]
			off = end
		}
	}
	return f, width
}

// job returns the copy of j that touched shard s is handed.
func (f *fanIn) job(j Job, s int) Job {
	j.share, j.region = f.parts[s].share, f.parts[s].region
	return j
}

// result merges what the touched shards delivered, in shard order: counters
// summed, arrival the earliest, completion the latest, cancelled if any shard
// cancelled, and the pairs in shard order (service order within a shard) in
// one array. While every shard stayed inside its region that array is
// f.pairs and the merge only closes the gaps between regions — each run
// moves left or stays, so append's memmove never overwrites a run it has yet
// to move. A shard that outgrew its region breaks that order, so its query
// is concatenated into a fresh array of the exact size instead. A query with
// no pairs keeps Pairs nil.
func (f *fanIn) result() Result {
	total, inPlace := 0, true
	for i := range f.parts {
		p := &f.parts[i]
		total += len(p.res.Pairs)
		if len(p.res.Pairs) > cap(p.region) {
			inPlace = false
		}
	}
	pairs := f.pairs
	if !inPlace {
		pairs = make([]xmatch.Pair, 0, total)
	}
	var res Result
	first := true
	for i := range f.parts {
		p := &f.parts[i]
		if p.share == 0 {
			continue
		}
		pairs = append(pairs, p.res.Pairs...)
		if first {
			res, first = p.res, false
		} else {
			res.absorb(p.res)
		}
	}
	res.Pairs = nil
	if total > 0 {
		res.Pairs = pairs
	}
	return res
}
