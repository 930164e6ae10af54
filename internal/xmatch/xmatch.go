// Package xmatch implements the probabilistic spatial join at the heart of
// SkyQuery's cross-match (paper §3): given a bucket of local catalog
// objects and a workload queue of objects shipped from remote archives,
// find all pairs within each remote object's positional-error radius and
// apply query-specific predicates.
//
// The hybrid plan of §3.4 (ChooseStrategy) picks a scan or an index probe
// per bucket service; they differ in what they read, not in how they join:
//
//   - Merge (Joiner.Merge, MergeJoin): both inputs sorted by level-14 HTM
//     ID are swept and merged in one pass, the plane-sweep of Partition
//     Based Spatial-Merge Join adapted to the HTM curve. The engine's only
//     join, on scan and index services alike.
//   - IndexJoin: each workload object binary-searches the bucket's sorted
//     objects over its bounding ID range, standing in for probing the
//     database's spatial index: the index-only baseline (RunIndexOnly).
//   - BruteForce: the O(n·m) reference used by tests to verify both.
//
// All three return identical match sets.
package xmatch

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"liferaft/internal/catalog"
	"liferaft/internal/geom"
	"liferaft/internal/htm"
)

// WorkloadObject is one cross-match request: a remote archive object
// together with its bounding box of potential join regions (paper §3.1:
// "Included with each object is its mean cartesian coordinate and a range
// of HTM ID values"). It is the element of workload queues.
type WorkloadObject struct {
	// QueryID identifies the parent query.
	QueryID uint64
	// Obj is the remote object to be matched.
	Obj catalog.Object
	// Radius is the match radius in radians (instrument error circle).
	Radius float64
	// MinID and MaxID bound the level-14 HTM IDs of every possible
	// counterpart: the extremes of the cover of the error cap.
	MinID, MaxID htm.ID
}

// NewWorkloadObject builds a workload object for a remote object and match
// radius (radians), computing its bounding HTM ID range from the cover of
// the error cap.
func NewWorkloadObject(queryID uint64, obj catalog.Object, radius float64) WorkloadObject {
	lo, hi, ok := htm.CapBounds(geom.NewCap(obj.Pos, radius), htm.PaperLevel)
	if !ok {
		// A degenerate (zero-radius) cap still covers its own trixel.
		lo, hi = obj.HTMID, obj.HTMID
	}
	return WorkloadObject{QueryID: queryID, Obj: obj, Radius: radius, MinID: lo, MaxID: hi}
}

// Range returns the bounding range [MinID, MaxID] of the cover of the
// object's error cap.
func (w WorkloadObject) Range() htm.Range { return htm.Range{Start: w.MinID, End: w.MaxID} }

// Cap returns the object's error cap: its position and match radius.
func (w WorkloadObject) Cap() geom.Cap { return geom.NewCap(w.Obj.Pos, w.Radius) }

// RangeIn returns the key of the object's index probe into a bucket whose
// IDs lie in span: the bounding range when that lies inside span, and
// otherwise the ends of what the error cap's cover holds inside span. The
// object is queued only on buckets its cover reaches
// (bucket.Partition.AppendBucketsReached), but one it reaches at the end
// of a long bounding range would otherwise be probed over every ID from
// there to the bucket's edge. Every counterpart of the object in the
// bucket has its ID inside the key, so the join loses nothing. The key is
// empty (Start > End) when the cover has no trixel in span.
func (w WorkloadObject) RangeIn(span htm.Range) htm.Range {
	if w.MinID >= span.Start && w.MaxID <= span.End {
		return w.Range()
	}
	lo, hi, ok := htm.CapBoundsIn(w.Cap(), htm.PaperLevel, span)
	if !ok {
		return htm.Range{Start: 1, End: 0}
	}
	return htm.Range{Start: lo, End: hi}
}

// Ranges returns the bounding range as a one-element slice. Assignment
// goes through bucket.Partition.AppendBucketsReached, not this; it stays
// for the benchmark module's kernels, which call it.
func (w WorkloadObject) Ranges() []htm.Range { return []htm.Range{w.Range()} }

// Pair is one successful cross-match: a (local, remote) object pair within
// the remote object's error radius.
type Pair struct {
	QueryID uint64
	Local   catalog.Object
	Remote  catalog.Object
	// SepRad is the angular separation in radians.
	SepRad float64
}

// String implements fmt.Stringer.
func (p Pair) String() string {
	return fmt.Sprintf("q%d: local %d x remote %d (%.3f arcsec)",
		p.QueryID, p.Local.ID, p.Remote.ID, geom.RadToArcsec(p.SepRad))
}

// Predicate is a query-specific filter applied to pairs that succeed in
// the spatial join (paper §3.1: "query specific predicates are applied on
// the output tuples that succeed in the spatial join"). A nil Predicate
// accepts everything.
type Predicate func(local, remote catalog.Object) bool

// MagnitudeWindow returns a predicate accepting pairs whose local
// magnitude lies in [lo, hi), a typical cross-match photometric cut.
func MagnitudeWindow(lo, hi float64) Predicate {
	return func(local, _ catalog.Object) bool { return local.Mag >= lo && local.Mag < hi }
}

// verify appends the pair if the exact spherical distance and predicate
// accept it.
func verify(out []Pair, local catalog.Object, w WorkloadObject, pred Predicate) []Pair {
	sep := local.Pos.Angle(w.Obj.Pos)
	if sep > w.Radius+geom.Epsilon {
		return out
	}
	if pred != nil && !pred(local, w.Obj) {
		return out
	}
	return append(out, Pair{QueryID: w.QueryID, Local: local, Remote: w.Obj, SepRad: sep})
}

// Joiner runs the engine's join, Merge, in buffers it keeps between calls,
// so an engine that joins on every bucket service allocates only while the
// buffers are still growing. The zero value is ready to use; a Joiner is not
// safe for concurrent use (each shard's scheduler owns one). The slice a
// join returns aliases the Joiner and is valid until its next join.
type Joiner struct {
	queue  []WorkloadObject // the caller's queue, sorted by MinID
	active []WorkloadObject // sweep set of Merge
	pairs  []Pair
}

func byMinID(a, b WorkloadObject) int          { return cmp.Compare(a.MinID, b.MinID) }
func cmpHTMID(o catalog.Object, id htm.ID) int { return cmp.Compare(o.HTMID, id) }

// pastHTMID orders a bucket object against "just after id": a binary search
// with it finds the first object whose HTMID exceeds id, with no id+1 to
// overflow.
func pastHTMID(o catalog.Object, id htm.ID) int {
	if o.HTMID <= id {
		return -1
	}
	return 1
}

// SortQueue sorts a workload queue by MinID, the order Merge sweeps it in.
// A run of consecutive elements of a sorted queue reaches one stretch of
// the bucket and is itself a queue Merge takes as it is, so a caller that
// cuts one service's queue into parts sorts it once, here, and joins each
// run against its own window.
func SortQueue(queue []WorkloadObject) { slices.SortFunc(queue, byMinID) }

// Merge cross-matches a bucket against a workload queue by a single
// simultaneous sweep of both inputs in HTM ID order. The bucket comes as
// runs, disjoint and in HTM-curve order (a store read's, or one whole
// bucket); queue is copied and sorted by MinID (the paper sorts the
// workload queue before the sweep). preds maps QueryID to that query's
// predicate; nil preds, or a missing entry, accepts all pairs.
//
// Only the bucket objects the queue can reach are swept: those with IDs in
// [least MinID, greatest MaxID], found by binary search in each run that
// overlaps it (a run that does not is skipped in O(1)), so a queue that
// covers a tenth of the bucket's ID span costs a tenth of the sweep.
// Objects outside that window admit nothing and pair with nothing.
//
// Complexity is O(r log n + w + m + candidates) for r runs and a window of
// w objects: the sweep maintains the set of workload intervals overlapping
// the current bucket object's ID, which stays tiny because error radii are
// arcseconds.
func (j *Joiner) Merge(runs [][]catalog.Object, queue []WorkloadObject, preds map[uint64]Predicate) []Pair {
	out := j.pairs[:0]
	if len(queue) == 0 {
		return out
	}
	q := append(j.queue[:0], queue...)
	SortQueue(q)
	least, reach := q[0].MinID, q[0].MaxID
	for _, wo := range q[1:] {
		reach = max(reach, wo.MaxID)
	}
	// active holds workload objects whose interval may still overlap
	// bucket objects at or beyond the sweep position, as a min-heap
	// substitute: since radii are uniform-ish and intervals short, a
	// slice with compaction is efficient. It carries on from run to run.
	active := j.active[:0]
	next := 0
	for _, run := range runs {
		if len(run) == 0 || run[len(run)-1].HTMID < least || run[0].HTMID > reach {
			continue
		}
		first, _ := slices.BinarySearchFunc(run, least, cmpHTMID)
		past, _ := slices.BinarySearchFunc(run, reach, pastHTMID)
		for _, local := range run[first:max(first, past)] {
			id := local.HTMID
			// Admit queue intervals starting at or before id.
			for next < len(q) && q[next].MinID <= id {
				active = append(active, q[next])
				next++
			}
			// Drop expired intervals and test the rest.
			w := 0
			for _, wo := range active {
				if wo.MaxID < id {
					continue // expired: compact away
				}
				active[w] = wo
				w++
				out = verify(out, local, wo, predFor(preds, wo.QueryID))
			}
			active = active[:w]
		}
	}
	j.queue, j.active, j.pairs = q, active, out
	return out
}

// MergeJoin is Joiner.Merge over a whole bucket for callers without a
// Joiner to reuse: the pairs come back in a slice of their own (nil when
// there are none).
func MergeJoin(bucket []catalog.Object, queue []WorkloadObject, preds map[uint64]Predicate) []Pair {
	var j Joiner
	return j.Merge([][]catalog.Object{bucket}, queue, preds)
}

// IndexJoin cross-matches by probing: for each workload object, the
// bucket's sorted objects are binary-searched over the object's bounding ID
// range and candidates are verified. It models an indexed join against the
// database's HTM index for the RunIndexOnly baseline; the engine's index
// services merge instead.
func IndexJoin(bucket []catalog.Object, queue []WorkloadObject, preds map[uint64]Predicate) []Pair {
	var out []Pair
	for _, wo := range queue {
		lo, _ := slices.BinarySearchFunc(bucket, wo.MinID, cmpHTMID)
		pred := predFor(preds, wo.QueryID)
		for i := lo; i < len(bucket) && bucket[i].HTMID <= wo.MaxID; i++ {
			out = verify(out, bucket[i], wo, pred)
		}
	}
	return out
}

// BruteForce is the O(n*m) reference join used to validate the other
// strategies.
func BruteForce(bucket []catalog.Object, queue []WorkloadObject, preds map[uint64]Predicate) []Pair {
	var out []Pair
	for _, local := range bucket {
		for _, wo := range queue {
			out = verify(out, local, wo, predFor(preds, wo.QueryID))
		}
	}
	return out
}

func predFor(preds map[uint64]Predicate, q uint64) Predicate {
	if preds == nil {
		return nil
	}
	return preds[q]
}

// Strategy selects the hybrid join plan of paper §3.4: an indexed join
// when the workload queue is smaller than threshold × bucket size, a
// sequential scan otherwise. The paper's measured break-even threshold is
// 3 % (Figure 2).
type Strategy int

// Join strategies.
const (
	// Scan reads the bucket sequentially and merge-joins; the model
	// charges the whole bucket, and a segment store reads only the
	// granules the queue needs that the RAM cache lacks.
	Scan Strategy = iota
	// Index probes the spatial index per workload object.
	Index
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	if s == Index {
		return "index"
	}
	return "scan"
}

// DefaultThreshold is the paper's measured break-even queue-to-bucket
// ratio.
const DefaultThreshold = 0.03

// ChooseStrategy implements the hybrid decision. bucketInMemory short-
// circuits to Scan (merge over cached objects costs no I/O at all, so the
// index can never win).
func ChooseStrategy(queueLen, bucketLen int, threshold float64, bucketInMemory bool) Strategy {
	if bucketInMemory {
		return Scan
	}
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	if bucketLen > 0 && float64(queueLen) < threshold*float64(bucketLen) {
		return Index
	}
	return Scan
}

// SortPairs orders pairs deterministically (query, local, remote), making
// result comparisons in tests and federations stable.
func SortPairs(ps []Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].QueryID != ps[j].QueryID {
			return ps[i].QueryID < ps[j].QueryID
		}
		if ps[i].Local.ID != ps[j].Local.ID {
			return ps[i].Local.ID < ps[j].Local.ID
		}
		return ps[i].Remote.ID < ps[j].Remote.ID
	})
}
