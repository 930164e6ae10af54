package segment

import (
	"cmp"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"

	"liferaft/internal/bucket"
	"liferaft/internal/catalog"
	"liferaft/internal/htm"
)

// granuleRun is a run of adjacent granules [lo, hi] of one bucket — one
// contiguous read.
type granuleRun struct{ lo, hi int }

// fillScratch is the reusable state of one backend's fills: the granule
// runs a fill selects, the raw bytes of the run it reads, the runs of
// granules it reads and their objects, decoded before any is merged into
// the Resident, and the runs it returns as slices of the Resident's
// objects, valid until its next fill.
type fillScratch struct {
	runs  []granuleRun
	raw   []byte
	fresh []freshRun
	dec   []catalog.Object
	objs  [][]catalog.Object
}

// freshRun is a run of granules a fill read, whose objects start at dec[at].
type freshRun struct {
	granuleRun
	at int
}

// appendGranuleRuns appends to dst the granules of a bucket that may
// hold an object with an ID in any of ranges, as sorted, disjoint,
// non-adjacent runs. fences holds the bucket's fence entries.
//
// Equal IDs can straddle a granule boundary, so granule k covers
// [first_k, first_k+1] inclusive on both ends (the last one is open
// above): a range overlaps k when it starts at or below first_k+1 and
// ends at or above first_k. An empty range (Start > End) overlaps none.
func appendGranuleRuns(dst []granuleRun, fences []fence, ranges []htm.Range) []granuleRun {
	n := len(fences)
	if n == 0 {
		return dst
	}
	base := len(dst)
	for _, r := range ranges {
		if r.Start > r.End {
			continue
		}
		// lo: the granule before the first one that starts at or above
		// r.Start — that one may still end in IDs >= r.Start.
		lo := sort.Search(n, func(k int) bool { return fences[k].first >= r.Start })
		if lo > 0 {
			lo--
		}
		// hi: the last granule that starts at or below r.End.
		hi := sort.Search(n, func(k int) bool { return fences[k].first > r.End }) - 1
		if lo <= hi {
			dst = append(dst, granuleRun{lo, hi})
		}
	}
	runs := dst[base:]
	if len(runs) <= 1 {
		return dst
	}
	slices.SortFunc(runs, func(a, b granuleRun) int { return cmp.Compare(a.lo, b.lo) })
	w := 0
	for _, r := range runs[1:] {
		if r.lo <= runs[w].hi+1 {
			runs[w].hi = max(runs[w].hi, r.hi)
		} else {
			w++
			runs[w] = r
		}
	}
	return dst[:base+w+1]
}

// fill is bucket.Backend.Fill over sc's scratch, the one read of a scan
// and of an index probe: each run of selected granules r lacks is one
// pread into sc.raw, and each granule of it is checked against its fence
// CRC before, when decode is set, it is decoded into sc.dec. A mismatch is
// an error, never a shorter result, and returns before r changes: only
// once every granule read has passed are they merged into r.Objs and
// marked resident. Only the selected runs, every granule of them checked,
// are returned.
//
// r.Objs is compact (bucket.Resident): the merge walks down from its new
// end, moving each old stretch up past the fresh runs below it, so no
// object moves twice. The array grows, when it must, to at most the
// bucket's object count, so the cache's weight for it (bucket.Store.Weight)
// never exceeds a whole bucket's granules.
func (s *Set) fill(sc *fillScratch, i int, r *bucket.Resident, ranges []htm.Range, decode bool) ([][]catalog.Object, int64, error) {
	sf, e, err := s.entry(i)
	if err != nil {
		return nil, 0, err
	}
	fences, stride := sf.fences[e.fenceOff:e.fenceOff+e.fences], s.man.ObjectBytes
	gb := granuleBytes(stride)
	per := int(gb / stride)
	sc.runs = appendGranuleRuns(sc.runs[:0], fences, ranges)
	sc.fresh, sc.dec = sc.fresh[:0], sc.dec[:0]
	empty := len(r.Have) == 0
	var read int64
	for _, run := range sc.runs {
		for g := run.lo; g <= run.hi; g++ {
			if !empty && r.Holds(g) {
				continue
			}
			lo := g
			for g < run.hi && (empty || !r.Holds(g+1)) {
				g++
			}
			from, to := int64(lo)*gb, min(int64(g+1)*gb, int64(e.length))
			buf := slices.Grow(sc.raw[:0], int(to-from))[:to-from]
			sc.raw = buf
			if _, err := sf.f.ReadAt(buf, int64(e.offset)+from); err != nil {
				return nil, 0, fmt.Errorf("segment: bucket %d granule pread: %w", i, err)
			}
			read += to - from
			sc.fresh = append(sc.fresh, freshRun{granuleRun{lo, g}, len(sc.dec)})
			for k := lo; k <= g; k++ {
				granule := buf[:min(gb, int64(len(buf)))]
				buf = buf[len(granule):]
				if sum := crc32.Checksum(granule, castagnoli); sum != fences[k].crc {
					return nil, 0, fmt.Errorf("segment: bucket %d granule %d checksum mismatch (corrupt store)", i, k)
				}
				if decode {
					sc.dec = appendRecords(sc.dec, granule, int(stride))
				}
			}
		}
	}
	if empty {
		words := (len(fences) + 63) / 64
		r.Have = slices.Grow(r.Have, words)[:words]
		clear(r.Have)
		r.Objs = r.Objs[:0]
	}
	if decode {
		mergeFresh(sc, r, per, int(int64(e.length)/stride))
	}
	for _, f := range sc.fresh {
		for g := f.lo; g <= f.hi; g++ {
			r.Hold(g)
		}
	}
	if !decode {
		return nil, read, nil
	}
	sc.objs = sc.objs[:0]
	for _, run := range sc.runs {
		at := r.Rank(run.lo) * per
		sc.objs = append(sc.objs, r.Objs[at:min(at+(run.hi-run.lo+1)*per, len(r.Objs))])
	}
	return sc.objs, read, nil
}

// mergeFresh merges the objects a fill decoded into sc.dec into r.Objs, in
// curve order, before the fresh granules are marked resident. Old granules
// keep their relative order: those above the highest fresh run move up by
// every fresh object, those between two fresh runs by the fresh objects
// below them. n is the bucket's object count, the most r.Objs ever holds.
func mergeFresh(sc *fillScratch, r *bucket.Resident, per, n int) {
	old := len(r.Objs)
	size := old + len(sc.dec)
	if size > cap(r.Objs) {
		grown := make([]catalog.Object, old, min(n, max(size, 2*cap(r.Objs))))
		copy(grown, r.Objs)
		r.Objs = grown
	}
	objs := r.Objs[:size]
	w, oldEnd, decEnd := size, old, len(sc.dec)
	for j := len(sc.fresh) - 1; j >= 0; j-- {
		f := sc.fresh[j]
		oldStart := r.Rank(f.lo) * per
		w -= copy(objs[w-(oldEnd-oldStart):w], objs[oldStart:oldEnd])
		w -= copy(objs[w-(decEnd-f.at):w], sc.dec[f.at:decEnd])
		oldEnd, decEnd = oldStart, f.at
	}
	r.Objs = objs
}
