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
// runs a fill selects, the raw bytes of the run it reads, and the runs it
// returns as slices of the Resident's objects, valid until its next fill.
type fillScratch struct {
	runs []granuleRun
	raw  []byte
	objs [][]catalog.Object
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
// CRC before, when decode is set, it is decoded straight into its slots of
// r.Objs and marked resident. A mismatch is an error, never a shorter
// result. Only the selected runs, every granule of them checked, are
// returned, so no slot a recycled array still holds for another bucket is
// ever joined.
func (s *Set) fill(sc *fillScratch, i int, r *bucket.Resident, ranges []htm.Range, decode bool) ([][]catalog.Object, int64, error) {
	sf, e, err := s.entry(i)
	if err != nil {
		return nil, 0, err
	}
	fences, stride := sf.fences[e.fenceOff:e.fenceOff+e.fences], s.man.ObjectBytes
	gb := granuleBytes(stride)
	per := int(gb / stride)
	if len(r.Have) == 0 {
		words := (len(fences) + 63) / 64
		r.Have = slices.Grow(r.Have, words)[:words]
		clear(r.Have)
		if decode {
			n := int(int64(e.length) / stride)
			r.Objs = slices.Grow(r.Objs[:0], n)[:n]
		}
	}
	sc.runs = appendGranuleRuns(sc.runs[:0], fences, ranges)
	var read int64
	for _, run := range sc.runs {
		for g := run.lo; g <= run.hi; g++ {
			if r.Holds(g) {
				continue
			}
			lo := g
			for g < run.hi && !r.Holds(g+1) {
				g++
			}
			from, to := int64(lo)*gb, min(int64(g+1)*gb, int64(e.length))
			buf := slices.Grow(sc.raw[:0], int(to-from))[:to-from]
			sc.raw = buf
			if _, err := sf.f.ReadAt(buf, int64(e.offset)+from); err != nil {
				return nil, 0, fmt.Errorf("segment: bucket %d granule pread: %w", i, err)
			}
			read += to - from
			for k := lo; k <= g; k++ {
				granule := buf[:min(gb, int64(len(buf)))]
				buf = buf[len(granule):]
				if sum := crc32.Checksum(granule, castagnoli); sum != fences[k].crc {
					return nil, 0, fmt.Errorf("segment: bucket %d granule %d checksum mismatch (corrupt store)", i, k)
				}
				if decode {
					appendRecords(r.Objs[k*per:k*per], granule, int(stride))
				}
				r.Hold(k)
			}
		}
	}
	if !decode {
		return nil, read, nil
	}
	sc.objs = sc.objs[:0]
	for _, run := range sc.runs {
		sc.objs = append(sc.objs, r.Objs[run.lo*per:min((run.hi+1)*per, len(r.Objs))])
	}
	return sc.objs, read, nil
}
