package segment

import (
	"cmp"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"

	"liferaft/internal/catalog"
	"liferaft/internal/htm"
)

// granuleRun is a run of adjacent granules [lo, hi] of one bucket — one
// contiguous read.
type granuleRun struct{ lo, hi int }

// probeScratch is the reusable state of one backend's probes. The
// objects a probe returns live in objs, so they are valid until that
// backend's next probe.
type probeScratch struct {
	runs []granuleRun
	raw  []byte
	objs []catalog.Object
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

// probeRanges returns, in HTM-curve order, the objects of every granule
// of bucket i that may hold an ID in any of ranges — a superset of the
// bucket's objects in those ranges — and the number of data bytes it
// read. Each run of granules is one pread of the segment file; every
// granule returned was verified against its fence CRC, and a mismatch is
// an error, never a shorter result. The objects live in sc and are valid
// until sc's next probe.
func (s *Set) probeRanges(sc *probeScratch, i int, ranges []htm.Range) ([]catalog.Object, int64, error) {
	sf, e, err := s.entry(i)
	if err != nil {
		return nil, 0, err
	}
	fences := sf.fences[e.fenceOff : e.fenceOff+e.fences]
	sc.runs = appendGranuleRuns(sc.runs[:0], fences, ranges)
	stride := s.man.ObjectBytes
	gb := granuleBytes(stride)
	objs := sc.objs[:0]
	var read int64
	for _, run := range sc.runs {
		lo := int64(run.lo) * gb
		hi := min(int64(run.hi+1)*gb, int64(e.length))
		sc.raw = slices.Grow(sc.raw[:0], int(hi-lo))[:hi-lo]
		buf := sc.raw
		if _, err := sf.f.ReadAt(buf, int64(e.offset)+lo); err != nil {
			return nil, 0, fmt.Errorf("segment: bucket %d probe pread: %w", i, err)
		}
		read += hi - lo
		for g := run.lo; g <= run.hi; g++ {
			granule := buf[:min(gb, int64(len(buf)))]
			buf = buf[len(granule):]
			if sum := crc32.Checksum(granule, castagnoli); sum != fences[g].crc {
				return nil, 0, fmt.Errorf("segment: bucket %d granule %d checksum mismatch (corrupt store)", i, g)
			}
			objs = appendRecords(objs, granule, int(stride))
		}
	}
	sc.objs = objs
	return objs, read, nil
}
