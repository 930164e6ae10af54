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
// runs a fill selects and the raw bytes of the run it reads.
type fillScratch struct {
	runs []granuleRun
	raw  []byte
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

// bucketData is what a granule read of one bucket needs: the bucket's
// index entry and fences in its segment file, and the record stride.
type bucketData struct {
	i      int
	sf     *segFile
	e      indexEntry
	fences []fence
	stride int64
}

func (s *Set) bucketData(i int) (bucketData, error) {
	sf, e, err := s.entry(i)
	if err != nil {
		return bucketData{}, err
	}
	return bucketData{i, sf, e, sf.fences[e.fenceOff : e.fenceOff+e.fences], s.man.ObjectBytes}, nil
}

// readRun preads granules [run.lo, run.hi] in one read into sc.raw and
// checks each against its fence CRC before, when decode is set, it
// decodes the granule's records onto objs. A mismatch is an error, never
// a shorter result. It returns objs and the data bytes read.
func (b bucketData) readRun(sc *fillScratch, run granuleRun, objs []catalog.Object, decode bool) ([]catalog.Object, int64, error) {
	gb := granuleBytes(b.stride)
	lo := int64(run.lo) * gb
	hi := min(int64(run.hi+1)*gb, int64(b.e.length))
	sc.raw = slices.Grow(sc.raw[:0], int(hi-lo))[:hi-lo]
	buf := sc.raw
	if _, err := b.sf.f.ReadAt(buf, int64(b.e.offset)+lo); err != nil {
		return nil, 0, fmt.Errorf("segment: bucket %d granule pread: %w", b.i, err)
	}
	for g := run.lo; g <= run.hi; g++ {
		granule := buf[:min(gb, int64(len(buf)))]
		buf = buf[len(granule):]
		if sum := crc32.Checksum(granule, castagnoli); sum != b.fences[g].crc {
			return nil, 0, fmt.Errorf("segment: bucket %d granule %d checksum mismatch (corrupt store)", b.i, g)
		}
		if decode {
			objs = appendRecords(objs, granule, int(b.stride))
		}
	}
	return objs, hi - lo, nil
}

// fill is bucket.Backend.Fill over sc's scratch, the one read of a scan
// and of an index probe: each run of selected granules r lacks is one
// pread through readRun, decoding (when decode is set) straight into the
// granules' slots of r.Objs. Only granules that passed their check are
// marked resident, and only marked granules are gathered, so no slot a
// recycled array still holds for another bucket is ever joined.
func (s *Set) fill(sc *fillScratch, i int, r *bucket.Resident, ranges []htm.Range, gather []catalog.Object, decode bool) ([]catalog.Object, int64, error) {
	b, err := s.bucketData(i)
	if err != nil {
		return nil, 0, err
	}
	if len(r.Have) == 0 {
		words := (len(b.fences) + 63) / 64
		r.Have = slices.Grow(r.Have, words)[:words]
		clear(r.Have)
		if decode {
			n := int(int64(b.e.length) / b.stride)
			r.Objs = slices.Grow(r.Objs[:0], n)[:n]
		}
	}
	per := int(granuleBytes(b.stride) / b.stride)
	sc.runs = appendGranuleRuns(sc.runs[:0], b.fences, ranges)
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
			var slots []catalog.Object
			if decode {
				slots = r.Objs[lo*per : lo*per]
			}
			_, n, err := b.readRun(sc, granuleRun{lo, g}, slots, decode)
			if err != nil {
				return nil, 0, err
			}
			read += n
			for k := lo; k <= g; k++ {
				r.Hold(k)
			}
		}
	}
	if !decode {
		return nil, read, nil
	}
	for _, run := range sc.runs {
		gather = append(gather, r.Objs[run.lo*per:min((run.hi+1)*per, len(r.Objs))]...)
	}
	return gather, read, nil
}
