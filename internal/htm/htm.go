// Package htm implements the Hierarchical Triangular Mesh (Kunszt, Szalay,
// Csabai, Thakar: "The Indexing of the SDSS Science Archive", ADASS 2000),
// the spatial index LifeRaft uses to partition sky catalogs and to assign
// cross-match objects to buckets.
//
// HTM decomposes the unit sphere into eight spherical triangles (the faces
// of an octahedron) and recursively subdivides each triangle into four by
// bisecting its edges. A trixel at level L is identified by an integer ID
// whose binary representation is a 4-bit face prefix (values 8-15)
// followed by two bits per level selecting a child (0-3). Level-14 IDs
// therefore occupy 32 bits, matching the IDs SkyQuery assigns to
// observations.
//
// The ID numbering is a space-filling curve: trixels that are adjacent in
// ID order are spatially close, so a contiguous ID range corresponds to a
// compact region of sky. LifeRaft exploits this to define equal-sized
// buckets as contiguous ID ranges (paper §3.1, Figure 1).
package htm

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"liferaft/internal/geom"
)

// MaxLevel is the deepest subdivision supported. Level 20 trixels are
// ~0.4 arcseconds across, far below any cross-match radius of interest.
const MaxLevel = 20

// PaperLevel is the subdivision depth used by SkyQuery and throughout the
// paper: level-14 IDs fit in 32 bits.
const PaperLevel = 14

// ID identifies an HTM trixel. The zero value is invalid.
type ID uint64

// octahedron vertices, in the order used by the SDSS HTM code.
var octVerts = [6]geom.Vec3{
	{X: 0, Y: 0, Z: 1},  // v0: north pole
	{X: 1, Y: 0, Z: 0},  // v1
	{X: 0, Y: 1, Z: 0},  // v2
	{X: -1, Y: 0, Z: 0}, // v3
	{X: 0, Y: -1, Z: 0}, // v4
	{X: 0, Y: 0, Z: -1}, // v5: south pole
}

// faces maps face index (ID 8+i) to vertex indices, following the standard
// HTM layout: S0-S3 are IDs 8-11, N0-N3 are IDs 12-15.
var faces = [8][3]int{
	{1, 5, 2}, // S0 = 8
	{2, 5, 3}, // S1 = 9
	{3, 5, 4}, // S2 = 10
	{4, 5, 1}, // S3 = 11
	{1, 0, 4}, // N0 = 12
	{4, 0, 3}, // N1 = 13
	{3, 0, 2}, // N2 = 14
	{2, 0, 1}, // N3 = 15
}

var faceNames = [8]string{"S0", "S1", "S2", "S3", "N0", "N1", "N2", "N3"}

// FaceID returns the level-0 trixel ID for face index i in [0, 8).
func FaceID(i int) ID {
	if i < 0 || i >= 8 {
		panic(fmt.Sprintf("htm: face index %d out of range", i))
	}
	return ID(8 + i)
}

// FaceTriangle returns the spherical triangle of face index i in [0, 8).
func FaceTriangle(i int) geom.Triangle {
	f := faces[i]
	return geom.Triangle{V0: octVerts[f[0]], V1: octVerts[f[1]], V2: octVerts[f[2]]}
}

// Valid reports whether id encodes a trixel: the leading 1 bit must sit at
// an even bit-length position of at least 4 (level 0 IDs are 8-15, each
// level appends exactly two bits), and the level must not exceed MaxLevel.
func (id ID) Valid() bool {
	n := bits.Len64(uint64(id))
	return n >= 4 && n%2 == 0 && (n-4)/2 <= MaxLevel
}

// Level returns the subdivision level of id. It panics on invalid IDs.
func (id ID) Level() int {
	if !id.Valid() {
		panic(fmt.Sprintf("htm: invalid ID %#x", uint64(id)))
	}
	return (bits.Len64(uint64(id)) - 4) / 2
}

// Parent returns the trixel containing id at the previous level. It panics
// on level-0 IDs.
func (id ID) Parent() ID {
	if id.Level() == 0 {
		panic("htm: level-0 trixel has no parent")
	}
	return id >> 2
}

// Child returns the i-th child (i in [0,4)) of id at the next level.
func (id ID) Child(i int) ID {
	if i < 0 || i >= 4 {
		panic(fmt.Sprintf("htm: child index %d out of range", i))
	}
	if id.Level() >= MaxLevel {
		panic("htm: cannot subdivide below MaxLevel")
	}
	return id<<2 | ID(i)
}

// FaceIndex returns the octahedron face (0-7) that id descends from.
func (id ID) FaceIndex() int {
	return int(id>>(2*uint(id.Level()))) - 8
}

// Triangle returns the spherical triangle covered by id, computed by
// descending the quad-tree from the face triangle.
func (id ID) Triangle() geom.Triangle {
	level := id.Level()
	tri := FaceTriangle(id.FaceIndex())
	for l := level - 1; l >= 0; l-- {
		child := int(id>>(2*uint(l))) & 3
		tri = subTriangle(tri, child)
	}
	return tri
}

// subTriangle returns child i of tri under HTM's midpoint subdivision.
func subTriangle(tri geom.Triangle, i int) geom.Triangle {
	w0 := tri.V1.Mid(tri.V2)
	w1 := tri.V0.Mid(tri.V2)
	w2 := tri.V0.Mid(tri.V1)
	switch i {
	case 0:
		return geom.Triangle{V0: tri.V0, V1: w2, V2: w1}
	case 1:
		return geom.Triangle{V0: tri.V1, V1: w0, V2: w2}
	case 2:
		return geom.Triangle{V0: tri.V2, V1: w1, V2: w0}
	default:
		return geom.Triangle{V0: w0, V1: w1, V2: w2}
	}
}

// Contains reports whether unit vector v lies in the trixel.
func (id ID) Contains(v geom.Vec3) bool { return id.Triangle().Contains(v) }

// Center returns the centroid of the trixel, a convenient representative
// point for density evaluation.
func (id ID) Center() geom.Vec3 { return id.Triangle().Center() }

// Name returns the conventional string form of the ID: the face name
// followed by one digit per level, e.g. "N32030330".
func (id ID) Name() string {
	level := id.Level()
	buf := make([]byte, 0, 2+level)
	buf = append(buf, faceNames[id.FaceIndex()]...)
	for l := level - 1; l >= 0; l-- {
		buf = append(buf, byte('0'+int(id>>(2*uint(l)))&3))
	}
	return string(buf)
}

// String implements fmt.Stringer.
func (id ID) String() string {
	if !id.Valid() {
		return fmt.Sprintf("htm.ID(%#x)", uint64(id))
	}
	return id.Name()
}

// FirstAtLevel returns the smallest trixel ID at the given level.
func FirstAtLevel(level int) ID { return ID(8) << (2 * uint(level)) }

// NumTrixels returns the number of trixels at the given level (8 * 4^level).
func NumTrixels(level int) uint64 { return 8 << (2 * uint(level)) }

// Pos returns the position of id along the space-filling curve at its own
// level: 0 for the first trixel, NumTrixels(level)-1 for the last.
func (id ID) Pos() uint64 { return uint64(id - FirstAtLevel(id.Level())) }

// FromPos returns the trixel at curve position pos of the given level.
func FromPos(pos uint64, level int) ID {
	if pos >= NumTrixels(level) {
		panic(fmt.Sprintf("htm: position %d out of range at level %d", pos, level))
	}
	return FirstAtLevel(level) + ID(pos)
}

// RangeAtLevel returns the inclusive range of level-`level` IDs descended
// from id. level must be >= id.Level().
func (id ID) RangeAtLevel(level int) Range {
	shift := 2 * uint(level-id.Level())
	if level < id.Level() {
		panic("htm: RangeAtLevel target above trixel level")
	}
	return Range{Start: id << shift, End: (id+1)<<shift - 1}
}

// AncestorAtLevel returns the enclosing trixel of id at the given
// (shallower or equal) level.
func (id ID) AncestorAtLevel(level int) ID {
	d := id.Level() - level
	if d < 0 {
		panic("htm: AncestorAtLevel target below trixel level")
	}
	return id >> (2 * uint(d))
}

// Lookup returns the trixel of the given level containing unit vector v.
// Points on trixel boundaries resolve deterministically to the
// lowest-numbered containing child.
func Lookup(v geom.Vec3, level int) ID {
	if level < 0 || level > MaxLevel {
		panic(fmt.Sprintf("htm: level %d out of range", level))
	}
	v = v.Normalize()
	face := -1
	var tri geom.Triangle
	for i := 0; i < 8; i++ {
		tri = FaceTriangle(i)
		if tri.Contains(v) {
			face = i
			break
		}
	}
	if face < 0 {
		// Numerically pathological; snap to the nearest face by centroid.
		best, bestDot := 0, -2.0
		for i := 0; i < 8; i++ {
			d := FaceTriangle(i).Center().Dot(v)
			if d > bestDot {
				best, bestDot = i, d
			}
		}
		face = best
		tri = FaceTriangle(face)
	}
	id := ID(8 + face)
	for l := 0; l < level; l++ {
		placed := false
		for c := 0; c < 4; c++ {
			sub := subTriangle(tri, c)
			if sub.Contains(v) {
				id = id<<2 | ID(c)
				tri = sub
				placed = true
				break
			}
		}
		if !placed {
			// Epsilon gaps can exclude a boundary point from all four
			// children; snap to the child whose centroid is nearest.
			best, bestDot := 0, -2.0
			for c := 0; c < 4; c++ {
				d := subTriangle(tri, c).Center().Dot(v)
				if d > bestDot {
					best, bestDot = c, d
				}
			}
			id = id<<2 | ID(best)
			tri = subTriangle(tri, best)
		}
	}
	return id
}

// LookupWithin returns the trixel of the given level containing v,
// descending from base instead of from the octahedron faces. It is the
// fast path for catalog generation, where the containing coarse trixel is
// already known. If v lies outside base (within epsilon), the descent
// still terminates by snapping to the nearest child at each level.
func LookupWithin(base ID, v geom.Vec3, level int) ID {
	if level < base.Level() {
		panic("htm: LookupWithin target above base level")
	}
	v = v.Normalize()
	id := base
	tri := base.Triangle()
	for l := base.Level(); l < level; l++ {
		placed := false
		for c := 0; c < 4; c++ {
			sub := subTriangle(tri, c)
			if sub.Contains(v) {
				id = id<<2 | ID(c)
				tri = sub
				placed = true
				break
			}
		}
		if !placed {
			best, bestDot := 0, -2.0
			for c := 0; c < 4; c++ {
				d := subTriangle(tri, c).Center().Dot(v)
				if d > bestDot {
					best, bestDot = c, d
				}
			}
			id = id<<2 | ID(best)
			tri = subTriangle(tri, best)
		}
	}
	return id
}

// Range is an inclusive range [Start, End] of trixel IDs at a single
// level. Ranges are the unit of spatial filtering: a cross-match object's
// bounding box is a set of Ranges, and buckets are Ranges.
type Range struct {
	Start, End ID
}

// Valid reports whether the range is well formed: both endpoints valid,
// same level, Start <= End.
func (r Range) Valid() bool {
	return r.Start.Valid() && r.End.Valid() && r.Start <= r.End &&
		bits.Len64(uint64(r.Start)) == bits.Len64(uint64(r.End))
}

// Level returns the level of the range's trixels.
func (r Range) Level() int { return r.Start.Level() }

// Count returns the number of trixels in the range.
func (r Range) Count() uint64 { return uint64(r.End-r.Start) + 1 }

// Contains reports whether the range includes id (which must be at the
// same level).
func (r Range) Contains(id ID) bool { return id >= r.Start && id <= r.End }

// Overlaps reports whether two same-level ranges share any trixel.
func (r Range) Overlaps(s Range) bool { return r.Start <= s.End && s.Start <= r.End }

// String implements fmt.Stringer.
func (r Range) String() string {
	return fmt.Sprintf("[%s, %s]", r.Start.Name(), r.End.Name())
}

// CoverCap computes a sorted, merged list of level-`level` ID ranges that
// together cover the spherical cap c: every point of the cap lies in some
// returned range. This is the coarse filter of paper §3.1: a cross-match
// object's potential join region (its positional-error cap) is converted
// to HTM ranges, which are then intersected with bucket ranges.
//
// The cover is conservative (it may include trixels that only graze the
// cap) but sound (it never omits a trixel intersecting the cap).
func CoverCap(c geom.Cap, level int) []Range {
	return CoverCapInto(nil, c, level)
}

// CoverCapInto is CoverCap built in buf's storage: the cover overwrites
// whatever buf held (its length is ignored) and is returned, grown if buf
// was too small. A caller that covers caps over and over keeps one buffer
// instead of growing a slice from nil each time.
func CoverCapInto(buf []Range, c geom.Cap, level int) []Range {
	if level < 0 || level > MaxLevel {
		panic(fmt.Sprintf("htm: level %d out of range", level))
	}
	out := buf[:0]
	if degenerate(c) {
		return out
	}
	for i := 0; i < 8; i++ {
		coverNode(FaceID(i), FaceTriangle(i), c, level, &out)
	}
	return MergeRanges(out)
}

// degenerate reports a cap that covers no point of the sphere a descent
// could find: its centre is not a finite unit vector (geom.NewCap turns a
// zero position into the zero vector and a NaN one into NaNs), or its radius
// is NaN. Every geometric test against such a cap is undecided, so a descent
// would visit every trixel down to the target level; its cover is empty
// instead.
func degenerate(c geom.Cap) bool { return !c.Center.IsUnit() || math.IsNaN(c.CosR) }

func coverNode(id ID, tri geom.Triangle, c geom.Cap, level int, out *[]Range) {
	switch tri.CapRelation(c) {
	case geom.Disjoint:
		return
	case geom.Inside:
		*out = append(*out, id.RangeAtLevel(level))
		return
	}
	if id.Level() == level {
		*out = append(*out, Range{Start: id, End: id})
		return
	}
	for i := 0; i < 4; i++ {
		coverNode(id.Child(i), subTriangle(tri, i), c, level, out)
	}
}

// CapBounds returns the two ends of CoverCap(c, level) — the smallest Start
// and the largest End of the cover — without building it: the same descent
// with the same geometric tests, keeping a running minimum and maximum
// instead of a slice. ok is false exactly when the cover is empty. It is
// what a workload object needs (paper §3.1 ships "a range of HTM ID values"
// with each object) and allocates nothing.
func CapBounds(c geom.Cap, level int) (lo, hi ID, ok bool) {
	return CapBoundsIn(c, level, Range{Start: 0, End: ^ID(0)})
}

// CapBoundsIn is CapBounds over the part of the cover that lies in win:
// the smallest and the largest ID of CoverCap(c, level) inside win, found
// by the same descent with the subtrees outside win skipped. ok is false
// when the cover has no ID in win. An index probe uses it to key a bucket
// by what the cap reaches there, which for a cap straddling two coarse
// trixels is far less than the run of IDs between the cover's two ends.
func CapBoundsIn(c geom.Cap, level int, win Range) (lo, hi ID, ok bool) {
	if level < 0 || level > MaxLevel {
		panic(fmt.Sprintf("htm: level %d out of range", level))
	}
	if degenerate(c) {
		return 0, 0, false
	}
	b := capBounds{c: c, win: win, sinReach: math.Inf(1)}
	if c.CosR >= 0.5 {
		b.sinReach = math.Sqrt(1-c.CosR*c.CosR)*cosMargin + c.CosR*sinMargin
	}
	// A face's edges lie in the coordinate planes, on the side its centre is.
	x, y, z := b.side(geom.Vec3{X: 1}), b.side(geom.Vec3{Y: 1}), b.side(geom.Vec3{Z: 1})
	for i := 0; i < 8; i++ {
		tri := FaceTriangle(i)
		g := tri.V0.Add(tri.V1).Add(tri.V2)
		fx, fy, fz := x*int(g.X), y*int(g.Y), z*int(g.Z)
		if fx < 0 || fy < 0 || fz < 0 {
			continue
		}
		b.walk(FaceID(i), tri, 2*uint(level), fx > 0 && fy > 0 && fz > 0)
	}
	return b.lo, b.hi, b.ok
}

// capMargin is how far, in radians, a cap must stay from a trixel's edge for
// the walk to decide by that edge's plane alone instead of CapRelation. It
// has to dwarf every tolerance CapRelation grants: Epsilon on a vertex's dot
// product (a zero-radius cap passes up to sqrt(2*Epsilon) = 1.4e-6 away) and
// Epsilon over an edge's length on the plane tests (1e-6 at level 20).
const capMargin = 1e-5

var sinMargin, cosMargin = math.Sincos(capMargin)

type capBounds struct {
	c   geom.Cap
	win Range
	// sinReach is the sine of the cap's radius plus capMargin; +Inf for caps
	// over 60 degrees, which leaves every decision to CapRelation.
	sinReach float64
	lo, hi   ID
	ok       bool
}

// side places the whole cap against the plane through the origin with normal
// n: +1 when every point of it lies capMargin or more to n's side, -1 when
// to the other side, 0 when it comes nearer the plane than that.
func (b *capBounds) side(n geom.Vec3) int {
	d := n.Dot(b.c.Center)
	switch {
	case !(d*d >= n.Dot(n)*b.sinReach*b.sinReach):
		return 0
	case d > 0:
		return 1
	}
	return -1
}

// walk is coverNode for the bounds: shift is two bits per level still below
// id, so id's descendants at the target level are [id<<shift, (id+1)<<shift).
// held says the cap is known to lie capMargin inside all three edges of tri,
// which CapRelation would call Partial.
//
// Children are told apart by the planes of the middle child's edges before
// CapRelation is paid for them: a child with the cap capMargin beyond one of
// its edges has every point that far from the cap, so CapRelation finds it
// Disjoint, and a child held by all three is Partial. For a cap much smaller
// than the trixel that settles all four.
func (b *capBounds) walk(id ID, tri geom.Triangle, shift uint, held bool) {
	start, end := id<<shift, (id+1)<<shift-1
	if end < b.win.Start || start > b.win.End {
		return
	}
	start, end = max(start, b.win.Start), min(end, b.win.End)
	if b.ok && start >= b.lo && end <= b.hi {
		return // nothing under id can move either end
	}
	rel := geom.Partial
	if !held {
		rel = tri.CapRelation(b.c)
	}
	if rel == geom.Disjoint {
		return
	}
	if rel == geom.Inside || shift == 0 {
		if !b.ok || start < b.lo {
			b.lo = start
		}
		if !b.ok || end > b.hi {
			b.hi = end
		}
		b.ok = true
		return
	}
	// subTriangle's four children, with the edge midpoints taken once for
	// the node instead of once per child. A corner child shares two edges'
	// planes with tri; its third edge is the middle child's.
	w0 := tri.V1.Mid(tri.V2)
	w1 := tri.V0.Mid(tri.V2)
	w2 := tri.V0.Mid(tri.V1)
	s0, s1, s2 := b.side(w2.Cross(w1)), b.side(w0.Cross(w2)), b.side(w1.Cross(w0))
	if s0 >= 0 {
		b.walk(id<<2, geom.Triangle{V0: tri.V0, V1: w2, V2: w1}, shift-2, held && s0 > 0)
	}
	if s1 >= 0 {
		b.walk(id<<2|1, geom.Triangle{V0: tri.V1, V1: w0, V2: w2}, shift-2, held && s1 > 0)
	}
	if s2 >= 0 {
		b.walk(id<<2|2, geom.Triangle{V0: tri.V2, V1: w1, V2: w0}, shift-2, held && s2 > 0)
	}
	if s0 <= 0 && s1 <= 0 && s2 <= 0 {
		b.walk(id<<2|3, geom.Triangle{V0: w0, V1: w1, V2: w2}, shift-2, s0 < 0 && s1 < 0 && s2 < 0)
	}
}

// MergeRanges sorts ranges by Start and coalesces overlapping or adjacent
// ranges. All ranges must be at the same level.
func MergeRanges(rs []Range) []Range {
	if len(rs) <= 1 {
		return rs
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].Start < rs[j].Start })
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		if r.Start <= last.End+1 {
			if r.End > last.End {
				last.End = r.End
			}
		} else {
			out = append(out, r)
		}
	}
	return out
}

// RangesOverlap reports whether any range in a overlaps any range in b.
// Both slices must be sorted by Start (as returned by CoverCap or
// MergeRanges). Runs in O(len(a)+len(b)).
func RangesOverlap(a, b []Range) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Overlaps(b[j]) {
			return true
		}
		if a[i].End < b[j].End {
			i++
		} else {
			j++
		}
	}
	return false
}
