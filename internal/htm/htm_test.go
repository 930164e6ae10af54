package htm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"liferaft/internal/geom"
)

func TestFaceIDs(t *testing.T) {
	for i := 0; i < 8; i++ {
		id := FaceID(i)
		if uint64(id) != uint64(8+i) {
			t.Errorf("FaceID(%d) = %d", i, id)
		}
		if !id.Valid() || id.Level() != 0 {
			t.Errorf("FaceID(%d) invalid or wrong level", i)
		}
		if id.FaceIndex() != i {
			t.Errorf("FaceIndex of face %d = %d", i, id.FaceIndex())
		}
	}
}

func TestFaceIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FaceID(8) should panic")
		}
	}()
	FaceID(8)
}

func TestValidity(t *testing.T) {
	cases := []struct {
		id   ID
		want bool
	}{
		{0, false}, {1, false}, {7, false},
		{8, true}, {15, true},
		{16, false}, {31, false}, // odd bit length
		{32, true}, {63, true}, // level 1
		{ID(8) << (2 * MaxLevel), true},
		{ID(8) << (2 * (MaxLevel + 1)), false},
	}
	for _, c := range cases {
		if got := c.id.Valid(); got != c.want {
			t.Errorf("Valid(%#x) = %v, want %v", uint64(c.id), got, c.want)
		}
	}
}

func TestLevelPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Level of invalid ID should panic")
		}
	}()
	ID(3).Level()
}

func TestParentChild(t *testing.T) {
	id := FaceID(2)
	for i := 0; i < 4; i++ {
		c := id.Child(i)
		if c.Parent() != id {
			t.Errorf("Parent(Child(%d)) != id", i)
		}
		if c.Level() != 1 {
			t.Errorf("child level = %d", c.Level())
		}
	}
}

func TestParentPanicsAtRoot(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Parent of face should panic")
		}
	}()
	FaceID(0).Parent()
}

func TestLevel14Is32Bits(t *testing.T) {
	// The paper: SkyQuery assigns 32-bit level-14 HTM IDs.
	if got := FromPos(NumTrixels(PaperLevel)-1, PaperLevel); got >= 1<<32 {
		t.Errorf("level-14 IDs exceed 32 bits: %#x", uint64(got))
	}
	if got := FirstAtLevel(PaperLevel); got != ID(8)<<28 {
		t.Errorf("FirstAtLevel(14) = %#x", uint64(got))
	}
	if NumTrixels(PaperLevel) != 8*1<<28 {
		t.Errorf("NumTrixels(14) = %d", NumTrixels(PaperLevel))
	}
}

// TestNameRoundTrip: a name is its parent's name plus the one digit that
// picks the child, so walking the digits back recovers the quad-tree path.
func TestNameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		level := rng.Intn(MaxLevel) + 1
		id := FromPos(uint64(rng.Int63n(int64(NumTrixels(level)))), level)
		name, parent := id.Name(), id.Parent().Name()
		if want := parent + string(rune('0'+id&3)); name != want {
			t.Fatalf("%#x: name %q, want parent %q plus child digit (%q)", uint64(id), name, parent, want)
		}
	}
}

func TestStringForms(t *testing.T) {
	if FaceID(4).String() != "N0" {
		t.Errorf("N0 name = %q", FaceID(4).String())
	}
	if FaceID(0).Child(3).String() != "S03" {
		t.Errorf("S03 name = %q", FaceID(0).Child(3).String())
	}
	if ID(0).String() == "" {
		t.Error("invalid ID String should be non-empty")
	}
}

func TestPosRoundTrip(t *testing.T) {
	for level := 0; level <= 6; level++ {
		n := NumTrixels(level)
		for _, pos := range []uint64{0, 1, n / 2, n - 1} {
			id := FromPos(pos, level)
			if id.Pos() != pos || id.Level() != level {
				t.Errorf("FromPos(%d,%d) round trip failed", pos, level)
			}
		}
	}
}

func TestFromPosPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FromPos out of range should panic")
		}
	}()
	FromPos(NumTrixels(3), 3)
}

func TestTrianglesPartitionSphere(t *testing.T) {
	// The 8 faces cover the sphere and their areas sum to 4*pi.
	total := 0.0
	for i := 0; i < 8; i++ {
		total += FaceTriangle(i).Area()
	}
	if math.Abs(total-4*math.Pi) > 1e-9 {
		t.Errorf("face areas sum to %v, want 4*pi", total)
	}
}

func TestChildrenPartitionParent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 50; iter++ {
		level := rng.Intn(5)
		id := FromPos(uint64(rng.Int63n(int64(NumTrixels(level)))), level)
		parentArea := id.Triangle().Area()
		var childArea float64
		for c := 0; c < 4; c++ {
			childArea += id.Child(c).Triangle().Area()
		}
		if math.Abs(parentArea-childArea) > 1e-9*parentArea {
			t.Fatalf("children of %s do not partition parent: %v vs %v",
				id, childArea, parentArea)
		}
	}
}

func TestLookupContainment(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 1000; i++ {
		ra := rng.Float64() * 360
		dec := math.Asin(rng.Float64()*2-1) * 180 / math.Pi
		v := geom.FromRaDec(ra, dec)
		for _, level := range []int{0, 3, 8, PaperLevel} {
			id := Lookup(v, level)
			if id.Level() != level {
				t.Fatalf("Lookup level = %d, want %d", id.Level(), level)
			}
			if !id.Contains(v) {
				t.Fatalf("Lookup(%v,%v @ %d) = %s does not contain point", ra, dec, level, id)
			}
		}
	}
}

func TestLookupHierarchyConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 300; i++ {
		v := geom.FromRaDec(rng.Float64()*360, math.Asin(rng.Float64()*2-1)*180/math.Pi)
		deep := Lookup(v, PaperLevel)
		// The ancestor of the deep lookup must contain the point too;
		// shallow lookups may differ only at boundaries.
		for level := 0; level < PaperLevel; level++ {
			anc := deep.AncestorAtLevel(level)
			if !anc.Contains(v) {
				t.Fatalf("ancestor %s at level %d does not contain point", anc, level)
			}
		}
	}
}

func TestLookupDeterministicOnBoundary(t *testing.T) {
	// A face vertex lies on many trixel boundaries; Lookup must still
	// return a containing trixel and be deterministic.
	v := geom.Vec3{X: 1, Y: 0, Z: 0}
	a := Lookup(v, 10)
	b := Lookup(v, 10)
	if a != b {
		t.Errorf("Lookup not deterministic: %s vs %s", a, b)
	}
	if !a.Contains(v) {
		t.Errorf("boundary lookup %s does not contain point", a)
	}
}

func TestRangeBasics(t *testing.T) {
	r := Range{Start: FromPos(10, 4), End: FromPos(20, 4)}
	if !r.Valid() || r.Level() != 4 || r.Count() != 11 {
		t.Errorf("range basics failed: %+v", r)
	}
	if !r.Contains(FromPos(15, 4)) || r.Contains(FromPos(21, 4)) {
		t.Error("Contains wrong")
	}
	s := Range{Start: FromPos(20, 4), End: FromPos(30, 4)}
	u := Range{Start: FromPos(31, 4), End: FromPos(40, 4)}
	if !r.Overlaps(s) || r.Overlaps(u) {
		t.Error("Overlaps wrong")
	}
	if r.String() == "" {
		t.Error("Range String empty")
	}
	bad := Range{Start: FromPos(10, 4), End: FromPos(5, 3)}
	if bad.Valid() {
		t.Error("cross-level range should be invalid")
	}
}

func TestRangeAtLevel(t *testing.T) {
	id := FaceID(0) // S0
	r := id.RangeAtLevel(2)
	if r.Count() != 16 {
		t.Errorf("S0 at level 2 has %d trixels, want 16", r.Count())
	}
	if r.Start != FaceID(0).Child(0).Child(0) {
		t.Errorf("range start = %s", r.Start)
	}
	if r.End != FaceID(0).Child(3).Child(3) {
		t.Errorf("range end = %s", r.End)
	}
	self := id.RangeAtLevel(0)
	if self.Start != id || self.End != id {
		t.Error("RangeAtLevel at own level should be the singleton range")
	}
}

func TestMergeRanges(t *testing.T) {
	mk := func(a, b uint64) Range { return Range{Start: FromPos(a, 6), End: FromPos(b, 6)} }
	in := []Range{mk(10, 20), mk(25, 30), mk(15, 22), mk(23, 24), mk(40, 41)}
	out := MergeRanges(in)
	want := []Range{mk(10, 30), mk(40, 41)}
	if len(out) != len(want) {
		t.Fatalf("MergeRanges = %v, want %v", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("MergeRanges[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	if got := MergeRanges(nil); len(got) != 0 {
		t.Error("MergeRanges(nil) should be empty")
	}
	single := []Range{mk(1, 2)}
	if got := MergeRanges(single); len(got) != 1 || got[0] != single[0] {
		t.Error("MergeRanges single")
	}
}

func TestRangesOverlap(t *testing.T) {
	mk := func(a, b uint64) Range { return Range{Start: FromPos(a, 6), End: FromPos(b, 6)} }
	a := []Range{mk(0, 5), mk(10, 15)}
	b := []Range{mk(6, 9), mk(16, 20)}
	if RangesOverlap(a, b) {
		t.Error("disjoint sets reported overlapping")
	}
	c := []Range{mk(15, 15)}
	if !RangesOverlap(a, c) {
		t.Error("touching sets reported disjoint")
	}
	if RangesOverlap(nil, a) || RangesOverlap(a, nil) {
		t.Error("nil overlap")
	}
}

func TestCoverCapSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 100; iter++ {
		center := geom.FromRaDec(rng.Float64()*360, math.Asin(rng.Float64()*2-1)*180/math.Pi)
		radius := geom.Radians(0.01 + rng.Float64()*5)
		c := geom.NewCap(center, radius)
		level := 6 + rng.Intn(4)
		cover := CoverCap(c, level)
		if len(cover) == 0 {
			t.Fatalf("empty cover for cap radius %v deg", geom.Degrees(radius))
		}
		// Ranges sorted and non-overlapping.
		for i := 1; i < len(cover); i++ {
			if cover[i].Start <= cover[i-1].End {
				t.Fatalf("cover ranges overlap or unsorted: %v", cover)
			}
		}
		// Soundness: sampled points inside the cap land inside the cover.
		for s := 0; s < 50; s++ {
			// Random point within the cap.
			p := sampleInCap(rng, c)
			id := Lookup(p, level)
			found := false
			for _, r := range cover {
				if r.Contains(id) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("point in cap not covered: iter %d level %d", iter, level)
			}
		}
	}
}

func sampleInCap(rng *rand.Rand, c geom.Cap) geom.Vec3 {
	// Build an orthonormal frame at the center and sample within the
	// angular radius.
	z := c.Center
	var x geom.Vec3
	if math.Abs(z.X) < 0.9 {
		x = geom.Vec3{X: 1}.Sub(z.Scale(z.X)).Normalize()
	} else {
		x = geom.Vec3{Y: 1}.Sub(z.Scale(z.Y)).Normalize()
	}
	y := z.Cross(x)
	theta := rng.Float64() * c.Radius() * 0.999
	phi := rng.Float64() * 2 * math.Pi
	st, ct := math.Sin(theta), math.Cos(theta)
	return z.Scale(ct).Add(x.Scale(st * math.Cos(phi))).Add(y.Scale(st * math.Sin(phi)))
}

func TestCoverCapTightness(t *testing.T) {
	// An arcsecond-scale cap at level 14 should need only a handful of
	// trixels (a level-14 trixel is ~25 arcsec across).
	c := geom.NewCap(geom.FromRaDec(123.4, -12.3), geom.ArcsecToRad(3))
	cover := CoverCap(c, PaperLevel)
	var n uint64
	for _, r := range cover {
		n += r.Count()
	}
	if n > 16 {
		t.Errorf("3-arcsec cap covered by %d level-14 trixels, want few", n)
	}
}

func TestCoverFullSphere(t *testing.T) {
	c := geom.NewCap(geom.Vec3{Z: 1}, math.Pi)
	cover := CoverCap(c, 3)
	var n uint64
	for _, r := range cover {
		n += r.Count()
	}
	if n != NumTrixels(3) {
		t.Errorf("full-sphere cover has %d trixels, want %d", n, NumTrixels(3))
	}
	if len(cover) != 1 {
		t.Errorf("full-sphere cover should merge to one range, got %d", len(cover))
	}
}

// Property: Pos/FromPos are inverse and preserve ordering.
func TestQuickPosOrdering(t *testing.T) {
	f := func(a, b uint16) bool {
		pa, pb := uint64(a)%NumTrixels(5), uint64(b)%NumTrixels(5)
		ia, ib := FromPos(pa, 5), FromPos(pb, 5)
		return (pa < pb) == (ia < ib) && ia.Pos() == pa
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ancestor ranges nest.
func TestQuickAncestorNesting(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		id := FromPos(uint64(rng.Int63n(int64(NumTrixels(10)))), 10)
		anc := id.AncestorAtLevel(4)
		return anc.RangeAtLevel(10).Contains(id)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkLookupLevel14(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]geom.Vec3, 1024)
	for i := range pts {
		pts[i] = geom.FromRaDec(rng.Float64()*360, math.Asin(rng.Float64()*2-1)*180/math.Pi)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Lookup(pts[i%len(pts)], PaperLevel)
	}
}

func BenchmarkCoverCapArcsec(b *testing.B) {
	c := geom.NewCap(geom.FromRaDec(200, 30), geom.ArcsecToRad(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CoverCap(c, PaperLevel)
	}
}

func BenchmarkCapBoundsArcsec(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	caps := make([]geom.Cap, 1024)
	for i := range caps {
		caps[i] = geom.NewCap(geom.FromRaDec(rng.Float64()*360, math.Asin(rng.Float64()*2-1)*180/math.Pi), geom.ArcsecToRad(5))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CapBounds(caps[i%len(caps)], PaperLevel)
	}
}

// TestLookupWithin: LookupIn from a base trixel stays inside it and agrees
// with a full Lookup.
func TestLookupWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 300; i++ {
		v := geom.FromRaDec(rng.Float64()*360, math.Asin(rng.Float64()*2-1)*180/math.Pi)
		base := Lookup(v, 5)
		got := LookupIn(base, base.Triangle(), v, PaperLevel)
		if got.Level() != PaperLevel {
			t.Fatalf("level = %d", got.Level())
		}
		if got.AncestorAtLevel(5) != base {
			t.Fatalf("LookupIn escaped its base trixel")
		}
		if !got.Contains(v) {
			t.Fatalf("LookupIn result does not contain point")
		}
		// Must agree with a full Lookup away from boundaries.
		full := Lookup(v, PaperLevel)
		if full != got && full.AncestorAtLevel(5) == base {
			t.Fatalf("LookupIn %s disagrees with Lookup %s", got, full)
		}
	}
}

func TestLookupWithinSameLevel(t *testing.T) {
	v := geom.FromRaDec(42, 42)
	base := Lookup(v, 7)
	if got := LookupIn(base, base.Triangle(), v, 7); got != base {
		t.Errorf("same-level LookupIn = %s, want %s", got, base)
	}
}

func TestLookupWithinOutsideBaseStillTerminates(t *testing.T) {
	// A point on the far side of the sphere: descent snaps to nearest
	// children and terminates at the right level.
	base := FaceID(0)
	v := base.Center().Scale(-1)
	got := LookupIn(base, base.Triangle(), v, 6)
	if got.Level() != 6 || got.AncestorAtLevel(0) != base {
		t.Errorf("outside-point descent broken: %s", got)
	}
}

func TestPanicPaths(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	mustPanic("Child(-1)", func() { FaceID(0).Child(-1) })
	mustPanic("Child(4)", func() { FaceID(0).Child(4) })
	deepest := FromPos(0, MaxLevel)
	mustPanic("Child below MaxLevel", func() { deepest.Child(0) })
	mustPanic("RangeAtLevel above", func() { FromPos(0, 5).RangeAtLevel(3) })
	mustPanic("AncestorAtLevel below", func() { FromPos(0, 3).AncestorAtLevel(5) })
	mustPanic("Lookup bad level", func() { Lookup(geom.Vec3{X: 1}, -1) })
	mustPanic("Lookup deep level", func() { Lookup(geom.Vec3{X: 1}, MaxLevel+1) })
	mustPanic("CoverCap bad level", func() { CoverCap(geom.NewCap(geom.Vec3{X: 1}, 0.1), MaxLevel+1) })
	mustPanic("LookupIn above base", func() { LookupIn(FromPos(0, 5), FromPos(0, 5).Triangle(), geom.Vec3{X: 1}, 3) })
}

func TestLookupPathologicalPoint(t *testing.T) {
	// The epsilon-snap fallback: a vertex shared by four faces must
	// still resolve deterministically at depth.
	for _, v := range []geom.Vec3{
		{X: 0, Y: 0, Z: 1}, {X: 0, Y: 0, Z: -1}, {X: 1, Y: 0, Z: 0},
	} {
		id := Lookup(v, 12)
		if id.Level() != 12 {
			t.Fatalf("level = %d", id.Level())
		}
	}
}

// TestCapBoundsMatchCoverCap holds the slice-free bounds walk to the cover
// it replaces in xmatch.NewWorkloadObject: over random and adversarial
// caps, CapBounds must return exactly the first Start and last End of
// CoverCap, and report an empty cover the same way.
func TestCapBoundsMatchCoverCap(t *testing.T) {
	check := func(center geom.Vec3, radius float64, level int) {
		t.Helper()
		c := geom.NewCap(center, radius)
		cover := CoverCap(c, level)
		lo, hi, ok := CapBounds(c, level)
		if ok != (len(cover) > 0) {
			t.Fatalf("center %v radius %g level %d: ok=%v, cover has %d ranges", center, radius, level, ok, len(cover))
		}
		if ok && (lo != cover[0].Start || hi != cover[len(cover)-1].End) {
			t.Fatalf("center %v radius %g level %d: bounds [%v, %v], cover ends [%v, %v]",
				center, radius, level, lo, hi, cover[0].Start, cover[len(cover)-1].End)
		}
	}
	rng := rand.New(rand.NewSource(41))
	// Radii log-uniform from a tenth of an arcsecond up: mostly to an
	// arcminute (cross-match error circles, around the 20-arcsecond
	// level-14 trixel), one in ten to a degree (covers of thousands of
	// ranges, which dominate the test's run time).
	for i := 0; i < 20000; i++ {
		center := geom.FromRaDec(rng.Float64()*360, math.Asin(rng.Float64()*2-1)*180/math.Pi)
		span := 600.0
		if i%10 == 0 {
			span = 36000
		}
		check(center, geom.ArcsecToRad(0.1*math.Pow(span, rng.Float64())), PaperLevel)
	}

	// Where covers straddle the coarsest ID boundaries: the octahedron's
	// vertices (poles included), its edge midpoints and face centres, and
	// points a hair off each, at radii on both sides of the offset.
	var special []geom.Vec3
	special = append(special, octVerts[:]...)
	for i := 0; i < 8; i++ {
		tri := FaceTriangle(i)
		special = append(special, tri.V0.Mid(tri.V1), tri.V1.Mid(tri.V2), tri.V2.Mid(tri.V0), tri.Center())
		// Vertices and edge midpoints of the first subdivision.
		for _, sub := range children(tri) {
			special = append(special, sub.V0.Mid(sub.V1), sub.V1.Mid(sub.V2), sub.V2.Mid(sub.V0))
		}
	}
	radii := []float64{0, geom.ArcsecToRad(0.5), geom.ArcsecToRad(3), geom.ArcsecToRad(30), geom.Radians(0.05), geom.Radians(1)}
	for _, p := range special {
		for _, r := range radii {
			check(p, r, PaperLevel)
			for k := 0; k < 4; k++ {
				off := geom.ArcsecToRad(0.1 * math.Pow(1000, rng.Float64()))
				q := p.Add(geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}.Scale(off)).Normalize()
				check(q, r, PaperLevel)
			}
		}
	}
	// Other levels, the whole sphere and beyond-hemisphere caps included.
	for i := 0; i < 500; i++ {
		center := geom.FromRaDec(rng.Float64()*360, math.Asin(rng.Float64()*2-1)*180/math.Pi)
		check(center, rng.Float64()*math.Pi, rng.Intn(8))
	}
	check(geom.Vec3{Z: 1}, math.Pi, 5)
}

// TestCapBoundsInMatchesClippedCover holds the windowed walk to the cover
// clipped to the window: the first and last ID of CoverCap inside win, and
// ok false exactly when no range of the cover reaches into win. The windows
// are the shapes a bucket span takes against a cap's cover: around one end,
// strictly between two ranges, across everything, a single ID.
func TestCapBoundsInMatchesClippedCover(t *testing.T) {
	var cover []Range // of the cap and level under test
	check := func(c geom.Cap, level int, win Range) {
		t.Helper()
		var wantLo, wantHi ID
		wantOK := false
		for _, r := range cover {
			if !r.Overlaps(win) {
				continue
			}
			if !wantOK {
				wantLo = max(r.Start, win.Start)
			}
			wantHi, wantOK = min(r.End, win.End), true
		}
		lo, hi, ok := CapBoundsIn(c, level, win)
		if ok != wantOK || (ok && (lo != wantLo || hi != wantHi)) {
			t.Fatalf("cap %v level %d win [%d, %d]: got [%d, %d] %v, clipped cover [%d, %d] %v",
				c, level, win.Start, win.End, lo, hi, ok, wantLo, wantHi, wantOK)
		}
	}
	rng := rand.New(rand.NewSource(43))
	windows := func(c geom.Cap, level int) {
		cover = CoverCap(c, level)
		first, last := cover[0], cover[len(cover)-1]
		all := FaceID(0).RangeAtLevel(level).Start
		check(c, level, Range{Start: all, End: FaceID(7).RangeAtLevel(level).End})
		check(c, level, Range{Start: first.Start, End: first.Start})
		check(c, level, Range{Start: all, End: first.End})
		check(c, level, Range{Start: last.Start, End: last.End + 1000})
		check(c, level, Range{Start: last.End + 1, End: last.End + 1000})
		for k := 0; k+1 < len(cover) && k < 8; k++ {
			a, b := cover[k].End, cover[k+1].Start // b > a+1: the cover is merged
			check(c, level, Range{Start: a + 1, End: b - 1})
			check(c, level, Range{Start: a, End: b - 1})
			check(c, level, Range{Start: a + 1 + ID(rng.Int63n(int64(b-a-1))), End: b + ID(rng.Int63n(50))})
		}
		for k := 0; k < 4; k++ {
			s := first.Start + ID(rng.Int63n(int64(last.End-first.Start)+1))
			check(c, level, Range{Start: s, End: s + ID(rng.Int63n(1<<uint(rng.Intn(30))))})
		}
	}
	for i := 0; i < 3000; i++ {
		center := geom.FromRaDec(rng.Float64()*360, math.Asin(rng.Float64()*2-1)*180/math.Pi)
		windows(geom.NewCap(center, geom.ArcsecToRad(0.1*math.Pow(36000, rng.Float64()))), PaperLevel)
	}
	// Caps on the coarsest ID boundaries, whose covers' ends lie whole
	// faces apart.
	for i := 0; i < 8; i++ {
		tri := FaceTriangle(i)
		for _, p := range []geom.Vec3{tri.V0, tri.V0.Mid(tri.V1), tri.V1.Mid(tri.V2), tri.V2.Mid(tri.V0)} {
			for _, r := range []float64{geom.ArcsecToRad(0.5), geom.ArcsecToRad(5), geom.Radians(0.05)} {
				windows(geom.NewCap(p, r), PaperLevel)
				off := geom.ArcsecToRad(3 * rng.Float64())
				q := p.Add(geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}.Scale(off)).Normalize()
				windows(geom.NewCap(q, r), PaperLevel)
			}
		}
	}
	for i := 0; i < 200; i++ {
		center := geom.FromRaDec(rng.Float64()*360, math.Asin(rng.Float64()*2-1)*180/math.Pi)
		windows(geom.NewCap(center, 0.01+rng.Float64()*math.Pi), rng.Intn(7))
	}
}

func TestCapBoundsPanicsOnBadLevel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("level beyond MaxLevel should panic like CoverCap")
		}
	}()
	CapBounds(geom.NewCap(geom.Vec3{Z: 1}, 0.1), MaxLevel+1)
}

// TestCapBoundsOfDegenerateCapIsEmpty: a cap whose centre is no point of the
// sphere — the origin, NaN or infinite coordinates — or whose radius is NaN
// has an empty cover, found at once. Every geometric test against one is
// undecided, so a descent used to visit every trixel down to the target
// level: at level 14, longer than any caller waits.
func TestCapBoundsOfDegenerateCapIsEmpty(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	caps := map[string]geom.Cap{
		"origin":      geom.NewCap(geom.Vec3{}, 1e-5),
		"NaN centre":  geom.NewCap(geom.Vec3{X: nan, Y: 0.6, Z: 0.8}, 1e-5),
		"inf centre":  geom.NewCap(geom.Vec3{X: inf}, 1e-5),
		"off-sphere":  {Center: geom.Vec3{X: 2}, CosR: math.Cos(1e-5)},
		"NaN radius":  geom.NewCap(geom.Vec3{Z: 1}, nan),
		"zero centre": {CosR: 1},
	}
	for name, c := range caps {
		done := make(chan struct{})
		go func() {
			defer close(done)
			if lo, hi, ok := CapBounds(c, PaperLevel); ok {
				t.Errorf("%s: CapBounds = [%d, %d], want an empty cover", name, lo, hi)
			}
			if cover := CoverCap(c, PaperLevel); len(cover) != 0 {
				t.Errorf("%s: CoverCap = %v, want empty", name, cover)
			}
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: no cover within 10 s", name)
		}
	}
}

// refCapBounds is CapBoundsIn as it was before the walk learned to tell
// children apart by their edges' planes: every child pays CapRelation. Kept
// as the reference the plane tests must agree with, bit for bit.
type refCapBounds struct {
	c      geom.Cap
	win    Range
	lo, hi ID
	ok     bool
}

func refCapBoundsIn(c geom.Cap, level int, win Range) (lo, hi ID, ok bool) {
	b := refCapBounds{c: c, win: win}
	for i := 0; i < 8; i++ {
		b.walk(FaceID(i), FaceTriangle(i), 2*uint(level))
	}
	return b.lo, b.hi, b.ok
}

func (b *refCapBounds) walk(id ID, tri geom.Triangle, shift uint) {
	start, end := id<<shift, (id+1)<<shift-1
	if end < b.win.Start || start > b.win.End {
		return
	}
	start, end = max(start, b.win.Start), min(end, b.win.End)
	if b.ok && start >= b.lo && end <= b.hi {
		return
	}
	rel := tri.CapRelation(b.c)
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
	w0 := tri.V1.Mid(tri.V2)
	w1 := tri.V0.Mid(tri.V2)
	w2 := tri.V0.Mid(tri.V1)
	b.walk(id<<2, geom.Triangle{V0: tri.V0, V1: w2, V2: w1}, shift-2)
	b.walk(id<<2|1, geom.Triangle{V0: tri.V1, V1: w0, V2: w2}, shift-2)
	b.walk(id<<2|2, geom.Triangle{V0: tri.V2, V1: w1, V2: w0}, shift-2)
	b.walk(id<<2|3, geom.Triangle{V0: w0, V1: w1, V2: w2}, shift-2)
}

// TestCapBoundsMatchReferenceWalk holds the walk that skips children by
// their edges' planes to the one that asks CapRelation about every child, on
// over 10^5 seeded caps: cross-match error circles (5") and region-sized
// caps (30 degrees) anywhere, caps on and a hair off the poles, the
// octahedron's vertices and edges (whose covers straddle root trixels),
// radii and offsets around capMargin and the 60-degree cut-over, other
// levels, and windows clipped around, between and inside the cover's ends.
func TestCapBoundsMatchReferenceWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	caps := 0
	check := func(c geom.Cap, level int, win Range) {
		t.Helper()
		lo, hi, ok := CapBoundsIn(c, level, win)
		wantLo, wantHi, wantOK := refCapBoundsIn(c, level, win)
		if ok != wantOK || lo != wantLo || hi != wantHi {
			t.Fatalf("cap %v (radius %g) level %d win [%d, %d]: got [%d, %d] %v, reference [%d, %d] %v",
				c, c.Radius(), level, win.Start, win.End, lo, hi, ok, wantLo, wantHi, wantOK)
		}
	}
	everything := Range{Start: 0, End: ^ID(0)}
	// whole checks c unclipped and, one time in four, through windows placed
	// against its bounds.
	whole := func(c geom.Cap, level int) {
		t.Helper()
		caps++
		check(c, level, everything)
		if caps%4 != 0 {
			return
		}
		lo, hi, ok := refCapBoundsIn(c, level, everything)
		if !ok {
			return
		}
		span := int64(hi-lo) + 1
		check(c, level, Range{Start: lo, End: lo})
		check(c, level, Range{Start: hi, End: hi + 1000})
		check(c, level, Range{Start: hi + 1, End: hi + 1000})
		check(c, level, Range{Start: lo + 1, End: hi - 1}) // empty when lo == hi
		for k := 0; k < 3; k++ {
			s := lo + ID(rng.Int63n(span))
			check(c, level, Range{Start: s, End: s + ID(rng.Int63n(1<<uint(rng.Intn(31))))})
		}
	}
	anywhere := func() geom.Vec3 {
		return geom.FromRaDec(rng.Float64()*360, math.Asin(rng.Float64()*2-1)*180/math.Pi)
	}
	jitter := func(p geom.Vec3, off float64) geom.Vec3 {
		return p.Add(geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}.Scale(off)).Normalize()
	}
	arc5, deg30 := geom.ArcsecToRad(5), geom.Radians(30)

	for i := 0; i < 60000; i++ {
		whole(geom.NewCap(anywhere(), arc5), PaperLevel)
	}
	// A 30-degree cap's walk to level 14 follows its rim for milliseconds,
	// so most of them stop at level 8.
	for i := 0; i < 1000; i++ {
		level := 8
		if i%40 == 0 {
			level = PaperLevel
		}
		whole(geom.NewCap(anywhere(), deg30), level)
	}
	// Radii log-uniform from a hundredth of an arcsecond to a degree, which
	// crosses capMargin (2") and every trixel size from level 14 to level 7.
	for i := 0; i < 20000; i++ {
		whole(geom.NewCap(anywhere(), geom.ArcsecToRad(0.01*math.Pow(3.6e5, rng.Float64()))), PaperLevel)
	}
	// On the octahedron's edges: a point anywhere along each of the twelve,
	// the vertices (poles included) at its ends, and the same a hair off —
	// offsets log-uniform from 0.01" to 100", on both sides of capMargin.
	for i := 0; i < 8; i++ {
		tri := FaceTriangle(i)
		for _, e := range [][2]geom.Vec3{{tri.V0, tri.V1}, {tri.V1, tri.V2}, {tri.V2, tri.V0}} {
			for k := 0; k < 250; k++ {
				p := e[0]
				if k%10 != 0 {
					a := rng.Float64() * math.Pi / 2
					p = e[0].Scale(math.Cos(a)).Add(e[1].Scale(math.Sin(a)))
				}
				for _, r := range []float64{0, arc5, geom.ArcsecToRad(2), deg30} {
					level := PaperLevel
					if r == deg30 && k != 0 {
						if k%25 != 0 {
							continue
						}
						level = 8
					}
					whole(geom.NewCap(p, r), level)
					whole(geom.NewCap(jitter(p, geom.ArcsecToRad(0.01*math.Pow(1e4, rng.Float64()))), r), level)
				}
			}
		}
	}
	// Around the cut-over to CapRelation alone, and beyond the hemisphere.
	for i := 0; i < 300; i++ {
		whole(geom.NewCap(anywhere(), geom.Radians(60+rng.NormFloat64()*1e-3)), 6)
		whole(geom.NewCap(anywhere(), rng.Float64()*math.Pi), rng.Intn(8))
	}
	whole(geom.Cap{Center: geom.Vec3{Z: 1}, CosR: 0.5}, 6)
	// Deeper than the paper's level, where an edge is a few capMargins long.
	for i := 0; i < 3000; i++ {
		whole(geom.NewCap(anywhere(), geom.ArcsecToRad(0.01*math.Pow(1e3, rng.Float64()))), 15+rng.Intn(MaxLevel-14))
	}
	if caps < 100000 {
		t.Fatalf("only %d caps compared", caps)
	}
}

// refSubTriangle, refLookup and refLookupIn are the descent as it was
// before each level's midpoints were taken once: every child tried pays for
// all three of its parent's edge midpoints, and refLookupIn re-derives
// base's triangle from the octahedron face. Kept as the reference the
// hoisted descent must agree with, bit for bit.
func refSubTriangle(tri geom.Triangle, i int) geom.Triangle {
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

func refTriangle(id ID) geom.Triangle {
	tri := FaceTriangle(id.FaceIndex())
	for l := id.Level() - 1; l >= 0; l-- {
		tri = refSubTriangle(tri, int(id>>(2*uint(l)))&3)
	}
	return tri
}

func refDescend(id ID, tri geom.Triangle, v geom.Vec3, from, level int) ID {
	for l := from; l < level; l++ {
		placed := false
		for c := 0; c < 4; c++ {
			sub := refSubTriangle(tri, c)
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
				d := refSubTriangle(tri, c).Center().Dot(v)
				if d > bestDot {
					best, bestDot = c, d
				}
			}
			id = id<<2 | ID(best)
			tri = refSubTriangle(tri, best)
		}
	}
	return id
}

func refLookup(v geom.Vec3, level int) ID {
	v = v.Normalize()
	face := -1
	for i := 0; i < 8; i++ {
		if FaceTriangle(i).Contains(v) {
			face = i
			break
		}
	}
	if face < 0 {
		best, bestDot := 0, -2.0
		for i := 0; i < 8; i++ {
			if d := FaceTriangle(i).Center().Dot(v); d > bestDot {
				best, bestDot = i, d
			}
		}
		face = best
	}
	return refDescend(FaceID(face), FaceTriangle(face), v, 0, level)
}

func refLookupIn(base ID, v geom.Vec3, level int) ID {
	return refDescend(base, refTriangle(base), v.Normalize(), base.Level(), level)
}

// TestDescentMatchesPerChildReference holds LookupIn, Lookup
// and ID.Triangle to the per-child descent they replace, on random points,
// on the vertices, edge midpoints and edges of trixels at levels 5 to 14
// (where the lowest-numbered-child rule decides), and on points a hair
// outside base, which no child contains and the descent snaps to the nearest
// one. Where base is the trixel Lookup finds at its level, the descent from
// base is Lookup's.
func TestDescentMatchesPerChildReference(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	checks, snapped := 0, 0
	check := func(base ID, v geom.Vec3, level int) {
		t.Helper()
		checks++
		tri := base.Triangle()
		if want := refTriangle(base); tri != want {
			t.Fatalf("%s.Triangle() = %v, reference %v", base, tri, want)
		}
		want := refLookupIn(base, v, level)
		if got := LookupIn(base, tri, v, level); got != want {
			t.Fatalf("LookupIn(%s, %v, %d) = %s, reference %s", base, v, level, got, want)
		}
		full := Lookup(v, level)
		if wantFull := refLookup(v, level); full != wantFull {
			t.Fatalf("Lookup(%v, %d) = %s, reference %s", v, level, full, wantFull)
		}
		if Lookup(v, base.Level()) == base && full != want {
			t.Fatalf("descent from %s = %s, Lookup from the faces = %s", base, want, full)
		}
		if !tri.Contains(v.Normalize()) {
			snapped++
		}
	}
	randomPoint := func() geom.Vec3 {
		return geom.FromRaDec(rng.Float64()*360, math.Asin(rng.Float64()*2-1)*180/math.Pi)
	}
	for i := 0; i < 4000; i++ {
		v := randomPoint()
		baseLevel := rng.Intn(9)
		check(Lookup(v, baseLevel), v, PaperLevel)
		if i%8 == 0 {
			check(Lookup(v, baseLevel), v, baseLevel+rng.Intn(MaxLevel-baseLevel+1))
		}
	}
	for level := 5; level <= PaperLevel; level++ {
		for i := 0; i < 40; i++ {
			id := Lookup(randomPoint(), level)
			tri := id.Triangle()
			pts := []geom.Vec3{
				tri.V0, tri.V1, tri.V2,
				tri.V0.Mid(tri.V1), tri.V1.Mid(tri.V2), tri.V2.Mid(tri.V0),
			}
			for _, e := range [][2]geom.Vec3{{tri.V0, tri.V1}, {tri.V1, tri.V2}, {tri.V2, tri.V0}} {
				f := rng.Float64()
				pts = append(pts, e[0].Scale(1-f).Add(e[1].Scale(f)).Normalize())
			}
			for _, p := range pts {
				for _, baseLevel := range []int{0, rng.Intn(level + 1), level} {
					check(id.AncestorAtLevel(baseLevel), p, PaperLevel)
				}
			}
		}
	}
	for i := 0; i < 400; i++ {
		baseLevel := 5 + rng.Intn(6)
		base := Lookup(randomPoint(), baseLevel)
		tri := base.Triangle()
		edges := [3][2]geom.Vec3{{tri.V0, tri.V1}, {tri.V1, tri.V2}, {tri.V2, tri.V0}}
		e := edges[rng.Intn(3)]
		f := rng.Float64()
		onEdge := e[0].Scale(1 - f).Add(e[1].Scale(f)).Normalize()
		// The edge plane's normal points into base: step against it.
		out := e[0].Cross(e[1]).Normalize()
		for _, step := range []float64{1e-13, 1e-11, 1e-9, 1e-7} {
			check(base, onEdge.Sub(out.Scale(step)).Normalize(), PaperLevel)
		}
	}
	if snapped == 0 {
		t.Fatalf("%d checks, none outside base: the snap path went untested", checks)
	}
	t.Logf("%d checks, %d of them outside base", checks, snapped)
}

// BenchmarkLookupIn is the per-object cost of keying a catalog object: the
// level-5 to level-14 descent from a coarse trixel whose triangle the
// caller holds, over 4 096 random points.
func BenchmarkLookupIn(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	type point struct {
		base ID
		tri  geom.Triangle
		v    geom.Vec3
	}
	pts := make([]point, 4096)
	for i := range pts {
		v := geom.FromRaDec(rng.Float64()*360, math.Asin(rng.Float64()*2-1)*180/math.Pi)
		base := Lookup(v, 5)
		pts[i] = point{base, base.Triangle(), v}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &pts[i%len(pts)]
		LookupIn(p.base, p.tri, p.v, PaperLevel)
	}
}
