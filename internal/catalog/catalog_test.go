package catalog

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"liferaft/internal/geom"
	"liferaft/internal/htm"
)

func mustNew(t *testing.T, cfg Config) *Catalog {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{N: -1, GenLevel: 4}); err == nil {
		t.Error("negative N should fail")
	}
	if _, err := New(Config{N: 10, GenLevel: -1}); err == nil {
		t.Error("negative GenLevel should fail")
	}
	if _, err := New(Config{N: 10, GenLevel: 14}); err == nil {
		t.Error("GenLevel at object level should fail")
	}
	if _, err := New(Config{N: 10, GenLevel: 11}); err == nil {
		t.Error("GenLevel above 10 should fail")
	}
	bad := func(geom.Vec3) float64 { return math.NaN() }
	if _, err := New(Config{N: 10, GenLevel: 3, Density: bad}); err == nil {
		t.Error("NaN density should fail")
	}
	neg := func(geom.Vec3) float64 { return -1 }
	if _, err := New(Config{N: 10, GenLevel: 3, Density: neg}); err == nil {
		t.Error("negative density should fail")
	}
}

func TestExactTotal(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000, 123457} {
		c := mustNew(t, Config{Name: "t", N: n, Seed: 5, GenLevel: 4})
		var sum int64
		for pos := uint64(0); pos < htm.NumTrixels(4); pos++ {
			sum += int64(c.TrixelCount(pos))
		}
		if sum != int64(n) {
			t.Errorf("N=%d: counts sum to %d", n, sum)
		}
		if c.Total() != n {
			t.Errorf("Total = %d", c.Total())
		}
	}
}

func TestCumConsistency(t *testing.T) {
	c := mustNew(t, Config{Name: "t", N: 5000, Seed: 9, GenLevel: 3})
	var run int64
	for pos := uint64(0); pos < htm.NumTrixels(3); pos++ {
		if c.CumBefore(pos) != run {
			t.Fatalf("CumBefore(%d) = %d, want %d", pos, c.CumBefore(pos), run)
		}
		run += int64(c.TrixelCount(pos))
	}
}

func TestTrixelOf(t *testing.T) {
	c := mustNew(t, Config{Name: "t", N: 1000, Seed: 2, GenLevel: 3})
	for ord := int64(0); ord < 1000; ord += 37 {
		pos := c.TrixelOf(ord)
		if ord < c.CumBefore(pos) || ord >= c.CumBefore(pos)+int64(c.TrixelCount(pos)) {
			t.Fatalf("TrixelOf(%d) = %d: ordinal outside trixel", ord, pos)
		}
	}
}

func TestTrixelOfPanics(t *testing.T) {
	c := mustNew(t, Config{Name: "t", N: 10, Seed: 2, GenLevel: 2})
	defer func() {
		if recover() == nil {
			t.Error("out-of-range ordinal should panic")
		}
	}()
	c.TrixelOf(10)
}

func TestMaterializationDeterministic(t *testing.T) {
	c := mustNew(t, Config{Name: "t", N: 20000, Seed: 77, GenLevel: 4})
	var pos uint64
	for p := uint64(0); p < htm.NumTrixels(4); p++ {
		if c.TrixelCount(p) > 0 {
			pos = p
			break
		}
	}
	a := c.TrixelObjects(pos)
	b := c.TrixelObjects(pos)
	if len(a) == 0 {
		t.Fatal("no objects materialized")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("materialization not deterministic at %d", i)
		}
	}
}

func TestObjectsSortedAndContained(t *testing.T) {
	c := mustNew(t, Config{Name: "t", N: 50000, Seed: 4, GenLevel: 4})
	checked := 0
	for pos := uint64(0); pos < htm.NumTrixels(4) && checked < 5; pos++ {
		objs := c.TrixelObjects(pos)
		if len(objs) < 2 {
			continue
		}
		checked++
		base := htm.FromPos(pos, 4)
		tr := base.Triangle()
		for i, o := range objs {
			if i > 0 && objs[i-1].HTMID > o.HTMID {
				t.Fatalf("trixel %d objects unsorted at %d", pos, i)
			}
			if !tr.Contains(o.Pos) {
				t.Fatalf("object %d escapes its trixel", i)
			}
			if o.HTMID.Level() != htm.PaperLevel {
				t.Fatalf("object HTM level = %d", o.HTMID.Level())
			}
			if !o.HTMID.Contains(o.Pos) {
				t.Fatalf("object HTMID does not contain its position")
			}
			if o.Mag < 14 || o.Mag >= 24 {
				t.Fatalf("magnitude %v out of range", o.Mag)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no trixel had 2+ objects")
	}
}

func TestObjectIDsGloballyUnique(t *testing.T) {
	c := mustNew(t, Config{Name: "t", N: 3000, Seed: 8, GenLevel: 2})
	seen := make(map[uint64]bool, 3000)
	for pos := uint64(0); pos < htm.NumTrixels(2); pos++ {
		for _, o := range c.TrixelObjects(pos) {
			if seen[o.ID] {
				t.Fatalf("duplicate object ID %d", o.ID)
			}
			seen[o.ID] = true
		}
	}
	if len(seen) != 3000 {
		t.Fatalf("materialized %d unique IDs, want 3000", len(seen))
	}
}

func TestObjectsRange(t *testing.T) {
	c := mustNew(t, Config{Name: "t", N: 4000, Seed: 3, GenLevel: 2})
	all := c.Objects(0, 4000)
	if len(all) != 4000 {
		t.Fatalf("Objects(0,N) returned %d", len(all))
	}
	// IDs are the global ordinals in order.
	for i, o := range all {
		if o.ID != uint64(i) {
			t.Fatalf("object %d has ID %d", i, o.ID)
		}
	}
	// A sub-range must equal the corresponding slice of the full range.
	sub := c.Objects(1234, 2345)
	for i, o := range sub {
		if o != all[1234+i] {
			t.Fatalf("sub-range mismatch at %d", i)
		}
	}
	if got := c.Objects(7, 7); len(got) != 0 {
		t.Error("empty range should return nothing")
	}
}

func TestObjectsRangePanics(t *testing.T) {
	c := mustNew(t, Config{Name: "t", N: 100, Seed: 3, GenLevel: 2})
	for _, r := range [][2]int64{{-1, 5}, {0, 101}, {50, 40}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Objects(%d,%d) should panic", r[0], r[1])
				}
			}()
			c.Objects(r[0], r[1])
		}()
	}
}

func TestInCap(t *testing.T) {
	c := mustNew(t, Config{Name: "t", N: 100000, Seed: 6, GenLevel: 5})
	cp := geom.NewCap(geom.FromRaDec(40, 10), geom.Radians(8))
	got := c.InCap(cp)
	if len(got) == 0 {
		t.Fatal("cap over a dense catalog returned no objects")
	}
	for _, o := range got {
		if !cp.Contains(o.Pos) {
			t.Fatal("InCap returned object outside cap")
		}
	}
	// Cross-check against brute force over the full catalog.
	want := 0
	for _, o := range c.Objects(0, int64(c.Total())) {
		if cp.Contains(o.Pos) {
			want++
		}
	}
	if len(got) != want {
		t.Errorf("InCap found %d, brute force %d", len(got), want)
	}
}

func TestDensityProfiles(t *testing.T) {
	pole := geom.Vec3{Z: 1}
	band := Band(pole, 10, 20)
	onPlane := band(geom.FromRaDec(30, 0))
	offPlane := band(geom.FromRaDec(30, 80))
	if onPlane <= offPlane {
		t.Errorf("band density on plane %v should exceed off-plane %v", onPlane, offPlane)
	}
	hs := Hotspots([]geom.Vec3{geom.FromRaDec(0, 0)}, 5, 50)
	if hs(geom.FromRaDec(0, 0)) <= hs(geom.FromRaDec(90, 0)) {
		t.Error("hotspot density should peak at center")
	}
	s := Sum(Uniform(), Uniform())
	if s(pole) != 2 {
		t.Errorf("Sum = %v", s(pole))
	}
	if Uniform()(pole) != 1 {
		t.Error("Uniform should be 1")
	}
}

func TestBandCatalogSkew(t *testing.T) {
	// A band catalog should concentrate objects near the plane.
	c := mustNew(t, Config{
		Name: "band", N: 50000, Seed: 12, GenLevel: 4,
		Density: Band(geom.Vec3{Z: 1}, 8, 30),
	})
	near, far := 0, 0
	for _, o := range c.Objects(0, 50000) {
		_, dec := geom.ToRaDec(o.Pos)
		if math.Abs(dec) < 10 {
			near++
		} else if math.Abs(dec) > 45 {
			far++
		}
	}
	// The near-plane belt (|dec|<10) is ~17% of the sky, the |dec|>45
	// polar caps ~29%; with contrast 30 the belt must dominate.
	if near < far {
		t.Errorf("band catalog not skewed: near=%d far=%d", near, far)
	}
}

func TestName(t *testing.T) {
	c := mustNew(t, Config{Name: "sdss", N: 10, Seed: 1, GenLevel: 2})
	if c.Name() != "sdss" || c.GenLevel() != 2 {
		t.Error("accessors")
	}
}

func TestDerivedValidation(t *testing.T) {
	base := mustNew(t, Config{Name: "b", N: 1000, Seed: 1, GenLevel: 3})
	if _, err := NewDerived(base, DerivedConfig{Fraction: 0}); err == nil {
		t.Error("zero fraction should fail")
	}
	if _, err := NewDerived(base, DerivedConfig{Fraction: 2}); err == nil {
		t.Error("fraction > 1 should fail")
	}
	if _, err := NewDerived(base, DerivedConfig{Fraction: 0.5, JitterRad: -1}); err == nil {
		t.Error("negative jitter should fail")
	}
}

func TestDerivedCatalogCorrelation(t *testing.T) {
	base := mustNew(t, Config{Name: "sdss", N: 30000, Seed: 5, GenLevel: 4, CacheTrixels: true})
	jitter := geom.ArcsecToRad(1.5)
	der, err := NewDerived(base, DerivedConfig{
		Name: "twomass", Seed: 77, Fraction: 0.4, JitterRad: jitter, CacheTrixels: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Size: ~40% of base.
	frac := float64(der.Total()) / float64(base.Total())
	if math.Abs(frac-0.4) > 0.03 {
		t.Errorf("derived fraction %.3f, want ~0.4", frac)
	}
	if der.Name() != "twomass" || der.GenLevel() != base.GenLevel() {
		t.Error("derived metadata")
	}
	// Counts sum to Total and cum is consistent.
	var sum int64
	for pos := uint64(0); pos < htm.NumTrixels(4); pos++ {
		if der.CumBefore(pos) != sum {
			t.Fatalf("cum mismatch at %d", pos)
		}
		sum += int64(der.TrixelCount(pos))
	}
	if sum != int64(der.Total()) {
		t.Fatalf("counts sum %d != total %d", sum, der.Total())
	}
	// Determinism.
	a := der.Objects(0, int64(der.Total()))
	b := der.Objects(0, int64(der.Total()))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("derived materialization not deterministic")
		}
	}
	// Correlation: most derived objects have a base object within a few
	// sigma; positions stay in their trixel; curve order holds.
	near := 0
	for pos := uint64(0); pos < htm.NumTrixels(4); pos++ {
		objs := der.TrixelObjects(pos)
		if len(objs) == 0 {
			continue
		}
		baseObjs := base.TrixelObjects(pos)
		tr := htm.FromPos(pos, 4).Triangle()
		prev := htm.ID(0)
		for _, o := range objs {
			if !tr.Contains(o.Pos) {
				t.Fatalf("derived object escaped trixel %d", pos)
			}
			if o.HTMID < prev {
				t.Fatalf("derived objects unsorted in trixel %d", pos)
			}
			prev = o.HTMID
			for _, bo := range baseObjs {
				if o.Pos.Angle(bo.Pos) < 4*geom.ArcsecToRad(1.5) {
					near++
					break
				}
			}
		}
	}
	if got := float64(near) / float64(der.Total()); got < 0.95 {
		t.Errorf("only %.2f of derived objects near a base object", got)
	}
}

// Property: every ordinal round-trips through TrixelOf + CumBefore.
func TestQuickOrdinalRoundTrip(t *testing.T) {
	c := mustNew(t, Config{Name: "t", N: 9999, Seed: 21, GenLevel: 3})
	f := func(x uint32) bool {
		ord := int64(x) % 9999
		pos := c.TrixelOf(ord)
		off := ord - c.CumBefore(pos)
		return off >= 0 && off < int64(c.TrixelCount(pos))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/trixel_checksums.golden from this build's catalogs")

// trixelChecksum folds every field of every object of a trixel, in order.
func trixelChecksum(objs []Object) uint64 {
	h := fnv.New64a()
	var b [48]byte
	for _, o := range objs {
		binary.LittleEndian.PutUint64(b[0:], o.ID)
		binary.LittleEndian.PutUint64(b[8:], uint64(o.HTMID))
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(o.Pos.X))
		binary.LittleEndian.PutUint64(b[24:], math.Float64bits(o.Pos.Y))
		binary.LittleEndian.PutUint64(b[32:], math.Float64bits(o.Pos.Z))
		binary.LittleEndian.PutUint64(b[40:], math.Float64bits(o.Mag))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestTrixelChecksumsMatchRecorded pins what a catalog seed means: the
// objects of every trixel of a small sdss and of the twomass and rosat
// derived from it hash to the values recorded (with -update) by the build
// that still made a fresh rand.NewSource per trixel. Four goroutines
// synthesize every trixel at once, with and without the memo, so under
// -race this is also the test that a reseeded, pooled generator is never
// shared between two callers.
func TestTrixelChecksumsMatchRecorded(t *testing.T) {
	const golden = "testdata/trixel_checksums.golden"
	build := func(cache bool) []*Catalog {
		base := mustNew(t, Config{Name: "sdss", N: 6000, Seed: 42, GenLevel: 2, CacheTrixels: cache})
		cats := []*Catalog{base}
		for _, d := range []DerivedConfig{
			{Name: "twomass", Seed: 43, Fraction: 0.8, JitterRad: geom.ArcsecToRad(1.5), CacheTrixels: cache},
			{Name: "rosat", Seed: 46, Fraction: 0.05, JitterRad: geom.ArcsecToRad(1.5), CacheTrixels: cache},
		} {
			c, err := NewDerived(base, d)
			if err != nil {
				t.Fatal(err)
			}
			cats = append(cats, c)
		}
		return cats
	}
	trixels := htm.NumTrixels(2)
	render := func(cats []*Catalog) string {
		var sb strings.Builder
		for _, c := range cats {
			for pos := uint64(0); pos < trixels; pos++ {
				fmt.Fprintf(&sb, "%s %d %d %016x\n", c.Name(), pos, c.TrixelCount(pos), trixelChecksum(c.TrixelObjects(pos)))
			}
		}
		return sb.String()
	}
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(render(build(false))), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	for _, cache := range []bool{false, true} {
		cats := build(cache)
		var wg sync.WaitGroup
		got := make([]string, 4)
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g] = render(cats)
			}()
		}
		wg.Wait()
		for g, s := range got {
			if s != string(want) {
				gl, wl := strings.Split(s, "\n"), strings.Split(string(want), "\n")
				for i := range wl {
					if i >= len(gl) || gl[i] != wl[i] {
						t.Fatalf("memo=%v goroutine %d: line %d is %q, recorded %q", cache, g, i, gl[min(i, len(gl)-1)], wl[i])
					}
				}
				t.Fatalf("memo=%v goroutine %d: %d lines, recorded %d", cache, g, len(gl), len(wl))
			}
		}
	}
}
