// Package catalog provides deterministic, seeded synthetic sky catalogs
// that stand in for the SDSS, 2MASS, and USNO-B archives of the paper's
// evaluation. A catalog is defined by a total object count spread evenly
// over the sphere; objects are materialized lazily, one coarse
// trixel at a time, so a 200-million-object archive occupies no resident
// memory until buckets are read. Materialization is a pure function of
// (catalog seed, trixel), so repeated reads return identical objects —
// the property the bucket store and cache rely on.
//
// Objects are globally ordered along the HTM space-filling curve (by
// level-14 ID, ties broken by object ID), which is the ordering LifeRaft's
// equal-sized bucket partitioning assumes (paper §3.1).
package catalog

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"liferaft/internal/geom"
	"liferaft/internal/htm"
)

// Object is one catalog observation: the unit of cross-matching.
type Object struct {
	// ID is the object's unique identifier within its catalog.
	ID uint64
	// HTMID is the level-14 trixel containing the object, the paper's
	// 32-bit spatial key.
	HTMID htm.ID
	// Pos is the object's unit position vector (mean cartesian
	// coordinates in the paper's terms).
	Pos geom.Vec3
	// Mag is a synthetic magnitude used by query-specific predicates.
	Mag float64
}

// Config describes a synthetic catalog.
type Config struct {
	// Name identifies the archive (e.g. "sdss").
	Name string
	// N is the total number of objects.
	N int
	// Seed makes generation deterministic.
	Seed int64
	// GenLevel is the coarse trixel level at which objects are counted
	// and materialized. Depth 6 (32k trixels) suits tests; depth 8
	// (524k trixels) matches the resolution needed for 20,000 buckets.
	GenLevel int
	// CacheTrixels memoizes materialized trixels. Generation is
	// deterministic either way; memoization only trades memory for the
	// wall-clock cost of regenerating, which experiment harnesses that
	// replay the same trace thousands of times want. Leave false for
	// paper-scale catalogs that must stay out of memory.
	CacheTrixels bool
}

// Catalog is a lazily-materialized synthetic archive. It is safe for
// concurrent use.
type Catalog struct {
	cfg    Config
	counts []int32 // objects per GenLevel trixel
	cum    []int64 // cum[i] = sum of counts[0:i]; len = trixels+1

	mu   sync.Mutex
	memo map[uint64]*memoTrixel

	// derive is non-nil for catalogs built by NewDerived.
	derive *derivation
}

// New builds a catalog: its cfg.N objects are spread evenly over the
// GenLevel trixels, N/n each plus one more in each of the first N mod n
// (n = 8·4^GenLevel), so Total() == cfg.N exactly.
func New(cfg Config) (*Catalog, error) {
	if cfg.N < 0 {
		return nil, fmt.Errorf("catalog %q: negative N %d", cfg.Name, cfg.N)
	}
	if cfg.GenLevel < 0 || cfg.GenLevel > 10 {
		return nil, fmt.Errorf("catalog %q: GenLevel %d out of [0,10]", cfg.Name, cfg.GenLevel)
	}
	if cfg.GenLevel >= htm.PaperLevel {
		return nil, fmt.Errorf("catalog %q: GenLevel %d must be above object level %d",
			cfg.Name, cfg.GenLevel, htm.PaperLevel)
	}
	n := htm.NumTrixels(cfg.GenLevel)
	c := &Catalog{cfg: cfg, counts: make([]int32, n), cum: make([]int64, n+1)}
	if cfg.CacheTrixels {
		c.memo = make(map[uint64]*memoTrixel)
	}
	each, extra := uint64(cfg.N)/n, uint64(cfg.N)%n
	for pos := range c.counts {
		c.counts[pos] = int32(each)
		if uint64(pos) < extra {
			c.counts[pos]++
		}
		c.cum[pos+1] = c.cum[pos] + int64(c.counts[pos])
	}
	return c, nil
}

// Name returns the catalog's archive name.
func (c *Catalog) Name() string { return c.cfg.Name }

// Total returns the exact total number of objects.
func (c *Catalog) Total() int { return c.cfg.N }

// GenLevel returns the coarse materialization level.
func (c *Catalog) GenLevel() int { return c.cfg.GenLevel }

// Seed returns the generation seed. Together with Name, Total, and
// GenLevel it identifies a base survey's content exactly (derived
// catalogs additionally depend on their base); the segment store
// records it so tools can re-synthesize the catalog a store was built
// from.
func (c *Catalog) Seed() int64 { return c.cfg.Seed }

// Derived reports whether the catalog was built by NewDerived (its
// content depends on a base survey, not on Seed alone).
func (c *Catalog) Derived() bool { return c.derive != nil }

// TrixelCount returns the number of objects in GenLevel trixel pos.
func (c *Catalog) TrixelCount(pos uint64) int { return int(c.counts[pos]) }

// CumBefore returns the number of objects in trixels [0, pos), i.e. the
// global ordinal of the first object of trixel pos.
func (c *Catalog) CumBefore(pos uint64) int64 { return c.cum[pos] }

// TrixelOf returns the GenLevel trixel position containing global object
// ordinal ord in [0, Total()).
func (c *Catalog) TrixelOf(ord int64) uint64 {
	if ord < 0 || ord >= int64(c.cfg.N) {
		panic(fmt.Sprintf("catalog: ordinal %d out of range", ord))
	}
	// First pos with cum[pos+1] > ord.
	return uint64(sort.Search(len(c.counts), func(i int) bool { return c.cum[i+1] > ord }))
}

// rngPool recycles the per-trixel generators: a rand.NewSource is 4.9 KB of
// state, and a catalog synthesizes thousands of trixels.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// seeded returns a pooled generator reseeded to produce exactly the stream
// of rand.New(rand.NewSource(seed)); the caller puts it back in rngPool.
func seeded(seed int64) *rand.Rand {
	rng := rngPool.Get().(*rand.Rand)
	rng.Seed(seed)
	return rng
}

// memoTrixel is one memoized trixel. Goroutines that ask for it at once
// (two buckets sharing the trixel, materialized side by side) wait on the
// one synthesis instead of each paying for it.
type memoTrixel struct {
	once sync.Once
	objs []Object
}

// TrixelObjects materializes the objects of GenLevel trixel pos, sorted by
// (level-14 HTM ID, object ID). The result is a pure function of the
// catalog seed and pos.
func (c *Catalog) TrixelObjects(pos uint64) []Object {
	if c.counts[pos] == 0 {
		return nil
	}
	if c.memo == nil {
		return c.synthesize(pos)
	}
	c.mu.Lock()
	m := c.memo[pos]
	if m == nil {
		m = new(memoTrixel)
		c.memo[pos] = m
	}
	c.mu.Unlock()
	m.once.Do(func() { m.objs = c.synthesize(pos) })
	return m.objs
}

// synthesize generates the objects of trixel pos, which holds at least one.
func (c *Catalog) synthesize(pos uint64) []Object {
	if c.derive != nil {
		return c.deriveTrixel(pos)
	}
	n := int(c.counts[pos])
	base := htm.FromPos(pos, c.cfg.GenLevel)
	tri := base.Triangle()
	rng := seeded(c.cfg.Seed ^ int64(pos*0x9E3779B97F4A7C15))
	defer rngPool.Put(rng)
	objs := make([]Object, n)
	for i := 0; i < n; i++ {
		p := samplePointInTriangle(rng, tri)
		objs[i] = Object{
			Pos: p,
			Mag: 14 + rng.Float64()*10, // synthetic magnitude in [14, 24)
		}
	}
	for i := range objs {
		objs[i].HTMID = htm.LookupIn(base, tri, objs[i].Pos, htm.PaperLevel)
	}
	sort.Slice(objs, func(a, b int) bool { return objs[a].HTMID < objs[b].HTMID })
	start := uint64(c.cum[pos])
	for i := range objs {
		objs[i].ID = start + uint64(i)
	}
	return objs
}

// DerivedConfig describes a catalog derived from a base survey: the same
// sky objects re-observed by a different instrument. Cross-matching is
// only meaningful between correlated catalogs — 2MASS and SDSS see the
// same stars with independent positional errors — so experiment fixtures
// build the remote archives this way.
type DerivedConfig struct {
	// Name identifies the derived archive.
	Name string
	// Seed drives the subsampling and jitter, independent of the base.
	Seed int64
	// Fraction of base objects re-observed, in (0, 1].
	Fraction float64
	// JitterRad is the 1-sigma positional error in radians
	// (arcseconds in practice).
	JitterRad float64
	// CacheTrixels memoizes materialized trixels, as in Config.
	CacheTrixels bool
}

// NewDerived builds a catalog whose objects are a deterministic subsample
// of base's objects with Gaussian positional jitter. Derived objects stay
// within their base GenLevel trixel (jitter is re-drawn smaller in the
// rare boundary case), preserving the curve-order invariants.
func NewDerived(base *Catalog, cfg DerivedConfig) (*Catalog, error) {
	if cfg.Fraction <= 0 || cfg.Fraction > 1 {
		return nil, fmt.Errorf("catalog %q: Fraction %v out of (0,1]", cfg.Name, cfg.Fraction)
	}
	if cfg.JitterRad < 0 {
		return nil, fmt.Errorf("catalog %q: negative jitter", cfg.Name)
	}
	n := htm.NumTrixels(base.cfg.GenLevel)
	c := &Catalog{
		cfg: Config{
			Name:         cfg.Name,
			Seed:         cfg.Seed,
			GenLevel:     base.cfg.GenLevel,
			CacheTrixels: cfg.CacheTrixels,
		},
		counts: make([]int32, n),
		cum:    make([]int64, n+1),
		derive: &derivation{base: base, cfg: cfg},
	}
	if cfg.CacheTrixels {
		c.memo = make(map[uint64]*memoTrixel)
	}
	total := 0
	for pos := uint64(0); pos < n; pos++ {
		cnt := 0
		for i := 0; i < int(base.counts[pos]); i++ {
			if Keep(cfg.Seed, pos, uint64(i), cfg.Fraction) {
				cnt++
			}
		}
		c.counts[pos] = int32(cnt)
		total += cnt
	}
	c.cfg.N = total
	for i, cnt := range c.counts {
		c.cum[i+1] = c.cum[i] + int64(cnt)
	}
	return c, nil
}

// derivation stores the provenance of a derived catalog.
type derivation struct {
	base *Catalog
	cfg  DerivedConfig
}

// Keep is a deterministic Bernoulli(p) draw keyed by (seed, a, b): it
// hashes the three with splitmix64 and keeps when the top 53 bits, read
// as a fraction, fall below p. A derived catalog keys it by (trixel, base
// object index) to decide re-observation; query subsampling keys it by
// (query ID, object ID), so repeated materialization is identical.
func Keep(seed int64, a, b uint64, p float64) bool {
	x := uint64(seed) ^ a*0x9E3779B97F4A7C15 ^ b*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11)/float64(1<<53) < p
}

// deriveTrixel materializes a derived trixel from its base.
func (c *Catalog) deriveTrixel(pos uint64) []Object {
	d := c.derive
	baseObjs := d.base.TrixelObjects(pos)
	if len(baseObjs) == 0 {
		return nil
	}
	baseTrixel := htm.FromPos(pos, c.cfg.GenLevel)
	tri := baseTrixel.Triangle()
	rng := seeded(d.cfg.Seed ^ int64(pos*0x94D049BB133111EB))
	defer rngPool.Put(rng)
	out := make([]Object, 0, int(c.counts[pos]))
	for i, o := range baseObjs {
		if !Keep(d.cfg.Seed, pos, uint64(i), d.cfg.Fraction) {
			continue
		}
		p := o.Pos
		sigma := d.cfg.JitterRad
		for try := 0; try < 4 && sigma > 0; try++ {
			cand := p.Add(geom.Vec3{
				X: rng.NormFloat64() * sigma,
				Y: rng.NormFloat64() * sigma,
				Z: rng.NormFloat64() * sigma,
			}).Normalize()
			if tri.Contains(cand) {
				p = cand
				break
			}
			sigma /= 2 // boundary object: damp the jitter and retry
		}
		out = append(out, Object{
			Pos: p,
			Mag: 14 + rng.Float64()*10,
		})
	}
	for i := range out {
		out[i].HTMID = htm.LookupIn(baseTrixel, tri, out[i].Pos, htm.PaperLevel)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].HTMID < out[b].HTMID })
	start := uint64(c.cum[pos])
	for i := range out {
		out[i].ID = start + uint64(i)
	}
	return out
}

// samplePointInTriangle draws a point approximately uniformly within a
// small spherical triangle using barycentric folding on the chord triangle
// followed by projection to the sphere.
func samplePointInTriangle(rng *rand.Rand, tri geom.Triangle) geom.Vec3 {
	u, v := rng.Float64(), rng.Float64()
	if u+v > 1 {
		u, v = 1-u, 1-v
	}
	return tri.V0.Scale(1 - u - v).Add(tri.V1.Scale(u)).Add(tri.V2.Scale(v)).Normalize()
}

// Objects materializes the global ordinal range [lo, hi), in curve order.
// It spans trixel boundaries as needed. Callers that read entire buckets
// use this: a bucket is exactly such a range.
func (c *Catalog) Objects(lo, hi int64) []Object {
	if lo < 0 || hi > int64(c.cfg.N) || lo > hi {
		panic(fmt.Sprintf("catalog: range [%d,%d) out of [0,%d]", lo, hi, c.cfg.N))
	}
	if lo == hi {
		return nil
	}
	out := make([]Object, 0, hi-lo)
	pos := c.TrixelOf(lo)
	for int64(len(out)) < hi-lo {
		objs := c.TrixelObjects(pos)
		tStart := c.cum[pos]
		from := int64(0)
		if lo > tStart {
			from = lo - tStart
		}
		to := int64(len(objs))
		if hi < tStart+to {
			to = hi - tStart
		}
		out = append(out, objs[from:to]...)
		pos++
	}
	return out
}

// InCap materializes all objects whose position lies within the cap. It
// walks the GenLevel trixels covering the cap and filters. This is how a
// remote archive computes the object list it ships to the next site in a
// cross-match plan.
func (c *Catalog) InCap(cp geom.Cap) []Object {
	return c.AppendInCap(nil, cp)
}

// coverPool recycles the trixel covers AppendInCap walks: a 15-degree cap
// is covered by hundreds of ranges, none of which outlives the call.
var coverPool = sync.Pool{New: func() any { return new([]htm.Range) }}

// AppendInCap is InCap appending to a caller-provided buffer (normally
// dst[:0] of a reused slice), for a caller that goes on to filter or
// convert the objects and so has no use for a slice of its own per call.
func (c *Catalog) AppendInCap(dst []Object, cp geom.Cap) []Object {
	scratch := coverPool.Get().(*[]htm.Range)
	cover := htm.CoverCapInto(*scratch, cp, c.cfg.GenLevel)
	out := dst
	for _, r := range cover {
		for pos := r.Start.Pos(); pos <= r.End.Pos(); pos++ {
			if c.counts[pos] == 0 {
				continue
			}
			for _, o := range c.TrixelObjects(pos) {
				if cp.Contains(o.Pos) {
					out = append(out, o)
				}
			}
		}
	}
	*scratch = cover
	coverPool.Put(scratch)
	return out
}
