// Package workload synthesizes the SkyQuery query trace the paper
// evaluates against (§5.1): two thousand long-running cross-match
// queries whose data-access pattern matches the published web-log
// statistics — a small set of heavily reused sky regions (Figure 5: the
// top ten buckets are accessed by 61% of queries, with temporal
// clustering) and a heavy-tailed per-bucket workload distribution
// (Figure 6: 2% of buckets capture 50% of the workload objects).
//
// A Query describes the work a single node receives: a sky region of
// interest, the fraction of remote-archive objects shipped (selectivity),
// the per-object match radius, and an optional photometric predicate.
// Materialize converts a query into the workload objects a node's
// pre-processor ingests.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"liferaft/internal/catalog"
	"liferaft/internal/geom"
	"liferaft/internal/xmatch"
)

// Query is one cross-match query as seen by a single archive node.
type Query struct {
	// ID is the query's position in the trace (also its identity).
	ID uint64
	// Center and RadiusRad define the sky region of interest.
	Center    geom.Vec3
	RadiusRad float64
	// MatchRadiusRad is the positional-error radius for each shipped
	// object, radians (arcseconds in practice).
	MatchRadiusRad float64
	// Selectivity is the fraction of remote objects in the region that
	// are shipped for matching, in (0, 1].
	Selectivity float64
	// Hot marks queries that targeted a hotspot region (analysis only).
	Hot bool
	// MagLo/MagHi define an optional local-magnitude predicate window;
	// both zero means no predicate.
	MagLo, MagHi float64
	// Archives lists the archive names the full cross-match joins,
	// first entry is the plan's driving archive.
	Archives []string
}

// Predicate returns the query's xmatch predicate, or nil if none.
func (q Query) Predicate() xmatch.Predicate {
	if q.MagLo == 0 && q.MagHi == 0 {
		return nil
	}
	return xmatch.MagnitudeWindow(q.MagLo, q.MagHi)
}

// Cap returns the query's region of interest as a spherical cap.
func (q Query) Cap() geom.Cap { return geom.NewCap(q.Center, q.RadiusRad) }

// String implements fmt.Stringer.
func (q Query) String() string {
	ra, dec := geom.ToRaDec(q.Center)
	return fmt.Sprintf("q%d: (%.2f,%.2f) r=%.2fdeg sel=%.3f hot=%v",
		q.ID, ra, dec, geom.Degrees(q.RadiusRad), q.Selectivity, q.Hot)
}

// TraceConfig parameterizes trace generation.
type TraceConfig struct {
	// NumQueries is the trace length (the paper replays 2,000).
	NumQueries int
	// Seed makes the trace deterministic.
	Seed int64
	// Hotspots is the number of heavily reused sky regions.
	Hotspots int
	// HotFraction is the probability a query targets a hotspot rather
	// than a uniformly random region.
	HotFraction float64
	// Stickiness is the probability that a hot query reuses the
	// previous hot query's hotspot, producing the temporal clustering
	// of Figure 5.
	Stickiness float64
	// HotRadiusDeg scatters hot query centers around their hotspot.
	HotRadiusDeg float64
	// MinRadiusDeg and MaxRadiusDeg bound the log-uniform distribution
	// of region radii.
	MinRadiusDeg, MaxRadiusDeg float64
	// MatchRadiusArcsec is the per-object match radius.
	MatchRadiusArcsec float64
	// MinSelectivity and MaxSelectivity bound the log-uniform shipped
	// fraction.
	MinSelectivity, MaxSelectivity float64
	// PredicateFraction is the probability a query carries a magnitude
	// predicate.
	PredicateFraction float64
}

// DefaultTraceConfig returns the configuration calibrated to reproduce the
// published trace statistics at CI scale (a few thousand buckets); the
// calibration tests in this package and the Figure 5/6 experiments check
// it.
func DefaultTraceConfig(seed int64) TraceConfig {
	return TraceConfig{
		NumQueries:        2000,
		Seed:              seed,
		Hotspots:          5,
		HotFraction:       0.7,
		Stickiness:        0.7,
		HotRadiusDeg:      2,
		MinRadiusDeg:      2.5,
		MaxRadiusDeg:      14,
		MatchRadiusArcsec: 5,
		MinSelectivity:    0.02,
		MaxSelectivity:    0.5,
		PredicateFraction: 0.3,
	}
}

// Validate reports configuration mistakes.
func (c TraceConfig) Validate() error {
	switch {
	case c.NumQueries <= 0:
		return fmt.Errorf("workload: NumQueries %d must be positive", c.NumQueries)
	case c.Hotspots < 0:
		return fmt.Errorf("workload: negative Hotspots")
	case c.HotFraction < 0 || c.HotFraction > 1:
		return fmt.Errorf("workload: HotFraction %v out of [0,1]", c.HotFraction)
	case c.Stickiness < 0 || c.Stickiness > 1:
		return fmt.Errorf("workload: Stickiness %v out of [0,1]", c.Stickiness)
	case c.MinRadiusDeg <= 0 || c.MaxRadiusDeg < c.MinRadiusDeg:
		return fmt.Errorf("workload: radius bounds (%v,%v) invalid", c.MinRadiusDeg, c.MaxRadiusDeg)
	case c.MinSelectivity <= 0 || c.MaxSelectivity < c.MinSelectivity || c.MaxSelectivity > 1:
		return fmt.Errorf("workload: selectivity bounds (%v,%v) invalid", c.MinSelectivity, c.MaxSelectivity)
	case c.MatchRadiusArcsec <= 0:
		return fmt.Errorf("workload: MatchRadiusArcsec must be positive")
	}
	return nil
}

// Trace is a generated query sequence with its hotspot centers.
type Trace struct {
	Queries  []Query
	Hotspots []geom.Vec3
	Config   TraceConfig
}

// archiveSets are the cross-match combinations dominating the SkyQuery
// log ("a vast majority of cross-matches occurs between archives twomass,
// sdss, and usnob").
var archiveSets = [][]string{
	{"twomass", "sdss"},
	{"twomass", "sdss", "usnob"},
	{"usnob", "sdss"},
	{"twomass", "sdss", "usnob", "first"},
	{"galex", "sdss", "usnob", "first", "rosat"},
}

// Generate produces a deterministic trace from cfg.
func Generate(cfg TraceConfig) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	hs := make([]geom.Vec3, cfg.Hotspots)
	for i := range hs {
		hs[i] = randomPoint(rng)
	}
	// Hotspot popularity is Zipf-ish so a few dominate, as in Figure 5.
	weights := make([]float64, len(hs))
	var wTotal float64
	for i := range weights {
		weights[i] = 1 / float64(i+1)
		wTotal += weights[i]
	}
	pickHotspot := func() int {
		x := rng.Float64() * wTotal
		for i, w := range weights {
			x -= w
			if x <= 0 {
				return i
			}
		}
		return len(weights) - 1
	}

	qs := make([]Query, cfg.NumQueries)
	cur := 0
	if len(hs) > 0 {
		cur = pickHotspot()
	}
	for i := range qs {
		q := Query{ID: uint64(i)}
		hot := len(hs) > 0 && rng.Float64() < cfg.HotFraction
		if hot {
			if rng.Float64() >= cfg.Stickiness {
				cur = pickHotspot()
			}
			q.Center = scatter(rng, hs[cur], geom.Radians(cfg.HotRadiusDeg))
			q.Hot = true
		} else {
			q.Center = randomPoint(rng)
		}
		q.RadiusRad = geom.Radians(logUniform(rng, cfg.MinRadiusDeg, cfg.MaxRadiusDeg))
		q.MatchRadiusRad = geom.ArcsecToRad(cfg.MatchRadiusArcsec)
		q.Selectivity = logUniform(rng, cfg.MinSelectivity, cfg.MaxSelectivity)
		if rng.Float64() < cfg.PredicateFraction {
			lo := 14 + rng.Float64()*6
			q.MagLo, q.MagHi = lo, lo+2+rng.Float64()*4
		}
		q.Archives = archiveSets[rng.Intn(len(archiveSets))]
		qs[i] = q
	}
	return &Trace{Queries: qs, Hotspots: hs, Config: cfg}, nil
}

func randomPoint(rng *rand.Rand) geom.Vec3 {
	z := rng.Float64()*2 - 1
	phi := rng.Float64() * 2 * math.Pi
	r := math.Sqrt(1 - z*z)
	return geom.Vec3{X: r * math.Cos(phi), Y: r * math.Sin(phi), Z: z}
}

func scatter(rng *rand.Rand, center geom.Vec3, maxRad float64) geom.Vec3 {
	return center.Add(geom.Vec3{
		X: rng.NormFloat64() * maxRad / 2,
		Y: rng.NormFloat64() * maxRad / 2,
		Z: rng.NormFloat64() * maxRad / 2,
	}).Normalize()
}

func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo * math.Exp(rng.Float64()*math.Log(hi/lo))
}

// Materialize converts a query into the workload objects the node's
// pre-processor receives: remote-archive objects inside the query region,
// subsampled by the query's selectivity, each wrapped with its bounding
// HTM range. Subsampling is a deterministic hash of (trace seed, query,
// object), so repeated materialization is identical.
func Materialize(q Query, remote *catalog.Catalog, seed int64) []xmatch.WorkloadObject {
	objs := remote.InCap(q.Cap())
	out := make([]xmatch.WorkloadObject, 0, int(float64(len(objs))*q.Selectivity)+1)
	for _, o := range objs {
		if !keep(seed, q.ID, o.ID, q.Selectivity) {
			continue
		}
		out = append(out, xmatch.NewWorkloadObject(q.ID, o, q.MatchRadiusRad))
	}
	return out
}

// keep implements deterministic Bernoulli subsampling via splitmix64.
func keep(seed int64, qid, oid uint64, p float64) bool {
	x := uint64(seed) ^ qid*0x9E3779B97F4A7C15 ^ oid*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11)/float64(1<<53) < p
}

// Arrivals produces inter-arrival offsets for a trace: offsets[i] is query
// i's arrival time relative to the start of the run.
type Arrivals interface {
	// Offsets returns n non-decreasing arrival offsets.
	Offsets(n int, seed int64) []time.Duration
}

// Poisson is a Poisson arrival process at the given rate ("saturation" in
// the paper's terms, queries per second).
type Poisson struct {
	RatePerSec float64
}

// Offsets implements Arrivals.
func (p Poisson) Offsets(n int, seed int64) []time.Duration {
	if p.RatePerSec <= 0 {
		panic("workload: Poisson rate must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / p.RatePerSec
		//lifevet:allow durovf -- synthetic arrival-time math over generator-bounded rates; bounds are the trace definition
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// Uniform spaces arrivals at a fixed interval.
type Uniform struct {
	Interval time.Duration
}

// Offsets implements Arrivals.
func (u Uniform) Offsets(n int, _ int64) []time.Duration {
	if u.Interval <= 0 {
		panic("workload: Uniform interval must be positive")
	}
	out := make([]time.Duration, n)
	for i := range out {
		//lifevet:allow durovf -- synthetic arrival-time math over generator-bounded rates; bounds are the trace definition
		out[i] = time.Duration(i+1) * u.Interval
	}
	return out
}

// Bursty alternates Poisson bursts with idle gaps, the no-steady-state
// pattern §6 argues arrival-rate-sensitive schedulers mishandle.
type Bursty struct {
	// BurstRate is the arrival rate inside a burst (queries/sec).
	BurstRate float64
	// BurstLen is the mean number of queries per burst.
	BurstLen int
	// Gap is the mean idle time between bursts.
	Gap time.Duration
}

// Offsets implements Arrivals.
func (b Bursty) Offsets(n int, seed int64) []time.Duration {
	if b.BurstRate <= 0 || b.BurstLen <= 0 || b.Gap <= 0 {
		panic("workload: Bursty parameters must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	t := 0.0
	inBurst := 0
	for i := range out {
		if inBurst == 0 {
			t += rng.ExpFloat64() * b.Gap.Seconds()
			inBurst = 1 + rng.Intn(2*b.BurstLen)
		}
		t += rng.ExpFloat64() / b.BurstRate
		inBurst--
		//lifevet:allow durovf -- synthetic arrival-time math over generator-bounded rates; bounds are the trace definition
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}
