package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"
)

// The generator is owned by the benchmark: it draws from seeded PCG streams
// and never calls internal/workload, so a change there cannot move the
// inputs. The i-th query of a client is a pure function of (seed, stream,
// client, i), no matter how goroutines interleave.

// streamKind says how a stream paces itself.
type streamKind int

const (
	// closedLoop: each client sends its next query when the previous one
	// has been answered, so a slow system receives less load.
	closedLoop streamKind = iota
	// openLoop: queries are due on a seeded Poisson schedule whatever the
	// system does; latency is timed from the due instant.
	openLoop
)

// streamSpec describes one query stream of a workload.
type streamSpec struct {
	name    string
	kind    streamKind
	clients int     // closed loop: concurrent clients
	rateQPS float64 // open loop: Poisson arrival rate
	tenant  string
	driver  string  // driving archive of the cross-match plan
	rMinDeg float64 // region radius is log-uniform in [rMinDeg, rMaxDeg]
	rMaxDeg float64
	hotFrac float64 // share of region centres within hotRadiusDeg of a hotspot; the rest are uniform on the sphere
	limit   int     // LIMIT n; 0 = none
}

// workloadSpec is one benchmark workload: a tenant table and its streams.
// lat_* are reported for the first stream, qps for the last closed-loop one.
type workloadSpec struct {
	name    string
	why     string
	tenants string // liferaftd -tenants value
	fedHop  bool   // sdss is reached over TCP (federation.Serve + Dial)
	streams []streamSpec
}

const (
	matchRadiusArcsec = 5.0
	hotRadiusDeg      = 2.0
	// numHotspots is even so that the hotspots split evenly between the two
	// hemispheres, and therefore between the two range shards (the HTM
	// curve runs through the four southern root trixels first).
	numHotspots = 6
	// hotspotSeed places the hotspots. They belong to the fixture, like the
	// catalog seed, not to the run: which buckets a hotspot straddles
	// decides how many of its queries end in an uncached index probe, and
	// with hotspots that followed --seed read_kb_per_query ranged from 670
	// to 4100 KB over ten seeds.
	hotspotSeed = 42
)

var hotBatch = streamSpec{
	name: "batch", kind: closedLoop, clients: 4, tenant: "batch", driver: "twomass",
	rMinDeg: 1.5, rMaxDeg: 4, hotFrac: 0.9,
}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []workloadSpec{
	{
		name:    "hot_batch",
		why:     "dense regions around a few hotspots that fit the RAM tier: shared scans, joins, row assembly and JSON do the work",
		streams: []streamSpec{hotBatch},
	},
	{
		name: "cold_sweep",
		why:  "sparse 15-30 degree regions over the whole sky: every service is an index probe of an uncached 2 MB bucket",
		streams: []streamSpec{{
			name: "batch", kind: closedLoop, clients: 4, tenant: "batch", driver: "rosat",
			rMinDeg: 15, rMaxDeg: 30,
		}},
	},
	{
		name:    "mixed_tenants",
		why:     "open-loop interactive tenant beside closed-loop batch clients: admission, DRR and the age term decide the result",
		tenants: "interactive:4,batch:1",
		streams: []streamSpec{
			{
				name: "interactive", kind: openLoop, rateQPS: 40, tenant: "interactive", driver: "twomass",
				rMinDeg: 0.5, rMaxDeg: 1, hotFrac: 0.7, limit: 20,
			},
			{
				name: "batch", kind: closedLoop, clients: 3, tenant: "batch", driver: "twomass",
				rMinDeg: 1.5, rMaxDeg: 4, hotFrac: 0.7,
			},
		},
	},
	{
		name:    "fed_hop",
		why:     "the hot_batch stream with sdss behind one TCP federation client: the hop layer and its single mutex",
		fedHop:  true,
		streams: []streamSpec{hotBatch},
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// query is one generated request.
type query struct {
	tenant    string
	driver    string
	ra, dec   float64 // degrees, as printed in text
	radiusDeg float64
	limit     int
	text      string // the SkyQL sent to the gateway
}

type raDec struct{ ra, dec float64 }

// hotspots derives the hotspot centres from a seed. Hotspot k lies in the
// southern hemisphere for even k and the northern for odd k, between 10 and
// 60 degrees from the equator (clear of the poles, where a 2 degree disc is
// no longer a small RA/Dec box).
func hotspots(seed uint64) []raDec {
	rng := rand.New(rand.NewPCG(seed, 0x686f7473706f7473)) // "hotspots"
	out := make([]raDec, numHotspots)
	for k := range out {
		dec := 10 + 50*rng.Float64()
		if k%2 == 0 {
			dec = -dec
		}
		out[k] = raDec{ra: 360 * rng.Float64(), dec: dec}
	}
	return out
}

// A stream's queries come from a fixed population: populationSize queries
// drawn once from the fixture's seed, the same in every run. --seed only
// decides the order in which a run works through them — a seeded permutation
// that the stream's clients deal out among themselves round robin, wrapping
// around — and, for an open loop, the arrival instants. Every run therefore
// executes very nearly the same multiset of queries, and what differs between
// seeds is what a seed should exercise: which queries meet in the engine at
// the same time. With the queries themselves drawn from --seed, the few that
// happen to sweep many cold buckets (a uniform-sky region, or one object whose
// error circle straddles two root trixels and so queues a probe on every
// bucket in between) moved read_kb_per_query by 30 % and lat_p90_ms by 15 %
// between seeds on hot_batch.
const (
	populationSize = 256
	populationSeed = 42
)

// population draws a stream's query population. The uniform-sky share is
// spread evenly through the draw (an accumulator, not a coin per query), so
// it is exactly 1-hotFrac of the population.
func population(stream int, s streamSpec) []query {
	rng := rand.New(rand.NewPCG(populationSeed, uint64(stream)+1))
	hot := hotspots(hotspotSeed)
	cold := rng.Float64()
	out := make([]query, populationSize)
	for i := range out {
		var c raDec
		if cold += 1 - s.hotFrac; cold < 1 {
			// Uniform in the disc of hotRadiusDeg around a hotspot.
			h := hot[rng.IntN(len(hot))]
			d := hotRadiusDeg * math.Sqrt(rng.Float64())
			th := 2 * math.Pi * rng.Float64()
			c.dec = h.dec + d*math.Sin(th)
			c.ra = math.Mod(h.ra+d*math.Cos(th)/math.Cos(c.dec*math.Pi/180)+360, 360)
		} else {
			// Uniform on the sphere.
			cold--
			c.ra = 360 * rng.Float64()
			c.dec = math.Asin(2*rng.Float64()-1) * 180 / math.Pi
		}
		r := s.rMinDeg * math.Pow(s.rMaxDeg/s.rMinDeg, rng.Float64())
		q := query{tenant: s.tenant, driver: s.driver, limit: s.limit}
		// Round to what the text carries, so the oracle checks exactly
		// the region the gateway parsed.
		q.ra, q.dec, q.radiusDeg = round4(c.ra), round4(c.dec), round4(r)
		q.text = fmt.Sprintf("SELECT * FROM %s d, sdss s WHERE XMATCH(d, s) < %g AND REGION(CIRCLE, %.4f, %.4f, %.4f)",
			s.driver, matchRadiusArcsec, q.ra, q.dec, q.radiusDeg)
		if s.limit > 0 {
			q.text += fmt.Sprintf(" LIMIT %d", s.limit)
		}
		out[i] = q
	}
	return out
}

// queryGen produces one client's query sequence: every stride-th element of
// the stream's seeded permutation of its population, starting at the client's
// own offset.
type queryGen struct {
	pop    []query
	order  []int
	pos    int
	stride int
}

// newQueryGen returns the generator of client `client` of stream `stream`
// (its index in the workload) for the given seed.
func newQueryGen(seed uint64, stream, client int, spec streamSpec) *queryGen {
	rng := rand.New(rand.NewPCG(seed, uint64(stream)+1))
	return &queryGen{
		pop:    population(stream, spec),
		order:  rng.Perm(populationSize),
		pos:    client,
		stride: max(spec.clients, 1),
	}
}

func (g *queryGen) next() query {
	q := g.pop[g.order[g.pos%len(g.order)]]
	g.pos += g.stride
	return q
}

func round4(x float64) float64 { return math.Round(x*1e4) / 1e4 }

// poissonSchedule returns the due offsets of an open-loop stream over
// [0, span): exponential gaps at rateQPS from the stream's own PCG sequence.
func poissonSchedule(seed uint64, stream int, rateQPS float64, span time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, uint64(stream)<<32|0x706f6973)) // "pois"
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rateQPS
		d := time.Duration(t * float64(time.Second))
		if d >= span {
			return out
		}
		out = append(out, d)
	}
}
