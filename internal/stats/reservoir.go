package stats

import (
	"fmt"
	"math/rand"
)

// Reservoir is a bounded uniform sample of a value stream (Vitter's
// Algorithm R): after n observations each one is retained with probability
// cap/n, so summaries computed from the sample stay unbiased while memory
// stays fixed. The serving layer uses one reservoir per tenant for
// response-time breakdowns that must survive tenants submitting millions
// of queries.
//
// Semantics of the resulting Summary: Count, Mean, Min, and Max are
// tracked exactly over every observation regardless of what the sample
// retains; the dispersion and percentile fields are computed from the
// retained sample and are therefore estimates once the stream outgrows
// the capacity — the Summary marks that case with Sampled=true and
// reports the retained size in SampleSize. Because the sample is uniform
// over the whole stream, those estimates are unbiased but weight old and
// recent observations equally: a reservoir answers "what has this
// tenant's p99 been overall", not "what is it right now" (the windowed
// signals live in the metric registry's histograms). Replacement
// decisions come from the seeded RNG, so a fixed observation order
// reproduces the identical sample.
//
// A Reservoir is not safe for concurrent use; callers serialize access.
type Reservoir struct {
	cap   int
	seen  int64
	vals  []float64
	rng   *rand.Rand
	min   float64
	max   float64
	total float64
}

// NewReservoir returns a reservoir holding at most cap values. The seed
// makes replacement decisions deterministic for reproducible tests.
func NewReservoir(cap int, seed int64) (*Reservoir, error) {
	if cap < 1 {
		return nil, fmt.Errorf("stats: reservoir capacity %d must be >= 1", cap)
	}
	return &Reservoir{cap: cap, rng: rand.New(rand.NewSource(seed))}, nil
}

// Add observes one value.
func (r *Reservoir) Add(x float64) {
	r.seen++
	if r.seen == 1 || x < r.min {
		r.min = x
	}
	if r.seen == 1 || x > r.max {
		r.max = x
	}
	r.total += x
	if len(r.vals) < r.cap {
		r.vals = append(r.vals, x)
		return
	}
	if j := r.rng.Int63n(r.seen); j < int64(r.cap) {
		r.vals[j] = x
	}
}

// Count returns the number of values observed (not retained).
func (r *Reservoir) Count() int64 { return r.seen }

// Summary summarizes the stream: Count, Mean, Min, and Max are exact over
// every observed value; the dispersion and percentile fields are estimated
// from the retained sample, and the Summary's Sampled/SampleSize fields
// say so whenever the stream has outgrown the reservoir. An empty
// reservoir yields the zero Summary.
func (r *Reservoir) Summary() Summary {
	if r.seen == 0 {
		return Summary{}
	}
	s := Summarize(r.vals)
	s.Count = r.seen
	s.Mean = r.total / float64(r.seen)
	s.Min = r.min
	s.Max = r.max
	if s.Mean != 0 {
		s.CoV = s.StdDev / s.Mean
	}
	s.Sampled = r.seen > int64(len(r.vals))
	s.SampleSize = len(r.vals)
	return s
}
