// Package stats provides the statistics LifeRaft's evaluation reports:
// query throughput, response-time summaries with coefficient of variance
// (Figure 7b), percentiles, cumulative workload shares (Figure 6), and
// normalized throughput/response-time trade-off curves (Figure 4).
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Summary describes a sample of non-negative values (typically response
// times in seconds).
//
// When a Summary comes from a Reservoir that has discarded observations,
// Sampled is true and the dispersion and percentile fields (StdDev, CoV,
// P50, P90, P99) are estimates computed from the SampleSize retained
// values; Count, Mean, Min, and Max are always exact over every
// observation. The JSON encoding carries the same two fields ("sampled",
// "sample_size") so /v1/stats consumers can tell estimated quantiles from
// exact ones.
type Summary struct {
	// Count is the number of observed values. int64, not int: reservoir
	// summaries count every observation ever made (billions over a
	// long-lived tenant), not just the retained sample, and the old int
	// truncated that on 32-bit platforms.
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	// StdDev is the population standard deviation.
	StdDev float64 `json:"stddev"`
	// CoV is the coefficient of variance (StdDev/Mean), the dispersion
	// statistic of Figure 7b. Zero when Mean is zero.
	CoV float64 `json:"cov"`
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	// Sampled marks the dispersion and percentile fields above as
	// estimates from a uniform subsample of SampleSize values (reservoir
	// sampling discarded the rest). False means every statistic was
	// computed over the full stream.
	Sampled bool `json:"sampled,omitempty"`
	// SampleSize is the number of retained values behind a reservoir
	// summary's dispersion and percentile fields (equal to Count until
	// the reservoir overflows); 0 for summaries computed without one.
	SampleSize int `json:"sample_size,omitempty"`
}

// Summarize computes a Summary. An empty sample yields the zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{Count: int64(len(xs)), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.StdDev = math.Sqrt(ss / float64(len(xs)))
	if s.Mean != 0 {
		s.CoV = s.StdDev / s.Mean
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	s.P50 = Percentile(sorted, 0.50)
	s.P90 = Percentile(sorted, 0.90)
	s.P99 = Percentile(sorted, 0.99)
	return s
}

// Percentile returns the p-quantile (p in [0,1]) of an ascending-sorted
// sample by linear interpolation. Empty samples yield 0.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f cov=%.2f p50=%.3f p90=%.3f max=%.3f",
		s.Count, s.Mean, s.CoV, s.P50, s.P90, s.Max)
}

// Throughput returns completed/elapsed in events per second; 0 when the
// elapsed time is non-positive.
func Throughput(completed int, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(completed) / elapsed.Seconds()
}

// CumulativeShare sorts weights descending and returns, for each rank k
// (1-based), the fraction of the total captured by the top k. This is the
// statistic behind Figure 6 ("2% of the buckets capture 50% of the
// workload"). A zero-total input returns all zeros.
func CumulativeShare(weights []float64) []float64 {
	ws := make([]float64, len(weights))
	copy(ws, weights)
	sort.Sort(sort.Reverse(sort.Float64Slice(ws)))
	var total float64
	for _, w := range ws {
		total += w
	}
	out := make([]float64, len(ws))
	if total == 0 {
		return out
	}
	run := 0.0
	for i, w := range ws {
		run += w
		out[i] = run / total
	}
	return out
}

// RankForShare returns the smallest number of top-ranked weights whose
// cumulative share reaches the target fraction, or len(weights) if the
// target is never reached.
func RankForShare(weights []float64, target float64) int {
	cum := CumulativeShare(weights)
	for i, c := range cum {
		if c >= target {
			return i + 1
		}
	}
	return len(weights)
}

// TradeoffPoint is one point of a Figure-4 curve: the performance of one
// age-bias setting under one saturation.
type TradeoffPoint struct {
	Alpha      float64
	Throughput float64 // queries per second
	RespTime   float64 // mean response time, seconds
}

// Curve is a throughput/response-time trade-off curve across α values at
// fixed saturation.
type Curve []TradeoffPoint

// Normalized returns the curve with throughput divided by the curve
// maximum and response time divided by the curve maximum, the form
// Figure 4 plots. A zero maximum leaves values unscaled.
func (c Curve) Normalized() Curve {
	var maxT, maxR float64
	for _, p := range c {
		maxT = math.Max(maxT, p.Throughput)
		maxR = math.Max(maxR, p.RespTime)
	}
	out := make(Curve, len(c))
	for i, p := range c {
		q := p
		if maxT > 0 {
			q.Throughput = p.Throughput / maxT
		}
		if maxR > 0 {
			q.RespTime = p.RespTime / maxR
		}
		out[i] = q
	}
	return out
}

// PickAlpha implements the tolerance-threshold parameter selection of
// paper §4: among settings whose throughput is at least (1 - tolerance) of
// the curve's maximum, return the one minimizing response time. Ties break
// toward the larger α (stronger starvation resistance).
func (c Curve) PickAlpha(tolerance float64) (TradeoffPoint, error) {
	if len(c) == 0 {
		return TradeoffPoint{}, fmt.Errorf("stats: empty trade-off curve")
	}
	var maxT float64
	for _, p := range c {
		maxT = math.Max(maxT, p.Throughput)
	}
	floor := (1 - tolerance) * maxT
	best := TradeoffPoint{RespTime: math.Inf(1)}
	found := false
	for _, p := range c {
		if p.Throughput+1e-12 < floor {
			continue
		}
		if p.RespTime < best.RespTime-1e-12 ||
			(math.Abs(p.RespTime-best.RespTime) <= 1e-12 && p.Alpha > best.Alpha) {
			best = p
			found = true
		}
	}
	if !found {
		return TradeoffPoint{}, fmt.Errorf("stats: no point within tolerance %.2f", tolerance)
	}
	return best, nil
}
