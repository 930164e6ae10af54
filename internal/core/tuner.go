package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"liferaft/internal/stats"
)

// This file implements the workload-adaptive parameter selection of paper
// §4: trade-off curves between query throughput and response time are
// derived offline by replaying a representative workload at several α
// values and saturations; at runtime an arrival-rate estimate selects the
// α that minimizes response time while keeping throughput within a user
// tolerance of the maximum.

// CurveRunner executes the representative workload at one α and reports
// the results (typically a closure over Run and a generated trace).
type CurveRunner func(alpha float64) ([]Result, RunStats, error)

// DefaultAlphas are the bias settings the paper sweeps.
var DefaultAlphas = []float64{0, 0.25, 0.5, 0.75, 1.0}

// BuildCurve measures one trade-off curve by running the workload at each
// α.
func BuildCurve(alphas []float64, run CurveRunner) (stats.Curve, error) {
	if len(alphas) == 0 {
		alphas = DefaultAlphas
	}
	curve := make(stats.Curve, 0, len(alphas))
	for _, a := range alphas {
		results, rs, err := run(a)
		if err != nil {
			return nil, fmt.Errorf("core: curve point α=%v: %w", a, err)
		}
		resp := make([]float64, len(results))
		for i, r := range results {
			resp[i] = r.ResponseTime().Seconds()
		}
		curve = append(curve, stats.TradeoffPoint{
			Alpha:      a,
			Throughput: rs.Throughput(),
			RespTime:   stats.Summarize(resp).Mean,
		})
	}
	return curve, nil
}

// Tuner stores trade-off curves per saturation and answers "which α should
// the scheduler use right now". It is safe for concurrent use.
type Tuner struct {
	// Tolerance is the permitted throughput degradation (paper §4 uses
	// 20%: "average response time is minimized without sacrificing more
	// than 20% of maximum achievable throughput").
	Tolerance float64

	mu      sync.Mutex
	entries []tunerEntry
}

type tunerEntry struct {
	saturation float64
	curve      stats.Curve
}

// NewTuner returns a tuner with the given throughput tolerance.
func NewTuner(tolerance float64) (*Tuner, error) {
	if tolerance < 0 || tolerance > 1 {
		return nil, fmt.Errorf("core: tolerance %v out of [0,1]", tolerance)
	}
	return &Tuner{Tolerance: tolerance}, nil
}

// AddCurve registers the measured curve for a saturation (queries/sec).
func (t *Tuner) AddCurve(saturation float64, curve stats.Curve) error {
	if saturation <= 0 {
		return fmt.Errorf("core: non-positive saturation %v", saturation)
	}
	if len(curve) == 0 {
		return fmt.Errorf("core: empty curve")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.entries = append(t.entries, tunerEntry{saturation, curve})
	sort.Slice(t.entries, func(i, j int) bool { return t.entries[i].saturation < t.entries[j].saturation })
	return nil
}

// Alpha returns the bias for the given observed saturation: the curve of
// the nearest calibrated saturation is consulted with the tuner's
// tolerance. At low saturation this selects large α (arrival order, low
// response time); at high saturation smaller α (contention-driven
// batching) as Figure 4 prescribes.
func (t *Tuner) Alpha(saturation float64) (float64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.entries) == 0 {
		return 0, fmt.Errorf("core: tuner has no curves")
	}
	best, bestDist := t.entries[0], math.Inf(1)
	for _, e := range t.entries {
		// Distance in log space: saturations spread geometrically.
		d := math.Abs(math.Log(e.saturation) - math.Log(math.Max(saturation, 1e-9)))
		if d < bestDist {
			best, bestDist = e, d
		}
	}
	p, err := best.curve.PickAlpha(t.Tolerance)
	if err != nil {
		return 0, err
	}
	return p.Alpha, nil
}

// SaturationEstimator tracks the query arrival rate with an exponentially
// weighted moving average, giving Live deployments the real-time
// saturation signal the tuner needs. It is safe for concurrent use.
type SaturationEstimator struct {
	halfLife time.Duration

	mu    sync.Mutex
	rate  float64 // queries per second
	last  time.Time
	prime bool
}

// NewSaturationEstimator builds an estimator whose memory decays with the
// given half-life (e.g. 5 minutes).
func NewSaturationEstimator(halfLife time.Duration) (*SaturationEstimator, error) {
	if halfLife <= 0 {
		return nil, fmt.Errorf("core: half-life must be positive")
	}
	return &SaturationEstimator{halfLife: halfLife}, nil
}

// Observe records one query arrival at instant now.
func (e *SaturationEstimator) Observe(now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.prime {
		e.prime = true
		e.last = now
		return
	}
	dt := now.Sub(e.last).Seconds()
	e.last = now
	if dt <= 0 {
		// Coincident arrivals: treat as an infinitesimally small gap by
		// nudging the rate upward.
		e.rate *= 1.1
		return
	}
	inst := 1 / dt
	w := math.Exp(-dt * math.Ln2 / e.halfLife.Seconds())
	e.rate = w*e.rate + (1-w)*inst
}

// Rate returns the current arrival-rate estimate in queries per second.
func (e *SaturationEstimator) Rate() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rate
}
