package core

import (
	"context"
	"fmt"
	"sync"
)

// Adaptive closes the §4 loop around a Live engine: every submitted query
// updates a saturation estimate; whenever the estimate has drifted enough,
// the tuner's trade-off curves select a new α and the engine is retuned.
// "LifeRaft will adaptively tune α based on workload saturation" (§3.3) —
// this is that component.
//
// The trade-off curves are derived offline (BuildCurve over a
// representative trace at several saturations, as the paper prescribes)
// and registered on the Tuner before serving.
type Adaptive struct {
	live  *Live
	tuner *Tuner
	est   *SaturationEstimator

	mu        sync.Mutex
	current   float64
	retunes   int
	threshold float64
}

// NewAdaptive wraps a live engine. threshold is the relative change in
// estimated saturation that triggers a retune (e.g. 0.25 = 25%); the
// initial α is taken from the tuner at zero load.
func NewAdaptive(live *Live, tuner *Tuner, est *SaturationEstimator, threshold float64) (*Adaptive, error) {
	if live == nil || tuner == nil || est == nil {
		return nil, fmt.Errorf("core: NewAdaptive requires live, tuner, and estimator")
	}
	if threshold <= 0 {
		return nil, fmt.Errorf("core: retune threshold must be positive")
	}
	a := &Adaptive{live: live, tuner: tuner, est: est, threshold: threshold, current: -1}
	return a, nil
}

// SubmitCtx forwards to the live engine after updating the saturation
// estimate and, if warranted, the engine's α.
func (a *Adaptive) SubmitCtx(ctx context.Context, job Job) (<-chan Result, error) {
	a.est.Observe(a.live.Clock().Now())
	a.maybeRetune()
	return a.live.SubmitCtx(ctx, job)
}

// maybeRetune consults the tuner when the saturation estimate has moved by
// more than the threshold since the last retune.
func (a *Adaptive) maybeRetune() {
	rate := a.est.Rate()
	if rate <= 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.current > 0 {
		rel := rate / a.current
		if rel < 1+a.threshold && rel > 1/(1+a.threshold) {
			return // within the dead band
		}
	}
	alpha, err := a.tuner.Alpha(rate)
	if err != nil {
		return // no curves registered yet: keep the engine's α
	}
	//lifevet:allow lockdiscipline -- SetAlpha's inbox send bounds in one engine step; a.mu only serializes retune decisions and has no reader on the query path
	if a.live.SetAlpha(alpha) == nil {
		a.current = rate
		a.retunes++
	}
}

// Retunes reports how many times the α was changed.
func (a *Adaptive) Retunes() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.retunes
}

// Close closes the underlying engine.
func (a *Adaptive) Close() error { return a.live.Close() }
