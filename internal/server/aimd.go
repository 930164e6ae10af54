package server

import (
	"math"
	"sort"
	"time"
)

// AIMD controller constants. The shape (multiplicative decrease, additive
// increase) is what makes concurrent tenants converge to a fair share
// under contention; see DESIGN-overload.md for the stability argument.
const (
	// aimdUnlimited is the rate a tenant without a configured limit
	// starts at: admission-equivalent to no bucket, but
	// cuttable the moment the SLO breaches.
	aimdUnlimited = 1e9
	// aimdBeta is the multiplicative decrease factor per breach tick.
	aimdBeta = 0.5
	// aimdStep is the additive increase in queries/sec per headroom tick.
	aimdStep = 1.0
	// aimdMinRate floors a cut: every tenant keeps a trickle, so a
	// governed tenant still probes the server and recovers when load
	// lifts (and a misconfigured SLO cannot silence a tenant entirely).
	aimdMinRate = 0.5
	// aimdHeadroomFrac is the fraction of the SLO below which the
	// controller sees headroom; the gap between it and 1.0 is the
	// hysteresis band where rates hold still.
	aimdHeadroomFrac = 0.7
	// aimdBacklogMin is the queued-query count at which a tenant counts
	// as backlogged and eligible for a cut. One queued query is a
	// closed-loop client waiting its turn, not an overload driver; a
	// standing queue of two or more means the tenant submits faster than
	// its fair share drains.
	aimdBacklogMin = 2
)

// rateMove is one AIMD rate change, recorded on the metrics by
// recordMoves once s.mu is released.
type rateMove struct {
	tenant string
	rate   float64
	cut    bool
}

// maybeControlTick runs one AIMD evaluation when ControlInterval has
// elapsed on the serving clock since the last one. It piggybacks on
// data-path events (Submit, await) under s.mu instead of a timer
// goroutine, so it works identically on the real clock and on a virtual
// clock, where timers never fire. Caller holds s.mu and hands the moves
// to recordMoves after releasing it.
func (s *Server) maybeControlTick(now time.Time) []rateMove {
	if s.ctlLast.IsZero() {
		s.ctlLast = now
		return nil
	}
	el := now.Sub(s.ctlLast)
	if el < s.cfg.ControlInterval {
		return nil
	}
	s.ctlLast = now
	return s.controlTick(now, el)
}

// controlTick evaluates the SLO over the window since the last tick and
// moves per-tenant rates: multiplicative decrease for backlogged tenants
// on a breach, additive increase for capped tenants on headroom. It
// returns the moves, for recordMoves. Caller holds s.mu.
func (s *Server) controlTick(now time.Time, el time.Duration) []rateMove {
	p99 := percentile(s.ctlWindow, 0.99)
	s.ctlWindow = s.ctlWindow[:0]
	slo := s.cfg.SLOP99.Seconds()
	queued := s.fq.len()
	// Two breach signals: the completed-response p99 over the window, and
	// a standing aggregate backlog deeper than one tenant's full queue —
	// the early sign of the latency the *next* window will complete with.
	breach := (p99 > slo) || (queued > s.cfg.QueueDepth)
	headroom := p99 < slo*aimdHeadroomFrac && queued <= s.cfg.MaxInFlight
	intervalSec := el.Seconds()
	var moves []rateMove
	for _, t := range s.tenants {
		observed := float64(t.winCompleted) / intervalSec
		t.winCompleted = 0
		switch {
		case breach && t.flow.size() >= aimdBacklogMin:
			// Cut only backlogged tenants: their demand exceeds their
			// service share. A tenant with at most one queued query is
			// not the overload and keeps its rate.
			r := t.bucket.rate
			if r > aimdUnlimited/2 {
				// First cut from "unlimited": halving infinity means
				// nothing, so rebase to the tenant's delivered rate —
				// what the engine actually gave it — before decreasing.
				r = math.Max(observed, 2*aimdMinRate)
			}
			r = math.Max(aimdMinRate, r*aimdBeta)
			t.bucket.setRate(r, now)
			moves = append(moves, rateMove{t.name, r, true})
		case headroom && t.bucket.rate < t.maxRate:
			nr := math.Min(t.maxRate, t.bucket.rate+aimdStep)
			t.bucket.setRate(nr, now)
			moves = append(moves, rateMove{t.name, nr, false})
		}
	}
	s.obs.ctlP99.Set(p99)
	return moves
}

// recordMoves records AIMD rate moves on the metrics; the caller has
// released s.mu.
func (s *Server) recordMoves(moves []rateMove) {
	for _, m := range moves {
		if m.cut {
			s.obs.rateCuts.With(m.tenant).Inc()
			s.obs.cutEvents.Inc()
		} else {
			s.obs.rateRaises.With(m.tenant).Inc()
			s.obs.raiseEvent.Inc()
		}
		s.obs.rateLevel.Observe(m.rate)
	}
}

// percentile returns the p-th percentile of xs (sorting xs in place), or
// 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}
