package server

import (
	"math"
	"time"
)

// tokenBucket is a classic token-bucket rate limiter measured against the
// serving clock: tokens accrue at rate per second up to burst, and each
// admitted query spends one. Running it on the engine's clock means the
// limiter is exact under the virtual clock (tests, capacity planning) and
// the real clock (deployments) alike.
type tokenBucket struct {
	rate   float64 // tokens per second
	burst  float64 // bucket capacity
	tokens float64
	last   time.Time
}

// newTokenBucket returns a full bucket. rate must be positive; burst is
// clamped to at least 1 token.
func newTokenBucket(rate float64, burst int) *tokenBucket {
	b := math.Max(1, float64(burst))
	return &tokenBucket{rate: rate, burst: b, tokens: b}
}

func (b *tokenBucket) refill(now time.Time) {
	if !b.last.IsZero() {
		if dt := now.Sub(b.last).Seconds(); dt > 0 {
			b.tokens = math.Min(b.burst, b.tokens+dt*b.rate)
		}
	}
	b.last = now
}

// unlimited reports whether the bucket is at the "effectively unlimited"
// sentinel rate (aimdUnlimited). Admission must skip take() then:
// on a stalled virtual clock (cache-hot engine, zero modeled cost) no
// tokens ever accrue, and an unlimited tenant would drain its burst and
// be rejected by a limiter that is supposed to not exist yet.
func (b *tokenBucket) unlimited() bool { return b.rate >= aimdUnlimited }

// setRate rebases the accrual rate at now. Tokens accrued so far are
// settled first, so a rate change never retroactively re-prices elapsed
// time. This is the AIMD controller's actuator.
func (b *tokenBucket) setRate(rate float64, now time.Time) {
	b.refill(now)
	b.rate = rate
}

// take spends n tokens if available.
func (b *tokenBucket) take(n float64, now time.Time) bool {
	b.refill(now)
	if b.tokens < n {
		return false
	}
	b.tokens -= n
	return true
}

// maxWait caps the Retry-After hint. The float seconds-to-duration
// conversion below overflows time.Duration for tiny configured rates
// (deficit/rate can exceed 2^63 nanoseconds, flipping the hint
// negative), and a client can do nothing useful with an hours-long hint
// anyway — an hour is already "come back much later".
const maxWait = time.Hour

// wait returns how long until n tokens will have accrued — the
// Retry-After hint handed to a rate-limited tenant. The hint is clamped
// to [0, maxWait]: it must never be negative or garbage, whatever the
// configured rate.
func (b *tokenBucket) wait(n float64, now time.Time) time.Duration {
	b.refill(now)
	deficit := n - b.tokens
	if deficit <= 0 {
		return 0
	}
	sec := deficit / b.rate
	// Compare in float seconds: converting first would overflow the
	// integer nanosecond representation for tiny rates (NaN and ±Inf
	// from a zero or invalid rate land here too, via !(x < y)).
	if !(sec < maxWait.Seconds()) {
		return maxWait
	}
	return time.Duration(sec * float64(time.Second))
}
