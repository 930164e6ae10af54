package stats

import (
	"math"
	"testing"
)

func TestReservoirValidation(t *testing.T) {
	if _, err := NewReservoir(0, 1); err == nil {
		t.Error("capacity 0 should fail")
	}
}

func TestReservoirEmpty(t *testing.T) {
	r, _ := NewReservoir(8, 1)
	if s := r.Summary(); s.Count != 0 || s.Mean != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

// TestReservoirExactUnderCapacity: below capacity the reservoir holds the
// whole stream, so the summary matches Summarize exactly.
func TestReservoirExactUnderCapacity(t *testing.T) {
	r, _ := NewReservoir(100, 1)
	xs := []float64{5, 1, 4, 2, 3}
	for _, x := range xs {
		r.Add(x)
	}
	got, want := r.Summary(), Summarize(xs)
	// The only difference from Summarize is the sample labeling: nothing
	// was discarded, so the summary is exact and says so.
	want.SampleSize = len(xs)
	if got != want {
		t.Errorf("summary = %+v, want %+v", got, want)
	}
	if got.Sampled {
		t.Error("under-capacity reservoir marked Sampled")
	}
}

// TestReservoirBoundedAndUnbiased: a long stream keeps memory at capacity,
// the exact fields stay exact, and the sampled percentiles land near the
// true ones.
func TestReservoirBoundedAndUnbiased(t *testing.T) {
	const n = 100000
	r, _ := NewReservoir(512, 7)
	for i := 0; i < n; i++ {
		r.Add(float64(i)) // uniform ramp: p50 ~ n/2, p99 ~ 0.99n
	}
	if len(r.vals) != 512 {
		t.Fatalf("retained %d values, want 512", len(r.vals))
	}
	s := r.Summary()
	if s.Count != n {
		t.Errorf("count = %d, want %d", s.Count, n)
	}
	if s.Min != 0 || s.Max != n-1 {
		t.Errorf("min/max = %v/%v, want exact 0/%d", s.Min, s.Max, n-1)
	}
	if math.Abs(s.Mean-(n-1)/2.0) > 1e-6 {
		t.Errorf("mean = %v, want exact %v", s.Mean, (n-1)/2.0)
	}
	if !s.Sampled || s.SampleSize != 512 {
		t.Errorf("sampled/size = %v/%d, want true/512: estimated fields must be labeled", s.Sampled, s.SampleSize)
	}
	// Sampled percentiles: within 10% of the true quantiles (512 samples
	// give ~±4.4% standard error at the median; the seed is fixed).
	if rel := math.Abs(s.P50-n/2) / (n / 2); rel > 0.10 {
		t.Errorf("p50 = %v, want within 10%% of %v", s.P50, n/2)
	}
	if rel := math.Abs(s.P99-0.99*n) / (0.99 * n); rel > 0.10 {
		t.Errorf("p99 = %v, want within 10%% of %v", s.P99, 0.99*n)
	}
}

// TestReservoirDeterministic: the same seed replays the same sample.
func TestReservoirDeterministic(t *testing.T) {
	a, _ := NewReservoir(16, 3)
	b, _ := NewReservoir(16, 3)
	for i := 0; i < 1000; i++ {
		a.Add(float64(i % 37))
		b.Add(float64(i % 37))
	}
	if a.Summary() != b.Summary() {
		t.Error("same seed produced different summaries")
	}
}
