package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s != (Summary{}) {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestSummarizeKnownSample(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.Count != 8 || s.Mean != 5 {
		t.Errorf("count/mean = %d/%v", s.Count, s.Mean)
	}
	if s.StdDev != 2 { // classic textbook sample
		t.Errorf("stddev = %v", s.StdDev)
	}
	if !almostEq(s.CoV, 0.4, 1e-12) {
		t.Errorf("cov = %v", s.CoV)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	if !almostEq(s.P50, 4.5, 1e-12) {
		t.Errorf("p50 = %v", s.P50)
	}
	if s.String() == "" {
		t.Error("String empty")
	}
}

func TestSummarizeZeroMean(t *testing.T) {
	s := Summarize([]float64{0, 0, 0})
	if s.CoV != 0 {
		t.Errorf("CoV with zero mean = %v", s.CoV)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {-1, 1}, {2, 5},
	}
	for _, c := range cases {
		if got := Percentile(sorted, c.p); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("empty percentile")
	}
	if got := Percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("singleton percentile = %v", got)
	}
}

func TestCumulativeShare(t *testing.T) {
	got := CumulativeShare([]float64{1, 3, 2, 4})
	want := []float64{0.4, 0.7, 0.9, 1.0}
	for i := range want {
		if !almostEq(got[i], want[i], 1e-12) {
			t.Fatalf("share[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	zero := CumulativeShare([]float64{0, 0})
	if zero[0] != 0 || zero[1] != 0 {
		t.Error("zero total should give zeros")
	}
	if len(CumulativeShare(nil)) != 0 {
		t.Error("nil input")
	}
}

func TestRankForShare(t *testing.T) {
	ws := []float64{4, 3, 2, 1}
	if got := RankForShare(ws, 0.5); got != 2 {
		t.Errorf("RankForShare(0.5) = %d, want 2", got)
	}
	if got := RankForShare(ws, 1.0); got != 4 {
		t.Errorf("RankForShare(1.0) = %d", got)
	}
	if got := RankForShare([]float64{0}, 0.5); got != 1 {
		t.Errorf("unreachable target = %d, want len", got)
	}
}

func TestCurveNormalized(t *testing.T) {
	c := Curve{
		{Alpha: 0, Throughput: 0.4, RespTime: 400},
		{Alpha: 1, Throughput: 0.2, RespTime: 200},
	}
	n := c.Normalized()
	if !almostEq(n[0].Throughput, 1, 1e-12) || !almostEq(n[0].RespTime, 1, 1e-12) {
		t.Errorf("max point should normalize to 1: %+v", n[0])
	}
	if !almostEq(n[1].Throughput, 0.5, 1e-12) || !almostEq(n[1].RespTime, 0.5, 1e-12) {
		t.Errorf("point = %+v", n[1])
	}
	// Original untouched.
	if c[0].Throughput != 0.4 {
		t.Error("Normalized mutated input")
	}
	empty := Curve{}.Normalized()
	if len(empty) != 0 {
		t.Error("empty normalize")
	}
}

func TestPickAlpha(t *testing.T) {
	// Shaped like the paper's high-saturation curve: greedy is fastest
	// overall but α=0.25 costs only 20% throughput and improves response.
	c := Curve{
		{Alpha: 0, Throughput: 0.40, RespTime: 420},
		{Alpha: 0.25, Throughput: 0.33, RespTime: 330},
		{Alpha: 0.5, Throughput: 0.26, RespTime: 310},
		{Alpha: 1, Throughput: 0.20, RespTime: 290},
	}
	p, err := c.PickAlpha(0.20)
	if err != nil {
		t.Fatal(err)
	}
	if p.Alpha != 0.25 {
		t.Errorf("PickAlpha(0.20) = %v, want 0.25", p.Alpha)
	}
	// Zero tolerance: must take the max-throughput point.
	p, err = c.PickAlpha(0)
	if err != nil || p.Alpha != 0 {
		t.Errorf("PickAlpha(0) = %+v, %v", p, err)
	}
	// Full tolerance: min response time wins.
	p, err = c.PickAlpha(1)
	if err != nil || p.Alpha != 1 {
		t.Errorf("PickAlpha(1) = %+v, %v", p, err)
	}
	if _, err := (Curve{}).PickAlpha(0.1); err == nil {
		t.Error("empty curve should error")
	}
}

func TestPickAlphaTieBreaksTowardLargerAlpha(t *testing.T) {
	c := Curve{
		{Alpha: 0.25, Throughput: 1, RespTime: 100},
		{Alpha: 0.75, Throughput: 1, RespTime: 100},
	}
	p, err := c.PickAlpha(0.5)
	if err != nil || p.Alpha != 0.75 {
		t.Errorf("tie-break = %+v, %v", p, err)
	}
}

// Property: CumulativeShare is non-decreasing and ends at 1 for positive
// totals.
func TestQuickCumulativeShareMonotone(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		ws := make([]float64, len(raw))
		var total float64
		for i, r := range raw {
			ws[i] = float64(r)
			total += ws[i]
		}
		cum := CumulativeShare(ws)
		for i := 1; i < len(cum); i++ {
			if cum[i] < cum[i-1]-1e-12 {
				return false
			}
		}
		if total > 0 && !almostEq(cum[len(cum)-1], 1, 1e-9) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Summary mean lies within [min, max].
func TestQuickSummaryBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		s := Summarize(xs)
		return s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9 &&
			s.P50 >= s.Min-1e-9 && s.P99 <= s.Max+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
