package exper

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

var (
	envOnce sync.Once
	envCI   *Env
	envErr  error
)

func ciEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		scale := CI()
		scale.NumQueries = 300 // trim for test speed; shapes unchanged
		envCI, envErr = NewEnv(scale)
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envCI
}

func cell(t *testing.T, tab Table, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(tab.Rows[row][col], "%")
	x, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) %q: %v", row, col, tab.Rows[row][col], err)
	}
	return x
}

func TestScaleByName(t *testing.T) {
	for _, n := range []string{"ci", "mid", "paper", ""} {
		if _, err := ScaleByName(n); err != nil {
			t.Errorf("ScaleByName(%q): %v", n, err)
		}
	}
	if _, err := ScaleByName("bogus"); err == nil {
		t.Error("unknown scale should fail")
	}
}

func TestEnvConstruction(t *testing.T) {
	env := ciEnv(t)
	if env.Part.NumBuckets() == 0 || len(env.Jobs) != 300 {
		t.Fatalf("env malformed: %d buckets, %d jobs", env.Part.NumBuckets(), len(env.Jobs))
	}
	nonEmpty := 0
	for _, j := range env.Jobs {
		if len(j.Objects) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < len(env.Jobs)*8/10 {
		t.Errorf("only %d of %d jobs carry workload", nonEmpty, len(env.Jobs))
	}
}

func TestFig2BreakEven(t *testing.T) {
	tab := Fig2(nil)
	if len(tab.Rows) == 0 {
		t.Fatal("empty table")
	}
	// Speed-up must be monotone increasing and cross 1 near 3%.
	prev := 0.0
	var crossing float64
	for i := range tab.Rows {
		s := cell(t, tab, i, 4)
		if s < prev {
			t.Fatalf("speed-up not monotone at row %d", i)
		}
		if prev < 1 && s >= 1 {
			crossing = cell(t, tab, i, 0)
		}
		prev = s
	}
	if crossing < 0.01 || crossing > 0.06 {
		t.Errorf("break-even at ratio %v, want ~0.03 (paper: 3%%)", crossing)
	}
	// The large-queue end shows an order-of-magnitude gap (paper: ~20x).
	last := cell(t, tab, len(tab.Rows)-1, 4)
	if last < 8 {
		t.Errorf("ratio-1 speed-up %v, want >= 8 (paper: ~20x)", last)
	}
	if tab.String() == "" {
		t.Error("table renders empty")
	}
}

func TestFig5TopBucketCoverage(t *testing.T) {
	env := ciEnv(t)
	tab := Fig5(env)
	if len(tab.Rows) != 10 {
		t.Fatalf("want 10 rows, got %d", len(tab.Rows))
	}
	// Touch counts are ranked non-increasing.
	prev := cell(t, tab, 0, 2)
	for i := 1; i < len(tab.Rows); i++ {
		c := cell(t, tab, i, 2)
		if c > prev {
			t.Fatal("rows not ranked by reuse")
		}
		prev = c
	}
	// The coverage note must report a substantial fraction (paper: 61%).
	found := false
	for _, n := range tab.Notes {
		if i := strings.Index(n, "accessed by "); i >= 0 {
			found = true
			var v float64
			if _, err := fmt_sscan(n[i:], &v); err == nil && v < 40 {
				t.Errorf("top-10 coverage %v%%, want >= 40%%", v)
			}
		}
	}
	if !found {
		t.Error("coverage note missing")
	}
}

// fmt_sscan pulls the first float out of a note string.
func fmt_sscan(s string, v *float64) (int, error) {
	i := strings.IndexAny(s, "0123456789")
	if i < 0 {
		return 0, strconv.ErrSyntax
	}
	j := i
	for j < len(s) && (s[j] == '.' || (s[j] >= '0' && s[j] <= '9')) {
		j++
	}
	x, err := strconv.ParseFloat(s[i:j], 64)
	if err != nil {
		return 0, err
	}
	*v = x
	return 1, nil
}

func TestFig6HeavyTail(t *testing.T) {
	env := ciEnv(t)
	tab := Fig6(env)
	// Share is monotone in rank and the top 10% carries most workload.
	prev := 0.0
	for i := range tab.Rows {
		s := cell(t, tab, i, 2)
		if s < prev {
			t.Fatal("cumulative share not monotone")
		}
		prev = s
	}
	// Row for 10% of buckets:
	for i := range tab.Rows {
		if tab.Rows[i][1] == "10.0%" {
			if got := cell(t, tab, i, 2); got < 50 {
				t.Errorf("top 10%% of buckets carries %v%%, want >= 50%%", got)
			}
		}
	}
	if cell(t, tab, len(tab.Rows)-1, 2) < 99.9 {
		t.Error("full bucket set must carry 100% of workload")
	}
}

func TestFig7Shapes(t *testing.T) {
	env := ciEnv(t)
	tab, err := Fig7(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("want 7 algorithms, got %d", len(tab.Rows))
	}
	byName := map[string][]string{}
	for _, r := range tab.Rows {
		byName[r[0]] = r
	}
	noShare, _ := strconv.ParseFloat(byName["NoShare"][1], 64)
	greedy, _ := strconv.ParseFloat(byName["LifeRaft α=0.00"][1], 64)
	aged, _ := strconv.ParseFloat(byName["LifeRaft α=1.00"][1], 64)
	rr, _ := strconv.ParseFloat(byName["RR"][1], 64)
	if greedy < 1.5*noShare {
		t.Errorf("greedy %.3f not >= 1.5x NoShare %.3f", greedy, noShare)
	}
	if greedy <= rr || greedy <= aged {
		t.Errorf("greedy %.3f should top RR %.3f and α=1 %.3f", greedy, rr, aged)
	}
	// RR lands in the neighborhood of α=1 (paper: similar).
	if rr > aged*1.6 || rr < aged*0.4 {
		t.Errorf("RR %.3f far from α=1 %.3f (paper: similar)", rr, aged)
	}
	// NoShare has the worst normalized response time (= 1.0, others < 1).
	for name, row := range byName {
		if name == "NoShare" {
			continue
		}
		norm, _ := strconv.ParseFloat(row[3], 64)
		if norm >= 1.0 {
			t.Errorf("%s response %.2fx NoShare, want < 1 (paper Fig 7b)", name, norm)
		}
	}
}

func TestFig8AndFig4(t *testing.T) {
	env := ciEnv(t)
	tab, curves, err := Fig8(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 5 || len(tab.Rows) != 25 {
		t.Fatalf("%d curves and %d rows, want 5 and 25", len(curves), len(tab.Rows))
	}
	for _, c := range curves {
		if len(c.Points) != 5 {
			t.Fatalf("curve at %.3f q/s has %d points, want 5", c.Saturation, len(c.Points))
		}
	}
	// Throughput rises with saturation for the greedy scheduler.
	var greedyT []float64
	for _, c := range curves {
		greedyT = append(greedyT, c.Points[0].Throughput)
	}
	if greedyT[len(greedyT)-1] <= greedyT[0] {
		t.Errorf("greedy throughput should rise with saturation: %v", greedyT)
	}
	// At the highest saturation the α-gap is material (paper: α=0 tops
	// α=1 by ~1.24x; CI scale compresses the gap).
	first, last := curves[0].Points, curves[4].Points
	if last[0].Throughput < 1.02*last[4].Throughput {
		t.Errorf("at high saturation α=0 (%.3f) should beat α=1 (%.3f)",
			last[0].Throughput, last[4].Throughput)
	}
	// And the gap must widen with saturation: at the lowest saturation
	// the schedulers are within noise of each other.
	lowGap := first[0].Throughput / first[4].Throughput
	highGap := last[0].Throughput / last[4].Throughput
	if highGap < lowGap {
		t.Errorf("throughput gap should widen with saturation: low %.3f high %.3f", lowGap, highGap)
	}

	tab4, err := Fig4(env, curves)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab4.Rows) != 10 {
		t.Fatalf("Fig4 rows = %d, want 10", len(tab4.Rows))
	}
	// Normalized values are in (0, 1].
	for i := range tab4.Rows {
		for _, c := range []int{2, 3} {
			v := cell(t, tab4, i, c)
			if v <= 0 || v > 1.0001 {
				t.Fatalf("normalized value %v out of (0,1]", v)
			}
		}
	}
	// Fig4 also runs standalone (running Figure 8's sweep itself).
	if _, err := Fig4(env, nil); err != nil {
		t.Error(err)
	}
}

func TestIndexOnlySlowdown(t *testing.T) {
	env := ciEnv(t)
	tab, err := IndexOnlyExp(env)
	if err != nil {
		t.Fatal(err)
	}
	slowdown := cell(t, tab, 1, 2)
	if slowdown < 2 {
		t.Errorf("index-only slowdown %.2fx, want >= 2x (paper: ~7x)", slowdown)
	}
}

func TestCacheHitRatesShape(t *testing.T) {
	env := ciEnv(t)
	tab, err := CacheHitRates(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	greedy := cell(t, tab, 0, 1)
	aged := cell(t, tab, len(tab.Rows)-1, 1)
	if greedy <= aged {
		t.Errorf("α=0 hit rate %v%% should exceed α=1's %v%% (paper: 40%% vs 7%%)", greedy, aged)
	}
}

func TestAblations(t *testing.T) {
	env := ciEnv(t)
	if tab, err := AblationCacheSize(env); err != nil || len(tab.Rows) != 4 {
		t.Errorf("cache size ablation: %v", err)
	}
	if tab, err := AblationHybridThreshold(env); err != nil || len(tab.Rows) != 5 {
		t.Errorf("threshold ablation: %v", err)
	}
	if tab, err := AblationPolicy(env); err != nil || len(tab.Rows) != 3 {
		t.Errorf("policy ablation: %v", err)
	}
	qos, err := AblationQoS(env)
	if err != nil {
		t.Fatal(err)
	}
	// γ=4 must cut short-query response versus γ=0.
	if cell(t, qos, 2, 1) >= cell(t, qos, 0, 1) {
		t.Errorf("QoS γ=4 short resp %v should beat γ=0's %v", cell(t, qos, 2, 1), cell(t, qos, 0, 1))
	}
	ovf, err := AblationOverflow(env)
	if err != nil {
		t.Fatal(err)
	}
	if cell(t, ovf, 2, 2) == 0 {
		t.Error("tight cap should spill objects")
	}
}

func TestCacheSizeMonotoneHitRate(t *testing.T) {
	env := ciEnv(t)
	tab, err := AblationCacheSize(env)
	if err != nil {
		t.Fatal(err)
	}
	if cell(t, tab, 3, 2) <= cell(t, tab, 0, 2) {
		t.Errorf("80-bucket cache hit rate %v%% should exceed 1-bucket %v%%",
			cell(t, tab, 3, 2), cell(t, tab, 0, 2))
	}
}
