package metric

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	return b.String()
}

func TestCounterGaugeText(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("liferaft_test_total", "a counter")
	g := r.NewGauge("liferaft_test_depth", "a gauge")
	c.Inc()
	c.Add(2)
	g.Set(7)
	g.Dec()
	out := render(t, r)
	for _, want := range []string{
		"# HELP liferaft_test_total a counter",
		"# TYPE liferaft_test_total counter",
		"liferaft_test_total 3",
		"# TYPE liferaft_test_depth gauge",
		"liferaft_test_depth 6",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if c.Value() != 3 || g.Value() != 6 {
		t.Errorf("values: counter=%v gauge=%v", c.Value(), g.Value())
	}
}

func TestCounterPanicsOnDecrease(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("liferaft_test_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	c.Add(-1)
}

// TestHistogramBucketBoundaries pins the boundary semantics: an
// observation equal to an upper bound lands in that bucket (le is <=),
// one just above lands in the next, and everything beyond the last bound
// lands only in +Inf. Cumulative rendering must reflect exactly that.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("liferaft_test_seconds", "boundaries", []float64{0.1, 1, 10})

	h.Observe(0.1) // == first bound: bucket le=0.1
	h.Observe(0.100001)
	h.Observe(1) // == second bound
	h.Observe(10)
	h.Observe(10.5) // beyond last bound: +Inf only
	h.Observe(-1)   // below everything: first bucket

	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	wantSum := 0.1 + 0.100001 + 1 + 10 + 10.5 + -1
	if math.Abs(h.Sum()-wantSum) > 1e-9 {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}
	out := render(t, r)
	for _, want := range []string{
		`liferaft_test_seconds_bucket{le="0.1"} 2`,  // -1, 0.1
		`liferaft_test_seconds_bucket{le="1"} 4`,    // + 0.100001, 1
		`liferaft_test_seconds_bucket{le="10"} 5`,   // + 10
		`liferaft_test_seconds_bucket{le="+Inf"} 6`, // + 10.5
		`liferaft_test_seconds_count 6`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramRejectsBadBuckets(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending buckets did not panic")
		}
	}()
	r.NewHistogram("liferaft_bad_seconds", "x", []float64{1, 1})
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-6, 10, 7)
	if len(b) != 7 {
		t.Fatalf("len = %d", len(b))
	}
	if math.Abs(b[0]-1e-6) > 1e-18 || math.Abs(b[6]-1) > 1e-9 {
		t.Fatalf("range = [%v, %v], want [1e-6, 1]", b[0], b[6])
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("not ascending at %d", i)
		}
	}
}

func TestVecLabelsAndEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("liferaft_admission_total", "per tenant", []string{"tenant", "decision"}, VecOpts{})
	v.With(`we"ird\ten`+"\nant", "admitted").Add(2)
	v.With("a", "rejected_rate").Inc()
	out := render(t, r)
	for _, want := range []string{
		`liferaft_admission_total{tenant="a",decision="rejected_rate"} 1`,
		`liferaft_admission_total{tenant="we\"ird\\ten\nant",decision="admitted"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestVecCardinalityBoundUnderChurn is the cardinality contract: 10k
// one-shot tenants resolve series in a Vec capped at 64, and the
// registry must stay bounded — idle tenants are folded into the
// "_other" overflow series with their counts conserved, so the scrape
// size and memory stay fixed while aggregate rates remain exact.
func TestVecCardinalityBoundUnderChurn(t *testing.T) {
	const cap = 64
	r := NewRegistry()
	v := r.NewCounterVec("liferaft_admission_total", "x", []string{"tenant"}, VecOpts{MaxSeries: cap})
	h := r.NewHistogramVec("liferaft_response_seconds", "x", []string{"tenant"}, []float64{0.1, 1}, VecOpts{MaxSeries: cap})
	for i := 0; i < 10_000; i++ {
		name := "tenant-" + string(rune('a'+i%26)) + "-" + itoa(i)
		v.With(name).Inc()
		h.With(name).Observe(float64(i%3) * 0.09)
	}
	if got := v.Series(); got > cap+1 {
		t.Errorf("counter vec series = %d, want <= %d (cap+overflow)", got, cap+1)
	}
	if got := h.Series(); got > cap+1 {
		t.Errorf("histogram vec series = %d, want <= %d", got, cap+1)
	}

	// Conservation: the sum over every rendered series equals the 10k
	// observations, fold-in included.
	out := render(t, r)
	if !strings.Contains(out, `tenant="_other"`) {
		t.Fatalf("overflow series not rendered:\n%s", out[:min(len(out), 2000)])
	}
	var total float64
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "liferaft_admission_total{") {
			var v float64
			if _, err := fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &v); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			total += v
		}
	}
	if total != 10_000 {
		t.Errorf("counter total across series = %v, want 10000 (counts must be conserved across eviction)", total)
	}
	var histCount uint64
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "liferaft_response_seconds_count{") {
			var v uint64
			if _, err := fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &v); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			histCount += v
		}
	}
	if histCount != 10_000 {
		t.Errorf("histogram count across series = %d, want 10000", histCount)
	}

	// Recently-touched series survive; the LRU evicts idle ones.
	v.With("hot").Inc()
	for i := 0; i < 200; i++ {
		v.With("churn-" + itoa(i)).Inc()
		v.With("hot").Inc()
	}
	out = render(t, r)
	if !strings.Contains(out, `liferaft_admission_total{tenant="hot"} 201`) {
		t.Errorf("hot series evicted despite constant touches:\n%s", out[:min(len(out), 2000)])
	}
}

func TestVecConcurrency(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("liferaft_x_total", "x", []string{"tenant"}, VecOpts{MaxSeries: 8})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				v.With("t" + itoa((w+i)%32)).Inc()
			}
		}()
	}
	wg.Wait()
	if got := v.Series(); got > 9 {
		t.Errorf("series = %d, want <= 9", got)
	}
}

func TestOnGather(t *testing.T) {
	r := NewRegistry()
	g := r.NewGauge("liferaft_depth", "computed at scrape")
	r.OnGather(func() { g.Set(42) })
	out := render(t, r)
	if !strings.Contains(out, "liferaft_depth 42") {
		t.Errorf("gather callback did not run:\n%s", out)
	}
}

func TestDuplicateFamilyPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("liferaft_dup_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.NewGauge("liferaft_dup_total", "y")
}

// itoa avoids strconv in hot test loops for no reason other than keeping
// the imports minimal.
func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	p := len(buf)
	for i > 0 {
		p--
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[p:])
}

// TestEscapeLabelTable pins the text-format escaping rules for label
// values character by character. Exemplar emission raised the stakes:
// a malformed escape inside `# {trace_id="..."}` breaks the whole
// scrape, not just one series.
func TestEscapeLabelTable(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"plain", "abc-123", "abc-123"},
		{"backslash", `a\b`, `a\\b`},
		{"quote", `a"b`, `a\"b`},
		{"newline", "a\nb", `a\nb`},
		{"all three", "\\\"\n", `\\\"\n`},
		{"double backslash", `\\`, `\\\\`},
		{"trailing backslash", `trail\`, `trail\\`},
		{"carriage return passes", "a\rb", "a\rb"},
		{"tab passes", "a\tb", "a\tb"},
		{"utf8 passes", "αβ≠", "αβ≠"},
		{"empty", "", ""},
	}
	for _, c := range cases {
		if got := escapeLabel(c.in); got != c.want {
			t.Errorf("%s: escapeLabel(%q) = %q, want %q", c.name, c.in, got, c.want)
		}
	}

	// End to end: a hostile label value renders into exactly one
	// well-formed line.
	r := NewRegistry()
	v := r.NewCounterVec("liferaft_esc_total", "x", []string{"tenant"}, VecOpts{})
	v.With("a\\b\"c\nd").Inc()
	out := render(t, r)
	want := `liferaft_esc_total{tenant="a\\b\"c\nd"} 1` + "\n"
	if !strings.Contains(out, want) {
		t.Fatalf("output missing %q:\n%s", want, out)
	}
}

// TestHistogramExemplar checks ObserveExemplar: counts behave exactly
// like Observe, and the bucket line the value landed in carries an
// OpenMetrics `# {trace_id="..."} value` suffix — the freshest exemplar
// per bucket wins, and untouched buckets stay clean.
func TestHistogramExemplar(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("liferaft_test_seconds", "exemplars", []float64{0.1, 1, 10})

	h.Observe(0.05) // no exemplar on this bucket
	h.ObserveExemplar(0.5, "00000000deadbeef")
	h.ObserveExemplar(0.7, "00000000cafef00d") // same bucket: replaces
	h.ObserveExemplar(99, "ffff0000ffff0000")  // +Inf bucket
	h.ObserveExemplar(5, "")                   // empty id: plain observe

	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	out := render(t, r)
	for _, want := range []string{
		"liferaft_test_seconds_bucket{le=\"0.1\"} 1\n", // no exemplar suffix
		"liferaft_test_seconds_bucket{le=\"1\"} 3 # {trace_id=\"00000000cafef00d\"} 0.7\n",
		"liferaft_test_seconds_bucket{le=\"10\"} 4\n", // empty-id observe left it clean
		"liferaft_test_seconds_bucket{le=\"+Inf\"} 5 # {trace_id=\"ffff0000ffff0000\"} 99\n",
		"liferaft_test_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, `deadbeef`) {
		t.Error("replaced exemplar still rendered")
	}
}

// TestHistogramVecExemplar: exemplars work on labeled histograms and
// only on the series that recorded them.
func TestHistogramVecExemplar(t *testing.T) {
	r := NewRegistry()
	v := r.NewHistogramVec("liferaft_test_seconds", "x", []string{"tenant"}, []float64{1}, VecOpts{})
	v.With("a").ObserveExemplar(0.5, "0123456789abcdef")
	v.With("b").Observe(0.5)
	out := render(t, r)
	if !strings.Contains(out, "liferaft_test_seconds_bucket{tenant=\"a\",le=\"1\"} 1 # {trace_id=\"0123456789abcdef\"} 0.5\n") {
		t.Fatalf("missing exemplar on tenant a:\n%s", out)
	}
	if !strings.Contains(out, "liferaft_test_seconds_bucket{tenant=\"b\",le=\"1\"} 1\n") {
		t.Fatalf("tenant b line not clean:\n%s", out)
	}
}

// TestNilHandlesAreNoOps pins the package's nil contract: every recording
// method on a nil handle, and With on a nil vec, returns without a panic
// and without allocating, so a layer built without a Registry records
// through the same calls as an instrumented one.
func TestNilHandlesAreNoOps(t *testing.T) {
	var (
		c  *Counter
		g  *Gauge
		h  *Histogram
		cv *CounterVec
		gv *GaugeVec
		hv *HistogramVec
	)
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"Counter.Add", func() { c.Add(2) }},
		{"Counter.Inc", func() { c.Inc() }},
		{"Gauge.Set", func() { g.Set(3) }},
		{"Gauge.Add", func() { g.Add(-1) }},
		{"Gauge.Inc", func() { g.Inc() }},
		{"Gauge.Dec", func() { g.Dec() }},
		{"Histogram.Observe", func() { h.Observe(0.5) }},
		{"Histogram.ObserveExemplar", func() { h.ObserveExemplar(0.5, "00000000deadbeef") }},
		{"CounterVec.With", func() { cv.With("a", "b").Inc() }},
		{"GaugeVec.With", func() { gv.With("a").Set(1) }},
		{"HistogramVec.With", func() { hv.With("a", "b").Observe(1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if allocs := testing.AllocsPerRun(100, tc.call); allocs != 0 {
				t.Errorf("%s on a nil handle: %v allocs, want 0", tc.name, allocs)
			}
		})
	}
	if cv.With("a") != nil || gv.With("a") != nil || hv.With("a") != nil {
		t.Error("With on a nil vec returned a live handle")
	}
}
