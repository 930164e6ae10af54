// Package metric is a dependency-free Prometheus-client: counters,
// gauges, and histograms, optionally split by label values, registered
// in a Registry that renders the Prometheus text exposition format
// (text/plain; version=0.0.4) for a /metrics endpoint.
//
// Two properties matter more here than API familiarity:
//
//   - Observation is cheap and allocation-free. Handles (Counter, Gauge,
//     Histogram) are resolved once and then touched with a few atomic
//     operations, so the engine's zero-alloc service loop can be
//     instrumented without perturbing what it measures. Vec lookups
//     (With) take a mutex and are meant for admission-rate paths, not
//     per-pick paths.
//
//   - Label cardinality is bounded by construction. Every Vec carries a
//     MaxSeries cap; when a new label set would exceed it, the
//     least-recently-used series is folded into a reserved overflow
//     series (label value "_other") and its slot reused. Counter and
//     histogram totals are conserved across folding, so aggregate rates
//     stay correct while a 10k-tenant churn cannot grow the registry —
//     or a scrape — without bound. See docs/OPERATIONS.md.
//
// The package depends only on the standard library and exposes no
// global state: tests and multi-node processes build as many registries
// as they need.
package metric

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// OverflowLabel is the reserved label value that absorbs series evicted
// from a full Vec. Callers must not use it as a real label value.
const OverflowLabel = "_other"

// DefaultMaxSeries bounds a Vec's series count when the constructor is
// given no explicit cap.
const DefaultMaxSeries = 512

// kind is the metric family type, named exactly as the text format spells
// it.
type kind string

const (
	kindCounter   kind = "counter"
	kindGauge     kind = "gauge"
	kindHistogram kind = "histogram"
)

// Registry holds metric families and renders them in the text format.
// All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string // sorted family names, rebuilt on registration
	gathers  []func()
}

// family is one named metric: a fixed type, help text, label schema, and
// a bounded set of series.
type family struct {
	name      string
	help      string
	typ       kind
	labels    []string
	buckets   []float64 // histogram upper bounds, ascending, no +Inf
	maxSeries int

	mu       sync.Mutex
	series   map[string]*series // key: joined label values
	overflow *series            // lazily created eviction sink
	clock    uint64             // LRU ticks for eviction order
}

// series is one labeled time series. Values are atomics so handle
// operations never take the family lock.
type series struct {
	labelVals []string
	touched   atomic.Uint64 // family.clock at last With resolution

	// counter/gauge payload.
	bits atomic.Uint64 // float64 bits

	// histogram payload (nil for counter/gauge): cumulative on render,
	// per-bucket on observe. counts[len(buckets)] is the +Inf bucket.
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	total   atomic.Uint64

	// exemplars[i] is the most recent trace-annotated observation that
	// landed in bucket i (nil when none); same length as counts. Only
	// ObserveExemplar writes here, so untraced observation paths pay
	// nothing.
	exemplars []atomic.Pointer[exemplar]
}

// exemplar is one trace-annotated observation, rendered after its bucket
// line as OpenMetrics `# {trace_id="..."} value` so a dashboard spike
// links straight to a captured trace.
type exemplar struct {
	traceID string
	value   float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// OnGather registers f to run at the start of every WriteText — the hook
// for gauges computed from live state (queue depths, rates) instead of
// updated on every transition.
func (r *Registry) OnGather(f func()) {
	r.mu.Lock()
	r.gathers = append(r.gathers, f)
	r.mu.Unlock()
}

// register adds a family, panicking on a name or type conflict:
// registration happens at construction time and a conflict is a
// programming error, exactly like a duplicate flag name.
func (r *Registry) register(name, help string, typ kind, labels []string, buckets []float64, maxSeries int) *family {
	if err := checkName(name); err != nil {
		panic(fmt.Sprintf("metric: %v", err))
	}
	for _, l := range labels {
		if err := checkName(l); err != nil {
			panic(fmt.Sprintf("metric: family %s: label %v", name, err))
		}
	}
	if maxSeries <= 0 {
		maxSeries = DefaultMaxSeries
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("metric: duplicate family %q", name))
	}
	f := &family{
		name: name, help: help, typ: typ, labels: labels,
		buckets: buckets, maxSeries: maxSeries,
		series: make(map[string]*series),
	}
	r.families[name] = f
	r.names = append(r.names, name)
	sort.Strings(r.names)
	return f
}

// checkName enforces the Prometheus metric/label name charset.
func checkName(s string) error {
	if s == "" {
		return fmt.Errorf("empty name")
	}
	for i, c := range s {
		alpha := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && !(i > 0 && c >= '0' && c <= '9') {
			return fmt.Errorf("invalid name %q", s)
		}
	}
	return nil
}

// ---- Unlabeled handles ----

// Counter is a monotonically increasing value.
type Counter struct{ s *series }

// Add increases the counter by v; negative v panics (counters only go
// up — use a Gauge for values that fall).
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("metric: counter decrease")
	}
	addFloat(&c.s.bits, v)
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.s.bits.Load()) }

// Gauge is a value that can go up and down.
type Gauge struct{ s *series }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.s.bits.Store(math.Float64bits(v)) }

// Add increases (or with negative v decreases) the gauge.
func (g *Gauge) Add(v float64) { addFloat(&g.s.bits, v) }

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.s.bits.Load()) }

// Histogram counts observations into cumulative buckets.
type Histogram struct {
	s       *series
	buckets []float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search beats linear walk from ~16 buckets; latency
	// histograms here have 10-20. sort.SearchFloat64s allocates nothing.
	i := sort.SearchFloat64s(h.buckets, v)
	h.s.counts[i].Add(1)
	h.s.total.Add(1)
	addFloat(&h.s.sumBits, v)
}

// ObserveExemplar records one value and attaches traceID as the bucket's
// exemplar (replacing any earlier one — the freshest trace is the one an
// operator wants). An empty traceID degrades to a plain Observe. Unlike
// Observe this allocates; call it only on already-traced requests.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	i := sort.SearchFloat64s(h.buckets, v)
	h.s.counts[i].Add(1)
	h.s.total.Add(1)
	addFloat(&h.s.sumBits, v)
	if traceID != "" {
		h.s.exemplars[i].Store(&exemplar{traceID: traceID, value: v})
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.s.total.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.s.sumBits.Load()) }

// addFloat atomically adds v to a float64 stored as uint64 bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// ---- Constructors ----

// NewCounter registers an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, nil, nil, 1)
	return &Counter{s: f.getOrCreate(nil)}
}

// NewGauge registers an unlabeled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	f := r.register(name, help, kindGauge, nil, nil, 1)
	return &Gauge{s: f.getOrCreate(nil)}
}

// NewHistogram registers an unlabeled histogram with the given ascending
// bucket upper bounds (the implicit +Inf bucket is added automatically;
// nil means DefBuckets).
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	b := checkBuckets(name, buckets)
	f := r.register(name, help, kindHistogram, nil, b, 1)
	return &Histogram{s: f.getOrCreate(nil), buckets: b}
}

// VecOpts tunes a labeled family.
type VecOpts struct {
	// MaxSeries caps the number of live series (default
	// DefaultMaxSeries). At the cap, resolving a new label set folds the
	// least-recently-resolved series into the "_other" overflow series.
	MaxSeries int
}

// CounterVec is a counter family split by label values.
type CounterVec struct{ f *family }

// GaugeVec is a gauge family split by label values.
type GaugeVec struct{ f *family }

// HistogramVec is a histogram family split by label values.
type HistogramVec struct{ f *family }

// NewCounterVec registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels []string, opts VecOpts) *CounterVec {
	if len(labels) == 0 {
		panic("metric: vec with no labels")
	}
	return &CounterVec{f: r.register(name, help, kindCounter, labels, nil, opts.MaxSeries)}
}

// NewGaugeVec registers a labeled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labels []string, opts VecOpts) *GaugeVec {
	if len(labels) == 0 {
		panic("metric: vec with no labels")
	}
	return &GaugeVec{f: r.register(name, help, kindGauge, labels, nil, opts.MaxSeries)}
}

// NewHistogramVec registers a labeled histogram family.
func (r *Registry) NewHistogramVec(name, help string, labels []string, buckets []float64, opts VecOpts) *HistogramVec {
	if len(labels) == 0 {
		panic("metric: vec with no labels")
	}
	b := checkBuckets(name, buckets)
	return &HistogramVec{f: r.register(name, help, kindHistogram, labels, b, opts.MaxSeries)}
}

// With resolves the series for the given label values (one per declared
// label, in declaration order), creating — or, at the cardinality cap,
// evicting for — it as needed. Hold the returned handle briefly: a
// handle kept across evictions keeps writing, but to a series no longer
// rendered. Re-resolving on each use is what keeps the LRU honest.
func (v *CounterVec) With(labelVals ...string) *Counter {
	return &Counter{s: v.f.resolve(labelVals)}
}

// With resolves the series for the given label values; see
// CounterVec.With.
func (v *GaugeVec) With(labelVals ...string) *Gauge {
	return &Gauge{s: v.f.resolve(labelVals)}
}

// With resolves the series for the given label values; see
// CounterVec.With.
func (v *HistogramVec) With(labelVals ...string) *Histogram {
	return &Histogram{s: v.f.resolve(labelVals), buckets: v.f.buckets}
}

// Series returns the number of live series in the family, including the
// overflow series once created. It never exceeds MaxSeries+1.
func (v *CounterVec) Series() int { return v.f.count() }

// Series returns the number of live series; see CounterVec.Series.
func (v *GaugeVec) Series() int { return v.f.count() }

// Series returns the number of live series; see CounterVec.Series.
func (v *HistogramVec) Series() int { return v.f.count() }

// DefBuckets are general-purpose latency buckets in seconds, the
// Prometheus client defaults.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// ExpBuckets returns n ascending buckets starting at start, each factor
// times the last — the shape for latencies spanning decades (a pick
// costs microseconds, a cold scan seconds).
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("metric: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// checkBuckets validates ascending order and defaults nil to DefBuckets.
func checkBuckets(name string, buckets []float64) []float64 {
	if buckets == nil {
		buckets = DefBuckets
	}
	if len(buckets) == 0 {
		panic(fmt.Sprintf("metric: histogram %s: no buckets", name))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("metric: histogram %s: buckets not ascending at %d", name, i))
		}
	}
	// Strip a trailing +Inf: the implicit overflow bucket always exists.
	if math.IsInf(buckets[len(buckets)-1], 1) {
		buckets = buckets[:len(buckets)-1]
	}
	return buckets
}

// ---- Family internals ----

// seriesKey joins label values; 0x1f cannot appear in rendered values
// unescaped ambiguity-free, and label values containing it still produce
// distinct keys because it is preserved verbatim.
func seriesKey(labelVals []string) string { return strings.Join(labelVals, "\x1f") }

// newSeries builds an empty series for the family's type.
func (f *family) newSeries(labelVals []string) *series {
	s := &series{labelVals: labelVals}
	if f.typ == kindHistogram {
		s.counts = make([]atomic.Uint64, len(f.buckets)+1)
		s.exemplars = make([]atomic.Pointer[exemplar], len(f.buckets)+1)
	}
	return s
}

// getOrCreate is resolve without the eviction policy, used for the
// single series of unlabeled families.
func (f *family) getOrCreate(labelVals []string) *series {
	f.mu.Lock()
	defer f.mu.Unlock()
	key := seriesKey(labelVals)
	if s := f.series[key]; s != nil {
		return s
	}
	s := f.newSeries(labelVals)
	f.series[key] = s
	return s
}

// resolve returns the series for labelVals, evicting the LRU series into
// the overflow sink when the family is at its cardinality cap.
func (f *family) resolve(labelVals []string) *series {
	if len(labelVals) != len(f.labels) {
		panic(fmt.Sprintf("metric: family %s wants %d label values, got %d",
			f.name, len(f.labels), len(labelVals)))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.clock++
	key := seriesKey(labelVals)
	if s := f.series[key]; s != nil {
		s.touched.Store(f.clock)
		return s
	}
	if len(f.series) >= f.maxSeries {
		f.evictLocked()
	}
	vals := make([]string, len(labelVals))
	copy(vals, labelVals)
	s := f.newSeries(vals)
	s.touched.Store(f.clock)
	f.series[key] = s
	return s
}

// evictLocked folds the least-recently-resolved series into the overflow
// series and removes it. Counter and histogram payloads are added into
// the sink so family totals are conserved; gauge payloads are dropped
// (summing point-in-time values of different series is meaningless).
func (f *family) evictLocked() {
	if f.overflow == nil {
		vals := make([]string, len(f.labels))
		for i := range vals {
			vals[i] = OverflowLabel
		}
		f.overflow = f.newSeries(vals)
	}
	var victimKey string
	var victim *series
	oldest := uint64(math.MaxUint64)
	for k, s := range f.series {
		if t := s.touched.Load(); t < oldest {
			oldest, victimKey, victim = t, k, s
		}
	}
	if victim == nil {
		return
	}
	switch f.typ {
	case kindCounter:
		addFloat(&f.overflow.bits, math.Float64frombits(victim.bits.Load()))
	case kindHistogram:
		for i := range victim.counts {
			f.overflow.counts[i].Add(victim.counts[i].Load())
		}
		f.overflow.total.Add(victim.total.Load())
		addFloat(&f.overflow.sumBits, math.Float64frombits(victim.sumBits.Load()))
	}
	delete(f.series, victimKey)
}

// count returns live series, including the overflow sink.
func (f *family) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.series)
	if f.overflow != nil {
		n++
	}
	return n
}

// ---- Rendering ----

// WriteText renders every family in the Prometheus text exposition
// format, families and series in sorted order so scrapes are
// deterministic and diffable. Gather callbacks run first.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	gathers := append([]func(){}, r.gathers...)
	names := append([]string{}, r.names...)
	r.mu.Unlock()
	for _, g := range gathers {
		g()
	}
	var b strings.Builder
	for _, name := range names {
		r.mu.Lock()
		f := r.families[name]
		r.mu.Unlock()
		f.writeText(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeText renders one family.
func (f *family) writeText(b *strings.Builder) {
	f.mu.Lock()
	all := make([]*series, 0, len(f.series)+1)
	for _, s := range f.series {
		all = append(all, s)
	}
	if f.overflow != nil {
		all = append(all, f.overflow)
	}
	f.mu.Unlock()
	if len(all) == 0 {
		return
	}
	sort.Slice(all, func(i, j int) bool {
		return lessLabels(all[i].labelVals, all[j].labelVals)
	})
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	for _, s := range all {
		switch f.typ {
		case kindHistogram:
			f.writeHistogram(b, s)
		default:
			fmt.Fprintf(b, "%s%s %s\n", f.name, f.labelString(s.labelVals, ""), formatValue(math.Float64frombits(s.bits.Load())))
		}
	}
}

// writeHistogram renders the cumulative _bucket/_sum/_count triplet,
// appending an OpenMetrics exemplar to any bucket line that has one.
func (f *family) writeHistogram(b *strings.Builder, s *series) {
	var cum uint64
	for i, ub := range f.buckets {
		cum += s.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d", f.name, f.labelString(s.labelVals, formatValue(ub)), cum)
		f.writeExemplar(b, s, i)
		b.WriteByte('\n')
	}
	cum += s.counts[len(f.buckets)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d", f.name, f.labelString(s.labelVals, "+Inf"), cum)
	f.writeExemplar(b, s, len(f.buckets))
	b.WriteByte('\n')
	fmt.Fprintf(b, "%s_sum%s %s\n", f.name, f.labelString(s.labelVals, ""), formatValue(math.Float64frombits(s.sumBits.Load())))
	fmt.Fprintf(b, "%s_count%s %d\n", f.name, f.labelString(s.labelVals, ""), s.total.Load())
}

// writeExemplar appends bucket i's exemplar suffix, if recorded.
func (f *family) writeExemplar(b *strings.Builder, s *series, i int) {
	if i >= len(s.exemplars) {
		return
	}
	if ex := s.exemplars[i].Load(); ex != nil {
		fmt.Fprintf(b, ` # {trace_id="%s"} %s`, escapeLabel(ex.traceID), formatValue(ex.value))
	}
}

// labelString renders {k="v",...}; le, when non-empty, is appended as the
// histogram bucket bound label.
func (f *family) labelString(vals []string, le string) string {
	if len(vals) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range f.labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l, escapeLabel(vals[i]))
	}
	if le != "" {
		if len(vals) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `le="%s"`, le)
	}
	b.WriteByte('}')
	return b.String()
}

// formatValue renders a float the way Prometheus expects: integers
// without an exponent, specials as +Inf/-Inf/NaN.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%g", v)
	}
}

// escapeLabel escapes a label value per the text format: backslash,
// double quote, and newline. The format is UTF-8, so everything else
// passes through verbatim (%q would over-escape non-ASCII).
func escapeLabel(v string) string {
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp escapes help text (backslash and newline only, per format).
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// lessLabels orders label value tuples lexicographically.
func lessLabels(a, b []string) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
