// Package trace is a dependency-free, allocation-conscious span recorder
// for request-scoped forensics: every query carries a trace from the
// gateway down through admission, the fair queue, the engine's bucket
// schedule, the store, and federation hops, so "why was *this* query
// slow?" — the hardest operational question a batch scheduler faces —
// has a post-hoc answer.
//
// The design mirrors internal/metric's nil-guard discipline: a nil
// *Trace (tracing disabled) makes every recording method a no-op with
// no allocation, so the engine's zero-alloc service loop stays
// zero-alloc; an enabled trace records into a fixed-size span slab
// under a mutex (shards and goroutines write concurrently) and never
// grows. Finished traces land in two bounded ring buffers — recent and
// slow — surfaced by the /debug/traces JSON endpoints, by OpenMetrics
// exemplars on latency histograms, and by skyquery -trace.
package trace

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"
)

// ID identifies one trace across nodes. 0 means "no trace" on the wire.
type ID uint64

// String renders the canonical 16-hex-digit form used in exemplars,
// /debug/traces URLs, and /v1/query responses.
func (id ID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// ParseID parses the canonical hex form (with or without leading zeros).
func ParseID(s string) (ID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("trace: bad id %q: %w", s, err)
	}
	return ID(v), nil
}

// MarshalJSON renders the ID as its canonical hex string.
func (id ID) MarshalJSON() ([]byte, error) { return []byte(`"` + id.String() + `"`), nil }

// UnmarshalJSON accepts the canonical hex string.
func (id *ID) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("trace: bad id json %s", b)
	}
	v, err := ParseID(string(b[1 : len(b)-1]))
	if err != nil {
		return err
	}
	*id = v
	return nil
}

// Span stages recorded across the serving path. Attr carries the
// stage-specific detail (admission decision, join strategy); N, Key, and
// Score carry stage-specific numbers without formatting on the hot path.
const (
	StageAdmission   = "admission"      // serving-layer decision; Attr = admitted/rejected_*
	StageQueueWait   = "queue_wait"     // fair-queue residence, admission to dispatch
	StageEngine      = "engine"         // dispatch to engine completion (envelope)
	StageEngineAdmit = "engine_admit"   // pre-processor fan-out; N = assignments
	StageService     = "engine_service" // one bucket service touching this query; Attr = strategy, Key = bucket, Score = Ut, N = work units retired
	StageStoreRead   = "store_read"     // the service's store I/O; Attr = scan/probe, Key = bucket
	StageCancel      = "engine_cancel"  // query withdrawn from the queues
	StageFedExtract  = "federation_extract"
	StageFedMatch    = "federation_match" // one cross-match hop; Node = archive, N = shipped objects
)

// Join-strategy Attr values for StageService.
const (
	AttrScanHit  = "scan_hit"  // bucket served from the cache
	AttrScanCold = "scan_cold" // bucket read from the store
	AttrIndex    = "index"     // index probes instead of a full read
)

// Span is one recorded interval (or instant, when Start == End).
type Span struct {
	Stage string    `json:"stage"`
	Node  string    `json:"node,omitempty"` // remote archive for stitched/federation spans
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	Attr  string    `json:"attr,omitempty"`
	N     int64     `json:"n,omitempty"`     // stage-specific count (objects, assignments)
	Key   int64     `json:"key,omitempty"`   // stage-specific index (bucket)
	Score float64   `json:"score,omitempty"` // Ut(i) at service time
	Err   string    `json:"err,omitempty"`
}

// MaxSpans bounds the per-trace span slab. A query serviced across more
// bucket picks than this keeps its earliest spans and counts the rest as
// dropped; the slab never grows, so a pathological query cannot turn the
// recorder into a memory leak.
const MaxSpans = 96

// Trace accumulates one query's spans. All methods are safe for
// concurrent use (shard workers record concurrently) and are no-ops on a
// nil receiver, so call sites need no tracing-enabled checks.
type Trace struct {
	id      ID
	tenant  string
	queryID uint64
	start   time.Time
	now     func() time.Time // the starting recorder's clock

	sampled bool

	mu sync.Mutex
	// spans grows on demand up to MaxSpans. A trace of a cached query
	// records a handful of spans; eagerly reserving the full slab would
	// make every trace pay MaxSpans worth of zeroing and GC scanning for
	// the worst case only disk-bound queries reach.
	spans       []Span
	dropped     int
	cacheHits   int64
	cacheMisses int64
}

// ID returns the trace ID, 0 on a nil trace.
func (t *Trace) ID() ID {
	if t == nil {
		return 0
	}
	return t.id
}

// Sampled reports whether this trace was selected by the recorder's
// sample rate (false on a nil trace). Sampling is a pure function of the
// trace ID, so every node a federated query touches agrees on it, and it
// gates only where the finished trace is *published* — the recent-ring
// archive, response trace_ids, exemplars — never what is recorded: spans
// still accumulate so a trace that turns out slow is force-captured in
// full.
func (t *Trace) Sampled() bool {
	if t == nil {
		return false
	}
	return t.sampled
}

// StartTime returns when the trace was started, the zero time on a nil
// trace. Instrumentation uses it to open a span at request arrival (e.g.
// the admission span covers arrival → decision).
func (t *Trace) StartTime() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// Now reads the clock of the recorder that started the trace (real or
// virtual), falling back to the wall clock on a nil trace. Layers
// without their own clock — the federation portal — stamp spans with it
// so every span shares the trace's time base.
func (t *Trace) Now() time.Time {
	if t == nil || t.now == nil {
		return time.Now()
	}
	return t.now()
}

// Add records one span; past MaxSpans it counts the span as dropped.
func (t *Trace) Add(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.add(s)
	t.mu.Unlock()
}

// add appends under the caller-held lock, counting overflow.
func (t *Trace) add(s Span) {
	if len(t.spans) < MaxSpans {
		if t.spans == nil {
			t.spans = make([]Span, 0, 16)
		}
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
}

// ServiceVisit records one bucket service touching this query — the
// service span, an optional store-read span (nil = cache hit, the
// common case, which then skips a span-sized copy), and the cache
// outcome — under a single lock. The service loop emits the three
// together for every (query, service) incidence, so batching them cuts
// the hot path from three lock round-trips to one.
func (t *Trace) ServiceVisit(svc Span, read *Span, hit bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.add(svc)
	if read != nil {
		t.add(*read)
	}
	if hit {
		t.cacheHits++
	} else {
		t.cacheMisses++
	}
	t.mu.Unlock()
}

// Cache counts one bucket-cache outcome attributed to this query.
func (t *Trace) Cache(hit bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if hit {
		t.cacheHits++
	} else {
		t.cacheMisses++
	}
	t.mu.Unlock()
}

// Data is a finished (or in-flight) trace snapshot — the JSON shape
// /debug/traces serves.
type Data struct {
	TraceID     ID        `json:"trace_id"`
	Tenant      string    `json:"tenant,omitempty"`
	QueryID     uint64    `json:"query_id,omitempty"`
	Start       time.Time `json:"start"`
	End         time.Time `json:"end"`
	ResponseSec float64   `json:"response_sec"`
	Slow        bool      `json:"slow,omitempty"`
	Sampled     bool      `json:"sampled,omitempty"`
	CacheHits   int64     `json:"cache_hits,omitempty"`
	CacheMisses int64     `json:"cache_misses,omitempty"`
	Dropped     int       `json:"spans_dropped,omitempty"`
	Spans       []Span    `json:"spans"`
}

// Snapshot copies the trace's current state. End/ResponseSec are zero
// until the recorder finishes the trace.
func (t *Trace) Snapshot() Data {
	return t.snapshot(true)
}

// snapshot builds the Data view. When copySpans is false the snapshot
// aliases the slab instead of copying it — only Finish does this: the
// trace is terminal there, and a straggler Add (a cancel racing
// completion) appends past the snapshot's length without disturbing it.
func (t *Trace) snapshot(copySpans bool) Data {
	if t == nil {
		return Data{}
	}
	t.mu.Lock()
	spans := t.spans[:len(t.spans):len(t.spans)]
	if copySpans {
		spans = append([]Span(nil), t.spans...)
	}
	d := Data{
		TraceID: t.id, Tenant: t.tenant, QueryID: t.queryID, Start: t.start,
		CacheHits: t.cacheHits, CacheMisses: t.cacheMisses, Dropped: t.dropped,
		Spans: spans,
	}
	t.mu.Unlock()
	return d
}

// WireSpan is a span as shipped across the federation transport: times
// become nanosecond offsets from the trace start, so the caller can
// rebase a remote node's spans onto its own clock (the two clocks — one
// possibly virtual — share no epoch).
type WireSpan struct {
	Stage   string
	Attr    string
	Err     string
	N, Key  int64
	Score   float64
	StartNs int64
	EndNs   int64
}

// Wire exports the trace's spans in wire form (offsets from trace start).
func (t *Trace) Wire() []WireSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]WireSpan, len(t.spans))
	for i, s := range t.spans {
		out[i] = WireSpan{
			Stage: s.Stage, Attr: s.Attr, Err: s.Err, N: s.N, Key: s.Key, Score: s.Score,
			StartNs: s.Start.Sub(t.start).Nanoseconds(),
			EndNs:   s.End.Sub(t.start).Nanoseconds(),
		}
	}
	t.mu.Unlock()
	return out
}

// Stitch rebases a remote node's wire spans onto base (the local hop
// start) and records them under the given node name, so a cross-match
// hop's remote schedule appears inside the caller's trace.
func (t *Trace) Stitch(node string, base time.Time, spans []WireSpan) {
	if t == nil {
		return
	}
	for _, w := range spans {
		t.Add(Span{
			Stage: w.Stage, Node: node, Attr: w.Attr, Err: w.Err,
			N: w.N, Key: w.Key, Score: w.Score,
			Start: base.Add(time.Duration(w.StartNs)),
			End:   base.Add(time.Duration(w.EndNs)),
		})
	}
}

// Config tunes a Recorder.
type Config struct {
	// Now is the recorder's clock; nil means time.Now. A node on a
	// virtual clock passes its engine clock so trace timestamps line up
	// with the schedule being traced.
	Now func() time.Time
	// SlowThreshold routes finished traces whose response time meets or
	// exceeds it into the slow ring (default 2s — pair it with the
	// serving layer's -slo-p99).
	SlowThreshold time.Duration
	// RecentCap and SlowCap bound the two rings (defaults 256 and 64).
	RecentCap, SlowCap int
	// Sample is the fraction of traces published (archived in the recent
	// ring, echoed as trace_id, attached as exemplars). <= 0 or >= 1
	// means every trace. Slow traces are always captured regardless of
	// the rate — sampling thins the routine traffic, not the forensics.
	// Selection is deterministic on the trace ID, so federated nodes
	// agree without coordination.
	Sample float64
}

// Recorder owns trace lifecycle: Start issues IDs, Finish stamps the
// response time and archives the trace into the bounded recent ring and
// — when the response exceeded the slow threshold — the slow ring, which
// a burst of fast queries cannot evict. All methods are safe for
// concurrent use and no-ops on a nil receiver (Start returns a nil
// *Trace, which disables recording downstream).
type Recorder struct {
	now           func() time.Time
	slowThreshold time.Duration
	sampleCut     uint64 // IDs <= cut are sampled; MaxUint64 = all

	mu         sync.Mutex
	seed       uint64
	seq        uint64
	recent     []Data // ring, recentAt is the next write slot
	recentAt   int
	slow       []Data
	slowAt     int
	started    uint64
	finished   uint64
	slowN      uint64
	sampledOut uint64 // finished unsampled (and not slow): recorded but unpublished
}

// New builds a Recorder.
func New(cfg Config) *Recorder {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.SlowThreshold <= 0 {
		cfg.SlowThreshold = 2 * time.Second
	}
	if cfg.RecentCap <= 0 {
		cfg.RecentCap = 256
	}
	if cfg.SlowCap <= 0 {
		cfg.SlowCap = 64
	}
	cut := uint64(math.MaxUint64)
	if cfg.Sample > 0 && cfg.Sample < 1 {
		cut = uint64(cfg.Sample * float64(math.MaxUint64))
	}
	return &Recorder{
		now:           cfg.Now,
		slowThreshold: cfg.SlowThreshold,
		sampleCut:     cut,
		// Construction-time entropy for ID generation; wall time is fine
		// here even under a virtual clock (it is a seed, not a stamp).
		seed:   uint64(time.Now().UnixNano()),
		recent: make([]Data, 0, cfg.RecentCap),
		slow:   make([]Data, 0, cfg.SlowCap),
	}
}

// splitmix64 is the ID mixer (Steele et al.): one multiply-shift chain
// turns the sequential counter into well-distributed IDs.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Start begins a trace for one query. Returns nil on a nil recorder.
func (r *Recorder) Start(tenant string, queryID uint64) *Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	var id ID
	for id == 0 {
		r.seq++
		id = ID(splitmix64(r.seed ^ r.seq))
	}
	r.started++
	r.mu.Unlock()
	return &Trace{id: id, tenant: tenant, queryID: queryID, start: r.now(), now: r.now,
		sampled: uint64(id) <= r.sampleCut}
}

// StartRemote begins a continuation trace under a caller-issued ID — the
// remote half of a federation hop, whose spans ship back and stitch into
// the caller's trace. Returns nil on a nil recorder or a zero ID. The
// sampling decision is recomputed from the shared ID, so it matches the
// caller's when both run the same rate.
func (r *Recorder) StartRemote(id ID, tenant string, queryID uint64) *Trace {
	if r == nil || id == 0 {
		return nil
	}
	r.mu.Lock()
	r.started++
	r.mu.Unlock()
	return &Trace{id: id, tenant: tenant, queryID: queryID, start: r.now(), now: r.now,
		sampled: uint64(id) <= r.sampleCut}
}

// Finish stamps the trace's end, archives it, and returns the snapshot.
// Safe on a nil recorder or nil trace (returns a zero Data).
func (r *Recorder) Finish(t *Trace) Data {
	if r == nil || t == nil {
		return Data{}
	}
	d := t.snapshot(false)
	// The capture ends at the last recorded span, not at the Finish call:
	// under a virtual clock, concurrent engine work can advance time
	// between query completion and capture, and that drift belongs to no
	// stage of this query's serving path. ResponseSec then matches the
	// completion-anchored liferaft_response_seconds observation the
	// exemplar points at. Finish time is the fallback for span-less
	// traces.
	d.End = r.now()
	if last := lastSpanEnd(d.Spans); !last.IsZero() && !last.Before(d.Start) && last.Before(d.End) {
		d.End = last
	}
	d.ResponseSec = d.End.Sub(d.Start).Seconds()
	d.Slow = d.End.Sub(d.Start) >= r.slowThreshold
	d.Sampled = t.sampled
	r.mu.Lock()
	r.finished++
	// Sampling gates the recent-ring archive only; a slow trace is
	// force-captured even when unsampled (the rate thins routine traffic,
	// not forensics), and the slow ring below never consults the rate.
	if d.Sampled || d.Slow {
		if len(r.recent) < cap(r.recent) {
			r.recent = append(r.recent, d)
		} else {
			r.recent[r.recentAt] = d
		}
		r.recentAt = (r.recentAt + 1) % cap(r.recent)
	} else {
		r.sampledOut++
	}
	if d.Slow {
		r.slowN++
		if len(r.slow) < cap(r.slow) {
			r.slow = append(r.slow, d)
		} else {
			r.slow[r.slowAt] = d
		}
		r.slowAt = (r.slowAt + 1) % cap(r.slow)
	}
	r.mu.Unlock()
	return d
}

// lastSpanEnd returns the latest span end time, the zero time for an
// empty slice.
func lastSpanEnd(spans []Span) time.Time {
	var last time.Time
	for _, sp := range spans {
		if sp.End.After(last) {
			last = sp.End
		}
	}
	return last
}

// ringNewestFirst flattens a ring into newest-first order. next is the
// next write slot, so next-1 is the newest entry.
func ringNewestFirst(ring []Data, next int) []Data {
	out := make([]Data, 0, len(ring))
	for i := 0; i < len(ring); i++ {
		out = append(out, ring[(next-1-i+2*len(ring))%len(ring)])
	}
	return out
}

// Recent returns the finished traces still in the recent ring, newest
// first.
func (r *Recorder) Recent() []Data {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return ringNewestFirst(r.recent, r.recentAt)
}

// Slow returns the slow-query capture buffer, newest first.
func (r *Recorder) Slow() []Data {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return ringNewestFirst(r.slow, r.slowAt)
}

// Get finds a finished trace by ID in either ring.
func (r *Recorder) Get(id ID) (Data, bool) {
	if r == nil {
		return Data{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ring := range [][]Data{r.slow, r.recent} {
		for i := range ring {
			if ring[i].TraceID == id {
				return ring[i], true
			}
		}
	}
	return Data{}, false
}

// Stats reports recorder lifetime counters: traces started, finished,
// classified slow, and sampled out (finished but unpublished — neither
// sampled nor slow).
func (r *Recorder) Stats() (started, finished, slow, sampledOut uint64) {
	if r == nil {
		return 0, 0, 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.started, r.finished, r.slowN, r.sampledOut
}
