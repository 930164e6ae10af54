package trace

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestIDRoundTrip(t *testing.T) {
	id := ID(0x0123456789abcdef)
	if got := id.String(); got != "0123456789abcdef" {
		t.Fatalf("String() = %q", got)
	}
	back, err := ParseID(id.String())
	if err != nil || back != id {
		t.Fatalf("ParseID round trip: %v %v", back, err)
	}
	if _, err := ParseID("not-hex"); err == nil {
		t.Fatal("ParseID accepted garbage")
	}
	b, err := json.Marshal(id)
	if err != nil || string(b) != `"0123456789abcdef"` {
		t.Fatalf("MarshalJSON = %s, %v", b, err)
	}
	var dec ID
	if err := json.Unmarshal(b, &dec); err != nil || dec != id {
		t.Fatalf("UnmarshalJSON = %v, %v", dec, err)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Trace
	tr.Add(Span{Stage: StageAdmission})
	tr.ServiceVisit(Span{Stage: StageService}, nil, true)
	tr.Stitch("x", time.Now(), []WireSpan{{Stage: "s"}})
	if tr.ID() != 0 || tr.Wire() != nil {
		t.Fatal("nil Trace leaked state")
	}
	if d := tr.Snapshot(); len(d.Spans) != 0 {
		t.Fatal("nil Snapshot has spans")
	}

	var r *Recorder
	if r.Start("t", 1) != nil {
		t.Fatal("nil Recorder started a trace")
	}
	if d := r.Finish(nil); d.TraceID != 0 {
		t.Fatal("nil Finish returned data")
	}
	if r.Recent() != nil || r.Slow() != nil {
		t.Fatal("nil rings non-empty")
	}
	if _, ok := r.Get(1); ok {
		t.Fatal("nil Get found a trace")
	}
}

func TestSlabBoundAndDropCount(t *testing.T) {
	r := New(Config{})
	tr := r.Start("t", 1)
	for i := 0; i < MaxSpans+10; i++ {
		tr.Add(Span{Stage: StageService, Key: int64(i)})
	}
	d := r.Finish(tr)
	if len(d.Spans) != MaxSpans {
		t.Fatalf("spans = %d, want %d", len(d.Spans), MaxSpans)
	}
	if d.Dropped != 10 {
		t.Fatalf("dropped = %d, want 10", d.Dropped)
	}
	// Earliest spans are the ones retained.
	if d.Spans[0].Key != 0 || d.Spans[MaxSpans-1].Key != MaxSpans-1 {
		t.Fatalf("slab kept wrong spans: first=%d last=%d", d.Spans[0].Key, d.Spans[MaxSpans-1].Key)
	}
}

func TestRingsAndSlowCapture(t *testing.T) {
	now := time.Unix(0, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	r := New(Config{Now: clock, SlowThreshold: time.Second})

	finishOne := func(d time.Duration) ID {
		tr := r.Start("t", 1)
		advance(d)
		data := r.Finish(tr)
		if want := d >= time.Second; data.Slow != want {
			t.Fatalf("dur %v: slow = %v, want %v", d, data.Slow, want)
		}
		return data.TraceID
	}

	slow1 := finishOne(3 * time.Second)
	var fast []ID
	for i := 0; i < recentCap+2; i++ { // overflow the recent ring
		fast = append(fast, finishOne(time.Millisecond))
	}

	// slow1 has been evicted from recent by the fast burst, but survives
	// in the slow ring — that is the whole point of the second ring.
	if _, ok := r.Get(slow1); !ok {
		t.Fatal("slow trace evicted by fast burst")
	}
	recent := r.Recent()
	if len(recent) != recentCap {
		t.Fatalf("recent len = %d, want %d", len(recent), recentCap)
	}
	if recent[0].TraceID != fast[len(fast)-1] {
		t.Fatalf("recent not newest-first: got %v want %v", recent[0].TraceID, fast[len(fast)-1])
	}

	// Overflow the slow ring too: slow1 and the first extra slow trace
	// are evicted, and the rest come back newest first.
	var slows []ID
	for i := 0; i < slowCap+1; i++ {
		slows = append(slows, finishOne(time.Duration(2+i%4)*time.Second))
	}
	got := r.Slow()
	if len(got) != slowCap {
		t.Fatalf("slow len = %d, want %d", len(got), slowCap)
	}
	for i, d := range got {
		if want := slows[len(slows)-1-i]; d.TraceID != want {
			t.Fatalf("slow ring[%d] = %v, want %v", i, d.TraceID, want)
		}
	}
	if _, ok := r.Get(slow1); ok {
		t.Fatal("slow1 survived a full slow ring after it")
	}
	n := uint64(1 + recentCap + 2 + slowCap + 1)
	started, finished, slowN, sampledOut := r.Stats()
	if started != n || finished != n || slowN != slowCap+2 || sampledOut != 0 {
		t.Fatalf("stats = %d/%d/%d/%d, want %d/%d/%d/0", started, finished, slowN, sampledOut, n, n, slowCap+2)
	}
}

func TestSamplingGatesRecentNotSlow(t *testing.T) {
	now := time.Unix(0, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	// Sample 1/64: over 2000 traces roughly 31 land in recent; exact
	// counts come from the deterministic ID cut, we only pin the
	// invariants.
	r := New(Config{Now: clock, SlowThreshold: time.Second, Sample: 1.0 / 64})
	sampledN := 0
	for i := 0; i < 2000; i++ {
		tr := r.Start("t", uint64(i))
		if tr.Sampled() {
			sampledN++
		}
		advance(time.Millisecond)
		d := r.Finish(tr)
		if d.Sampled != tr.Sampled() {
			t.Fatalf("trace %d: Data.Sampled %v != Trace.Sampled %v", i, d.Sampled, tr.Sampled())
		}
	}
	if sampledN == 0 || sampledN == 2000 {
		t.Fatalf("sampledN = %d; 1/64 sampling selected nothing or everything", sampledN)
	}
	if got := len(r.Recent()); got != sampledN {
		t.Fatalf("recent holds %d traces, want the %d sampled ones", got, sampledN)
	}
	_, finished, _, sampledOut := r.Stats()
	if finished != 2000 || sampledOut != 2000-uint64(sampledN) {
		t.Fatalf("finished/sampledOut = %d/%d, want 2000/%d", finished, sampledOut, 2000-uint64(sampledN))
	}

	// A slow trace is force-captured even when unsampled: find an
	// unsampled ID and finish it past the threshold.
	var slow *Trace
	for i := 0; slow == nil; i++ {
		tr := r.Start("t", uint64(i))
		if !tr.Sampled() {
			slow = tr
		} else {
			r.Finish(tr)
		}
	}
	advance(5 * time.Second)
	d := r.Finish(slow)
	if !d.Slow || d.Sampled {
		t.Fatalf("forced capture: slow=%v sampled=%v, want slow unsampled", d.Slow, d.Sampled)
	}
	if _, ok := r.Get(d.TraceID); !ok {
		t.Fatal("unsampled slow trace not captured")
	}
	if got := r.Recent(); len(got) == 0 || got[0].TraceID != d.TraceID {
		t.Fatal("unsampled slow trace missing from recent ring")
	}
}

func TestSamplingDeterministicAcrossRecorders(t *testing.T) {
	// Two recorders at the same rate (different seeds) must agree on
	// every ID — the property federation relies on when a remote node
	// recomputes the decision via StartRemote.
	a := New(Config{Sample: 0.25})
	b := New(Config{Sample: 0.25})
	for i := 0; i < 1000; i++ {
		tr := a.Start("t", uint64(i))
		cont := b.StartRemote(tr.ID(), "t", uint64(i))
		if tr.Sampled() != cont.Sampled() {
			t.Fatalf("id %v: local sampled=%v remote sampled=%v", tr.ID(), tr.Sampled(), cont.Sampled())
		}
		a.Finish(tr)
		b.Finish(cont)
	}
	// Default rate (0 or 1) samples everything.
	full := New(Config{})
	if tr := full.Start("t", 1); !tr.Sampled() {
		t.Fatal("default config must sample every trace")
	}
}

func TestIDsUniqueAndNonZero(t *testing.T) {
	r := New(Config{})
	seen := map[ID]bool{}
	for i := 0; i < 10000; i++ {
		id := r.Start("t", uint64(i)).ID()
		if id == 0 {
			t.Fatal("zero trace ID issued")
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %v", id)
		}
		seen[id] = true
	}
}

func TestWireRoundTripStitch(t *testing.T) {
	base := time.Unix(100, 0)
	r := New(Config{Now: func() time.Time { return base }})
	remote := r.StartRemote(42, "t", 7)
	if remote.ID() != 42 {
		t.Fatalf("StartRemote id = %v", remote.ID())
	}
	remote.Add(Span{Stage: StageService, Attr: AttrIndex, Key: 3, Score: 1.5, N: 9,
		Start: base.Add(10 * time.Millisecond), End: base.Add(30 * time.Millisecond)})
	wire := remote.Wire()
	if len(wire) != 1 || wire[0].StartNs != 10e6 || wire[0].EndNs != 30e6 {
		t.Fatalf("wire = %+v", wire)
	}

	local := r.Start("t", 7)
	hop := time.Unix(500, 0)
	local.Stitch("remote-archive", hop, wire)
	d := local.Snapshot()
	if len(d.Spans) != 1 {
		t.Fatalf("stitched spans = %d", len(d.Spans))
	}
	s := d.Spans[0]
	if s.Node != "remote-archive" || s.Stage != StageService || s.Key != 3 || s.Score != 1.5 || s.N != 9 {
		t.Fatalf("stitched span = %+v", s)
	}
	if !s.Start.Equal(hop.Add(10*time.Millisecond)) || !s.End.Equal(hop.Add(30*time.Millisecond)) {
		t.Fatalf("stitched rebase wrong: %v .. %v", s.Start, s.End)
	}
	if r.StartRemote(0, "t", 1) != nil {
		t.Fatal("StartRemote accepted zero ID")
	}
}

func TestConcurrentAdd(t *testing.T) {
	r := New(Config{})
	tr := r.Start("t", 1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.ServiceVisit(Span{Stage: StageService}, nil, i%2 == 0)
			}
		}()
	}
	wg.Wait()
	d := r.Finish(tr)
	if len(d.Spans)+d.Dropped != 800 {
		t.Fatalf("spans+dropped = %d, want 800", len(d.Spans)+d.Dropped)
	}
	if d.CacheHits+d.CacheMisses != 800 {
		t.Fatalf("cache counts = %d, want 800", d.CacheHits+d.CacheMisses)
	}
}

func TestGetPrefersRings(t *testing.T) {
	r := New(Config{SlowThreshold: time.Hour})
	var ids []ID
	for i := 0; i < 3; i++ {
		tr := r.Start("tenant", uint64(i))
		tr.Add(Span{Stage: StageAdmission, Attr: "admitted"})
		ids = append(ids, r.Finish(tr).TraceID)
	}
	for _, id := range ids {
		d, ok := r.Get(id)
		if !ok || d.TraceID != id {
			t.Fatalf("Get(%v) = %v, %v", id, d.TraceID, ok)
		}
	}
	if _, ok := r.Get(ID(12345)); ok {
		t.Fatal("Get found an unknown id")
	}
}

func BenchmarkTraceAdd(b *testing.B) {
	r := New(Config{})
	tr := r.Start("t", 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.mu.Lock() // reset the slab so Add stays on the store path
		tr.spans = tr.spans[:0]
		tr.mu.Unlock()
		tr.Add(Span{Stage: StageService, Key: 1, Score: 2.0})
	}
}

func BenchmarkNilTraceAdd(b *testing.B) {
	var tr *Trace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Add(Span{Stage: StageService})
	}
	if testing.AllocsPerRun(100, func() { tr.Add(Span{Stage: StageService}) }) != 0 {
		b.Fatal("nil Add allocates")
	}
}
