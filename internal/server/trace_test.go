package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"liferaft/internal/core"
	"liferaft/internal/metric"
	"liferaft/internal/simclock"
	"liferaft/internal/trace"
)

// spanCoverage returns the fraction of [d.Start, d.End] covered by the
// union of the trace's span intervals (clipped to the window).
func spanCoverage(d trace.Data) float64 {
	total := d.End.Sub(d.Start).Seconds()
	if total <= 0 {
		return 1 // instantaneous response: nothing to attribute
	}
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(d.Spans))
	for _, sp := range d.Spans {
		a, b := sp.Start, sp.End
		if a.Before(d.Start) {
			a = d.Start
		}
		if b.After(d.End) {
			b = d.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered float64
	var curA, curB time.Time
	for i, v := range ivs {
		if i == 0 || v.a.After(curB) {
			covered += curB.Sub(curA).Seconds()
			curA, curB = v.a, v.b
			continue
		}
		if v.b.After(curB) {
			curB = v.b
		}
	}
	covered += curB.Sub(curA).Seconds()
	return covered / total
}

// TestTracedRequestCoverageAndExemplar is the tentpole acceptance test:
// queries traced through the full serving path (admission → fair queue →
// sharded engine → bucket services → store reads) yield a capture whose
// spans account for at least 95% of the wall-clock (virtual) response
// time, the /metrics scrape links a liferaft_response_seconds bucket to
// that capture via an OpenMetrics exemplar, and slow traces survive in
// the forensics ring.
func TestTracedRequestCoverageAndExemplar(t *testing.T) {
	steady := loadFixture(t).steady
	eng := newLoadEngine(t)
	defer eng.Close()

	reg := metric.NewRegistry()
	srv, err := New(eng, Config{
		MaxInFlight: 2,
		Registry:    reg,
		Tenants:     []TenantConfig{{Name: "alice", Rate: -1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// SlowThreshold 1ns: every finished trace lands in the slow ring, so
	// the test exercises preferential retention without tuning durations.
	rec := trace.New(trace.Config{Now: eng.Clock().Now, SlowThreshold: time.Nanosecond})

	var captures []trace.Data
	for _, j := range steady[:6] {
		job := withID(j)
		tr := rec.Start("alice", job.ID)
		ctx := trace.NewContext(context.Background(), tr)
		ch, err := srv.Submit(ctx, "alice", job)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if _, ok := <-ch; !ok {
			t.Fatal("query dropped")
		}
		captures = append(captures, rec.Finish(tr))
	}

	stages := map[string]bool{}
	for _, d := range captures {
		if cov := spanCoverage(d); cov < 0.95 {
			t.Errorf("trace %s: spans cover %.1f%% of the %.3fs response, want >= 95%%",
				d.TraceID, cov*100, d.ResponseSec)
		}
		for _, sp := range d.Spans {
			stages[sp.Stage] = true
		}
	}
	for _, want := range []string{
		trace.StageAdmission, trace.StageQueueWait, trace.StageEngine,
		trace.StageEngineAdmit, trace.StageService, trace.StageStoreRead,
	} {
		if !stages[want] {
			t.Errorf("no %q span recorded across %d traced queries", want, len(captures))
		}
	}

	// The scrape carries at least one exemplar on a response bucket, and
	// it resolves to a finished capture.
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	var exemplarID string
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.HasPrefix(line, "liferaft_response_seconds_bucket") {
			continue
		}
		if i := strings.Index(line, `# {trace_id="`); i >= 0 {
			rest := line[i+len(`# {trace_id="`):]
			exemplarID = rest[:strings.IndexByte(rest, '"')]
			break
		}
	}
	if exemplarID == "" {
		t.Fatalf("no exemplar on liferaft_response_seconds:\n%s", b.String())
	}
	id, err := trace.ParseID(exemplarID)
	if err != nil {
		t.Fatalf("exemplar id %q: %v", exemplarID, err)
	}
	if _, ok := rec.Get(id); !ok {
		t.Fatalf("exemplar id %s does not resolve to a captured trace", exemplarID)
	}

	// Every query that consumed any virtual time breached the 1ns
	// threshold and must be held in the forensics ring. (Fully-cached
	// queries can complete with zero virtual elapsed and are not slow.)
	wantSlow := 0
	for _, d := range captures {
		if d.ResponseSec > 0 {
			wantSlow++
		}
	}
	if wantSlow == 0 {
		t.Fatal("no query consumed virtual time; fixture no longer exercises store reads")
	}
	if slow := rec.Slow(); len(slow) != wantSlow {
		t.Fatalf("slow ring has %d traces, want %d (threshold 1ns)", len(slow), wantSlow)
	}
}

// TestTracedRejectionSpan: an admission rejection annotates the trace
// instead of dropping it.
func TestTracedRejectionSpan(t *testing.T) {
	eng := newStubEngine(simclock.NewVirtual())
	eng.auto = true
	srv, err := New(eng, Config{
		MaxInFlight: 1,
		Tenants:     []TenantConfig{{Name: "t", Rate: 1, Burst: 1, QueueDepth: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rec := trace.New(trace.Config{Now: eng.clk.Now})
	// The first query takes the only token; the virtual clock never
	// advances, so no token accrues and a later submit must reject.
	var rejected trace.Data
	for i := uint64(1); i <= 5; i++ {
		tr := rec.Start("t", i)
		ctx := trace.NewContext(context.Background(), tr)
		_, err := srv.Submit(ctx, "t", core.Job{ID: i})
		if err != nil {
			rejected = rec.Finish(tr)
			break
		}
	}
	if rejected.TraceID == 0 {
		t.Fatal("no submission rejected")
	}
	found := false
	for _, sp := range rejected.Spans {
		if sp.Stage == trace.StageAdmission && sp.Err != "" &&
			(sp.Attr == decisionRejectedRate || sp.Attr == decisionRejectedQueue) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no error-annotated admission span in %+v", rejected.Spans)
	}
}

// TestGatewayTraceIDAndDebugEndpoints: with a Tracer configured, query
// responses carry a trace_id that resolves under /debug/traces/{id}, and
// the /debug/traces index lists it.
func TestGatewayTraceIDAndDebugEndpoints(t *testing.T) {
	eng := newStubEngine(simclock.NewVirtual())
	eng.auto = true
	srv, err := New(eng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rec := trace.New(trace.Config{Now: eng.clk.Now})
	g, err := NewGateway(GatewayConfig{
		Exec: func(ctx context.Context, tenant, query string) (any, error) {
			ch, err := srv.Submit(ctx, tenant, core.Job{ID: 1})
			if err != nil {
				return nil, err
			}
			<-ch
			return "ok", nil
		},
		Server: srv,
		Tracer: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g)
	defer ts.Close()

	resp, out := postQuery(t, ts, `{"tenant":"alice","query":"SELECT 1"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %v", resp.StatusCode, out)
	}
	id, _ := out["trace_id"].(string)
	if id == "" {
		t.Fatalf("response has no trace_id: %v", out)
	}

	dr, err := http.Get(ts.URL + "/debug/traces/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer dr.Body.Close()
	if dr.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces/%s status = %d", id, dr.StatusCode)
	}
	var d trace.Data
	if err := json.NewDecoder(dr.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	if d.TraceID.String() != id {
		t.Fatalf("detail trace_id = %s, want %s", d.TraceID, id)
	}
	hasAdmission := false
	for _, sp := range d.Spans {
		if sp.Stage == trace.StageAdmission && sp.Attr == decisionAdmitted {
			hasAdmission = true
		}
	}
	if !hasAdmission {
		t.Fatalf("gateway-started trace has no admitted span: %+v", d.Spans)
	}

	ir, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer ir.Body.Close()
	body := new(strings.Builder)
	if _, err := io.Copy(body, ir.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body.String(), id) {
		t.Fatalf("/debug/traces index does not list %s:\n%s", id, body.String())
	}
}

// TestGatewaySampledOutTraceID: with a near-zero sample rate, responses
// stop echoing trace_ids (the capture they would link to is unpublished)
// and the recorder counts the traces as sampled out — while still
// recording them, so a slow one would be force-captured.
func TestGatewaySampledOutTraceID(t *testing.T) {
	eng := newStubEngine(simclock.NewVirtual())
	eng.auto = true
	srv, err := New(eng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rec := trace.New(trace.Config{Now: eng.clk.Now, Sample: 1e-12})
	g, err := NewGateway(GatewayConfig{
		Exec: func(ctx context.Context, tenant, query string) (any, error) {
			ch, err := srv.Submit(ctx, tenant, core.Job{ID: 1})
			if err != nil {
				return nil, err
			}
			<-ch
			return "ok", nil
		},
		Server: srv,
		Tracer: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g)
	defer ts.Close()

	for i := 0; i < 8; i++ {
		resp, out := postQuery(t, ts, `{"tenant":"alice","query":"SELECT 1"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, body %v", resp.StatusCode, out)
		}
		if id, _ := out["trace_id"].(string); id != "" {
			t.Fatalf("query %d: unsampled response carries trace_id %s", i, id)
		}
	}
	_, finished, _, sampledOut := rec.Stats()
	if finished != 8 || sampledOut != 8 {
		t.Fatalf("finished/sampledOut = %d/%d, want 8/8", finished, sampledOut)
	}
	if got := rec.Recent(); len(got) != 0 {
		t.Fatalf("recent ring holds %d unsampled traces, want 0", len(got))
	}
}
