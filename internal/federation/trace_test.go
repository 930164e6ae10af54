package federation

import (
	"context"
	"testing"
	"time"

	"liferaft/internal/trace"
)

// TestTCPTracePropagation: a portal-side trace crosses the gob transport
// by ID, the remote node records a continuation on its own recorder, and
// the returned spans stitch into the caller's capture — one trace showing
// the whole plan, clocks unshared.
func TestTCPTracePropagation(t *testing.T) {
	f := newFixture(t)
	// The matched archive gets a recorder on its own (virtual) clock, as
	// NodeConfig.Tracer would install it.
	f.sdss.tracer = trace.New(trace.Config{Now: f.sdss.engine.Clock().Now})

	srvA, err := Serve(f.twomass, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srvA.Close()
	srvB, err := Serve(f.sdss, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()

	p := NewPortal()
	p.Register("twomass", Dial(srvA.Addr().String()))
	p.Register("sdss", Dial(srvB.Addr().String()))

	rec := trace.New(trace.Config{})
	tr := rec.Start("fed", 1)
	ctx := trace.NewContext(context.Background(), tr)
	rs, err := p.ExecuteCtx(ctx, testQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) == 0 {
		t.Fatal("no rows matched")
	}
	d := rec.Finish(tr)

	var extract, hop, stitched bool
	for _, sp := range d.Spans {
		switch {
		case sp.Stage == trace.StageFedExtract && sp.Node == "twomass" && sp.N > 0:
			extract = true
		case sp.Stage == trace.StageFedMatch && sp.Node == "sdss" && sp.Err == "":
			hop = true
		case sp.Node == "sdss" && sp.Stage == trace.StageService:
			stitched = true
		}
	}
	if !extract {
		t.Errorf("no federation_extract span for the driving archive: %+v", d.Spans)
	}
	if !hop {
		t.Errorf("no federation_match span for the matched archive: %+v", d.Spans)
	}
	if !stitched {
		t.Errorf("remote engine spans did not stitch into the caller's trace: %+v", d.Spans)
	}

	// The continuation also landed in the remote node's own forensics
	// rings, under the caller's trace ID.
	rd, ok := f.sdss.tracer.Get(d.TraceID)
	if !ok {
		t.Fatalf("remote recorder has no capture for trace %s", d.TraceID)
	}
	if rd.Tenant != "" && rd.Tenant != "fed" {
		t.Errorf("remote capture tenant = %q", rd.Tenant)
	}
	if len(rd.Spans) == 0 {
		t.Error("remote capture has no spans")
	}
}

// TestSilentPeerAnnotatesTrace: a hop to a peer that accepts the
// connection but never speaks times out AND leaves an error-annotated
// federation_match span in the trace — the capture shows which archive
// the plan died at, instead of being dropped.
func TestSilentPeerAnnotatesTrace(t *testing.T) {
	f := newFixture(t)
	p := NewPortal()
	p.Register("twomass", InProc{f.twomass})
	p.Register("sdss", DialTimeout(silentPeer(t), 150*time.Millisecond))

	rec := trace.New(trace.Config{})
	tr := rec.Start("fed", 2)
	ctx := trace.NewContext(context.Background(), tr)
	if _, err := p.ExecuteCtx(ctx, testQuery()); err == nil {
		t.Fatal("silent peer should fail the plan")
	}
	d := rec.Finish(tr)

	found := false
	for _, sp := range d.Spans {
		if sp.Stage == trace.StageFedMatch && sp.Node == "sdss" {
			if sp.Err == "" {
				t.Fatalf("hop span to silent peer has no error: %+v", sp)
			}
			if sp.End.Before(sp.Start.Add(100 * time.Millisecond)) {
				t.Errorf("hop span shorter than the dial timeout: %+v", sp)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("no federation_match span for the silent peer: %+v", d.Spans)
	}
}
