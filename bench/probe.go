package main

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"time"

	"liferaft/internal/federation"
	"liferaft/internal/server"
	"liferaft/internal/skyql"
	"liferaft/internal/trace"
)

// The probe is the benchmark's own tracing: spans are recorded only from
// bench/ code — around the gateway call, inside the benchmark's copy of
// gatewayExec, around federation.Transport decorators — and harvested from
// the program's existing recorder through Recorder.Get(trace_id). No source
// file of the program carries a hook for it. Spans stay in memory until the
// run ends.

// Span layers. The first group is recorded by the benchmark, the second is
// harvested from the recorder's stages.
const (
	layerHandle  = "gateway.handle"
	layerExec    = "gateway.exec"
	layerParse   = "skyql.parse"
	layerCompile = "skyql.compile"
	layerPortal  = "portal.execute"
	layerExtract = "catalog.extract"
	layerMatch   = "fed.match"

	layerAdmission = "serving.admission"
	layerQueueWait = "serving.queue_wait"
	layerEngine    = "engine"
	layerAdmit     = "engine.admit"
	layerService   = "engine.service"
	layerStoreRead = "store.read"
)

// harvestedStages maps the recorder's stages onto layers; stages not listed
// (the portal's own extract/match spans, which duplicate the decorators') are
// dropped. The recorder lists spans in the order they ended, so a query's
// engine envelope follows the services inside it; pass orders the conversion
// parents first: the serving-layer spans, then what hangs below the engine
// span, then the store reads below their services.
var harvestedStages = map[string]struct {
	layer string
	pass  int
}{
	trace.StageAdmission:   {layerAdmission, 0},
	trace.StageQueueWait:   {layerQueueWait, 0},
	trace.StageEngine:      {layerEngine, 0},
	trace.StageEngineAdmit: {layerAdmit, 1},
	trace.StageService:     {layerService, 1},
	trace.StageStoreRead:   {layerStoreRead, 2},
}

// span is one recorded interval of one request. Parent indexes the request's
// span slice (-1 for the root); times are nanoseconds since the probe's
// epoch. N and Attr carry the layer's count and detail (objects extracted or
// shipped, work units retired, bucket index, scan/probe).
type span struct {
	Layer  string
	Parent int
	Start  int64
	End    int64
	N      int64
	Key    int64
	Attr   string
}

// reqTrace collects the spans of one request. Only the goroutine serving the
// request touches it until finish hands it over.
type reqTrace struct {
	p         *probe
	id        trace.ID // the recorder's trace ID, once harvested
	spans     []span
	portal    int           // index of the portal.execute span, parent of transport spans
	match     int           // index of the fed.match span, parent of harvested spans
	harvested bool          // the recorder's spans were found, none dropped
	done      time.Duration // completion, offset from the run epoch
	respBytes int64
	// hopOverhead is the client-side wall of a remote match minus the
	// node-side MatchResponse.Elapsed; zero on in-process transports.
	hopOverhead time.Duration
}

type reqKey struct{}

func (rt *reqTrace) open(layer string, parent int) int {
	rt.spans = append(rt.spans, span{Layer: layer, Parent: parent, Start: rt.p.now()})
	return len(rt.spans) - 1
}

func (rt *reqTrace) close(i int) { rt.spans[i].End = rt.p.now() }

// probe owns the traced run's state.
type probe struct {
	epoch time.Time
	on    atomic.Bool

	// byQuery finds the request behind an ExtractRequest, which carries no
	// context: gatewayExec registers its federation query ID here.
	byQuery sync.Map // uint64 -> *reqTrace

	mu   sync.Mutex
	jobs [][]federation.Object // shipped object lists, inputs of the kernels
	hops []hopIO               // remote matches, for the wire-size kernel
}

// hopIO is one remote cross-match as it crossed the wire.
type hopIO struct {
	req  federation.MatchRequest
	resp federation.MatchResponse
}

// maxRecordedJobs and maxRecordedHops bound what is kept for the kernels.
const (
	maxRecordedJobs = 256
	maxRecordedHops = 32
)

func newProbe() *probe { return &probe{epoch: time.Now()} }

func (p *probe) now() int64 { return int64(time.Since(p.epoch)) }

// enabled reports whether requests are being traced right now; false on a
// nil probe (an untraced run).
func (p *probe) enabled() bool { return p != nil && p.on.Load() }

// set switches tracing on or off; a nil probe ignores it.
func (p *probe) set(on bool) {
	if p != nil {
		p.on.Store(on)
	}
}

// begin opens a request's root span.
func (p *probe) begin() *reqTrace {
	rt := &reqTrace{p: p, spans: make([]span, 0, 32), portal: -1, match: -1}
	rt.open(layerHandle, -1)
	return rt
}

// finish closes the root span at end and harvests the program's spans for
// the request from rec by the trace_id the response carries.
func (p *probe) finish(rt *reqTrace, rec *trace.Recorder, body []byte, end time.Time) {
	rt.spans[0].End = int64(end.Sub(p.epoch))
	const key = `"trace_id":"`
	i := bytes.LastIndex(body, []byte(key))
	if i < 0 || rt.match < 0 {
		return
	}
	hex := body[i+len(key):]
	if j := bytes.IndexByte(hex, '"'); j >= 0 {
		hex = hex[:j]
	}
	id, err := trace.ParseID(string(hex))
	if err != nil {
		return
	}
	d, ok := rec.Get(id)
	if !ok || d.Dropped > 0 {
		return
	}
	rt.id = id
	rt.harvested = true
	services := make(map[int64]int) // bucket -> span index
	engine := rt.match
	for pass := 0; pass < 3; pass++ {
		for _, s := range d.Spans {
			h, ok := harvestedStages[s.Stage]
			if !ok || h.pass != pass {
				continue
			}
			layer := h.layer
			parent, start := rt.match, s.Start
			switch layer {
			case layerAdmission:
				// The recorder opens this span at request arrival; only
				// the decision instant belongs to the serving layer.
				start = s.End
			case layerAdmit, layerService:
				parent = engine
			case layerStoreRead:
				parent = engine
				if i, ok := services[s.Key]; ok {
					parent = i
				}
			}
			rt.spans = append(rt.spans, span{
				Layer: layer, Parent: parent,
				Start: int64(start.Sub(p.epoch)), End: int64(s.End.Sub(p.epoch)),
				N: s.N, Key: s.Key, Attr: s.Attr,
			})
			switch layer {
			case layerEngine:
				engine = len(rt.spans) - 1
			case layerService:
				services[s.Key] = len(rt.spans) - 1
			}
		}
	}
}

// gatewayExec is gatewayExec with a span around each step. While the probe
// is off it runs the untraced copy, so both phases of a traced run share one
// gateway.
func (p *probe) gatewayExec(portal *federation.Portal) func(ctx context.Context, tenant, query string) (any, error) {
	plain := gatewayExec(portal)
	var nextID atomic.Uint64
	return func(ctx context.Context, tenant, query string) (any, error) {
		rt, _ := ctx.Value(reqKey{}).(*reqTrace)
		if rt == nil {
			return plain(ctx, tenant, query)
		}
		exec := rt.open(layerExec, 0)
		defer rt.close(exec)
		sp := rt.open(layerParse, exec)
		q, err := skyql.Parse(query)
		rt.close(sp)
		if err != nil {
			return nil, &server.BadRequestError{Err: err}
		}
		// Traced IDs live in their own range, so a request of the untraced
		// copy still in flight can never alias one in byQuery.
		sp = rt.open(layerCompile, exec)
		fq, err := skyql.Compile(q, nextID.Add(1)|1<<62, 0)
		rt.close(sp)
		if err != nil {
			return nil, &server.BadRequestError{Err: err}
		}
		fq.Tenant = tenant
		p.byQuery.Store(fq.ID, rt)
		defer p.byQuery.Delete(fq.ID)
		rt.portal = rt.open(layerPortal, exec)
		rs, err := portal.ExecuteCtx(ctx, fq)
		rt.close(rt.portal)
		if err != nil {
			return nil, err
		}
		rows := rs.Rows
		if q.Limit > 0 && len(rows) > q.Limit {
			rows = rows[:q.Limit]
		}
		return map[string]any{
			"rows":        rows,
			"row_count":   len(rs.Rows),
			"hop_elapsed": rs.HopElapsed,
			"shipped":     rs.Shipped,
		}, nil
	}
}

// wrap decorates a transport with spans; a nil probe returns t unchanged.
// remote marks a TCP transport, whose match reports hop overhead.
func (p *probe) wrap(t federation.Transport, remote bool) federation.Transport {
	if p == nil {
		return t
	}
	return &probedTransport{p: p, inner: t, ctxInner: t.(federation.ContextTransport), remote: remote}
}

// probedTransport records catalog.extract and fed.match spans around the
// transport it wraps.
type probedTransport struct {
	p        *probe
	inner    federation.Transport
	ctxInner federation.ContextTransport
	remote   bool
}

func (t *probedTransport) Archive() (string, error) { return t.inner.Archive() }

func (t *probedTransport) Extract(req federation.ExtractRequest) (federation.ExtractResponse, error) {
	v, ok := t.p.byQuery.Load(req.QueryID)
	if !ok {
		return t.inner.Extract(req)
	}
	rt := v.(*reqTrace)
	sp := rt.open(layerExtract, rt.portal)
	resp, err := t.inner.Extract(req)
	rt.close(sp)
	rt.spans[sp].N = int64(len(resp.Objects))
	return resp, err
}

func (t *probedTransport) Match(req federation.MatchRequest) (federation.MatchResponse, error) {
	return t.inner.Match(req)
}

func (t *probedTransport) MatchCtx(ctx context.Context, req federation.MatchRequest) (federation.MatchResponse, error) {
	rt, _ := ctx.Value(reqKey{}).(*reqTrace)
	if rt == nil {
		return t.ctxInner.MatchCtx(ctx, req)
	}
	rt.match = rt.open(layerMatch, rt.portal)
	resp, err := t.ctxInner.MatchCtx(ctx, req)
	rt.close(rt.match)
	m := &rt.spans[rt.match]
	m.N = int64(len(req.Objects))
	if t.remote && err == nil {
		rt.hopOverhead = time.Duration(m.End-m.Start) - resp.Elapsed
	}
	t.p.mu.Lock()
	if len(t.p.jobs) < maxRecordedJobs {
		t.p.jobs = append(t.p.jobs, req.Objects)
	}
	if t.remote && err == nil && len(t.p.hops) < maxRecordedHops {
		t.p.hops = append(t.p.hops, hopIO{req, resp})
	}
	t.p.mu.Unlock()
	return resp, err
}
