package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sync"
	"time"

	"liferaft/internal/jsonenc"
	"liferaft/internal/metric"
	"liferaft/internal/trace"
)

// Gateway is the HTTP+JSON front door of a LifeRaft node, served alongside
// the gob TCP federation transport:
//
//	POST /v1/query   {"tenant": "...", "query": "<SkyQL>", "timeout_ms": 0}
//	GET  /v1/stats   serving-layer snapshot (per-tenant breakdowns)
//	GET  /metrics    Prometheus text exposition (GatewayConfig.Registry)
//	GET  /healthz    liveness probe
//
// Query execution is injected (GatewayConfig.Exec) so the gateway stays
// independent of the federation layer: the daemon wires Exec to parse
// SkyQL and drive its portal, and the admission path inside the node
// applies the per-tenant limits. Backpressure surfaces as HTTP 429 with a
// Retry-After header; an expired deadline as 504.
type Gateway struct {
	cfg GatewayConfig
	mux *http.ServeMux
}

// A query that asks for no deadline gets defaultTimeout, one that asks for
// more than maxTimeout gets maxTimeout, and a request body is read up to
// maxBodyBytes.
const (
	defaultTimeout = 30 * time.Second
	maxTimeout     = 5 * time.Minute
	maxBodyBytes   = 1 << 20
)

// GatewayConfig configures a Gateway.
type GatewayConfig struct {
	// Exec executes one admitted query for a tenant and returns a
	// JSON-marshalable result. Required.
	Exec func(ctx context.Context, tenant, query string) (any, error)
	// Server, when set, backs /v1/stats with its snapshot.
	Server *Server
	// Registry, when set, backs /metrics with the Prometheus text
	// rendering (a /metrics request without one returns 404).
	Registry *metric.Registry
	// Tracer, when set, gives every /v1/query a request-scoped trace:
	// responses carry a trace_id, latency histograms emit exemplars, and
	// /debug/traces (+ /debug/traces/{id}) serve the forensics rings.
	Tracer *trace.Recorder
}

// NewGateway validates cfg and builds the handler.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if cfg.Exec == nil {
		return nil, fmt.Errorf("server: GatewayConfig.Exec is required")
	}
	g := &Gateway{cfg: cfg, mux: http.NewServeMux()}
	g.mux.HandleFunc("/v1/query", g.handleQuery)
	g.mux.HandleFunc("/v1/stats", g.handleStats)
	g.mux.HandleFunc("/metrics", g.handleMetrics)
	g.mux.HandleFunc("/healthz", g.handleHealth)
	if cfg.Tracer != nil {
		th := cfg.Tracer.Handler()
		g.mux.Handle("/debug/traces", th)
		g.mux.Handle("/debug/traces/", th)
	}
	return g, nil
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// BadRequestError marks an execution error as the client's fault (SkyQL
// parse/compile/validation failures): the gateway maps it to HTTP 400.
// Unwrapped errors from Exec are treated as server-side faults (502), so
// a down federation peer is never misreported as a bad query.
type BadRequestError struct {
	Err error
}

// Error implements error.
func (e *BadRequestError) Error() string { return e.Err.Error() }

// Unwrap exposes the wrapped cause.
func (e *BadRequestError) Unwrap() error { return e.Err }

// queryRequest is the /v1/query body.
type queryRequest struct {
	// Tenant identifies the client for admission control; the X-Tenant
	// header is an alternative. Empty means "default".
	Tenant string `json:"tenant"`
	// Query is the SkyQL text.
	Query string `json:"query"`
	// TimeoutMillis bounds execution; 0 means the gateway default.
	TimeoutMillis int64 `json:"timeout_ms"`
}

type queryResponse struct {
	Tenant    string  `json:"tenant"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Result    any     `json:"result"`
	// TraceID links the response to its capture under /debug/traces/{id}
	// (set when the gateway has a Tracer).
	TraceID string `json:"trace_id,omitempty"`
}

// AppendJSON makes the envelope a jsonAppender: the fields above in their
// order, as encoding/json writes them, with the result appended in place.
func (q queryResponse) AppendJSON(buf []byte) ([]byte, error) {
	buf = append(buf, `{"tenant":`...)
	buf = jsonenc.AppendString(buf, q.Tenant, true)
	buf = append(buf, `,"elapsed_ms":`...)
	buf = jsonenc.AppendFloat(buf, q.ElapsedMS)
	buf = append(buf, `,"result":`...)
	buf, err := appendJSON(buf, q.Result)
	if err != nil {
		return nil, err
	}
	if q.TraceID != "" {
		buf = append(buf, `,"trace_id":`...)
		buf = jsonenc.AppendString(buf, q.TraceID, true)
	}
	return append(buf, '}'), nil
}

type errorResponse struct {
	Error string `json:"error"`
	// RetryAfterMillis is set on 429 responses (alongside the standard
	// Retry-After header, which only has seconds resolution).
	RetryAfterMillis int64 `json:"retry_after_ms,omitempty"`
	// TraceID links the failure to its capture, like queryResponse.TraceID.
	TraceID string `json:"trace_id,omitempty"`
}

// jsonAppender is a result value that writes its own JSON: AppendJSON appends
// to buf exactly the bytes json.Marshal of the value returns. A row set of
// tens of kilobytes offers it so that its bytes are written once, into the
// response buffer, instead of being produced by a Marshaler and then scanned
// again by the encoder that called it.
type jsonAppender interface {
	AppendJSON(buf []byte) ([]byte, error)
}

// respBufs recycles response buffers. One that grew past maxPooledResp
// served an outsized result and is left to the collector instead of being
// kept at that size for good.
var respBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledResp = 1 << 20

// writeJSON encodes v into a pooled buffer — byte for byte what
// json.NewEncoder(w).Encode(v) writes, trailing newline included — and only
// then sends the status line and the body, in one Write. A value the encoder
// refuses (a NaN coordinate) is therefore a 500 with the reason, not a 200
// with half a body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	bp := respBufs.Get().(*[]byte)
	buf, err := appendJSON((*bp)[:0], v)
	if err != nil {
		fail := errorResponse{Error: "encode response: " + err.Error()}
		if q, ok := v.(queryResponse); ok {
			fail.TraceID = q.TraceID
		}
		status = http.StatusInternalServerError
		buf, _ = appendJSON((*bp)[:0], fail) // two strings: cannot fail
	}
	buf = append(buf, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf)
	if cap(buf) <= maxPooledResp {
		*bp = buf
		respBufs.Put(bp)
	}
}

// appendJSON appends v as json.Marshal encodes it. A jsonAppender (the query
// response's envelope, a row set) writes itself, and the executor's
// map[string]any is written here, keys sorted, so that an appender among its
// values lands in buf directly; every other value is small and goes through
// json.Marshal.
func appendJSON(buf []byte, v any) ([]byte, error) {
	switch v := v.(type) {
	case jsonAppender:
		return v.AppendJSON(buf)
	case map[string]any:
		if v == nil {
			return append(buf, "null"...), nil
		}
		var few [8]string // keeps an executor's handful of keys off the heap
		keys := few[:0]
		for k := range v {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		buf = append(buf, '{')
		for i, k := range keys {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = jsonenc.AppendString(buf, k, true)
			buf = append(buf, ':')
			var err error
			if buf, err = appendJSON(buf, v[k]); err != nil {
				return nil, err
			}
		}
		return append(buf, '}'), nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(buf, b...), nil
}

func (g *Gateway) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
		return
	}
	var req queryRequest
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	if req.Tenant == "" {
		req.Tenant = r.Header.Get("X-Tenant")
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	if req.Query == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "empty query"})
		return
	}
	timeout := defaultTimeout
	if req.TimeoutMillis > 0 {
		// Clamp in the millisecond domain before converting: scaling a
		// caller-controlled count to nanoseconds first overflows int64 for
		// values past ~2.9e12 ms, yielding a negative timeout that expires
		// the request instantly instead of capping it.
		millis := req.TimeoutMillis
		if maxMillis := int64(maxTimeout / time.Millisecond); millis > maxMillis {
			millis = maxMillis
		}
		timeout = time.Duration(millis) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// Start a request-scoped trace (no-op without a Tracer): the serving
	// layer, engine, and federation record spans into it via the context.
	tr := g.cfg.Tracer.Start(req.Tenant, 0)
	ctx = trace.NewContext(ctx, tr)

	start := time.Now()
	res, err := g.cfg.Exec(ctx, req.Tenant, req.Query)
	// Echo the trace_id only when the trace was published: unsampled fast
	// traces are not in any ring, so a link would 404. Slow traces are
	// force-captured regardless of the sample rate.
	var traceID string
	if d := g.cfg.Tracer.Finish(tr); d.Sampled || d.Slow {
		traceID = d.TraceID.String()
	}
	if err != nil {
		g.writeError(w, traceID, err)
		return
	}
	writeJSON(w, http.StatusOK, queryResponse{
		Tenant:    req.Tenant,
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
		Result:    res,
		TraceID:   traceID,
	})
}

// writeError maps execution errors onto HTTP statuses: backpressure to
// 429 + Retry-After, expired deadlines to 504, client mistakes
// (BadRequestError: SkyQL parse/compile failures) to 400, and every other
// execution failure — a down peer, a dropped query — to 502.
func (g *Gateway) writeError(w http.ResponseWriter, traceID string, err error) {
	var over *OverloadError
	var bad *BadRequestError
	switch {
	case errors.As(err, &over):
		secs := int64(math.Ceil(over.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
		writeJSON(w, http.StatusTooManyRequests, errorResponse{
			Error:            err.Error(),
			RetryAfterMillis: over.RetryAfter.Milliseconds(),
			TraceID:          traceID,
		})
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: err.Error(), TraceID: traceID})
	case errors.Is(err, ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error(), TraceID: traceID})
	case errors.As(err, &bad):
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error(), TraceID: traceID})
	default:
		writeJSON(w, http.StatusBadGateway, errorResponse{Error: err.Error(), TraceID: traceID})
	}
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "GET required"})
		return
	}
	if g.cfg.Server == nil {
		writeJSON(w, http.StatusOK, Stats{})
		return
	}
	writeJSON(w, http.StatusOK, g.cfg.Server.Stats())
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "GET required"})
		return
	}
	if g.cfg.Registry == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "metrics not configured"})
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	g.cfg.Registry.WriteText(w)
}

func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}
