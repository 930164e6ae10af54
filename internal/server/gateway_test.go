package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"liferaft/internal/simclock"
	"liferaft/internal/trace"
)

func testGateway(t *testing.T, exec func(ctx context.Context, tenant, query string) (any, error)) *httptest.Server {
	t.Helper()
	eng := newStubEngine(simclock.NewVirtual())
	eng.auto = true
	srv, err := New(eng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	g, err := NewGateway(GatewayConfig{Exec: exec, Server: srv, DefaultTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g)
	t.Cleanup(ts.Close)
	return ts
}

func postQuery(t *testing.T, ts *httptest.Server, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("response not JSON: %v", err)
	}
	return resp, out
}

func TestGatewayValidation(t *testing.T) {
	if _, err := NewGateway(GatewayConfig{}); err == nil {
		t.Error("missing Exec should fail")
	}
}

func TestGatewayQueryOK(t *testing.T) {
	ts := testGateway(t, func(ctx context.Context, tenant, query string) (any, error) {
		return map[string]any{"echo": query, "tenant": tenant}, nil
	})
	resp, out := postQuery(t, ts, `{"tenant":"alice","query":"SELECT 1"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %v", resp.StatusCode, out)
	}
	res := out["result"].(map[string]any)
	if res["echo"] != "SELECT 1" || res["tenant"] != "alice" {
		t.Errorf("result = %v", res)
	}
	if out["tenant"] != "alice" {
		t.Errorf("tenant = %v", out["tenant"])
	}
}

func TestGatewayTenantHeaderAndDefault(t *testing.T) {
	var got string
	ts := testGateway(t, func(ctx context.Context, tenant, query string) (any, error) {
		got = tenant
		return "ok", nil
	})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", strings.NewReader(`{"query":"q"}`))
	req.Header.Set("X-Tenant", "from-header")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got != "from-header" {
		t.Errorf("tenant = %q, want from-header", got)
	}
	postQuery(t, ts, `{"query":"q"}`)
	if got != "default" {
		t.Errorf("tenant = %q, want default", got)
	}
}

func TestGatewayErrorMapping(t *testing.T) {
	ts := testGateway(t, func(ctx context.Context, tenant, query string) (any, error) {
		switch query {
		case "overload":
			return nil, fmt.Errorf("wrapped: %w", &OverloadError{
				Tenant: tenant, Reason: OverloadRate, RetryAfter: 2500 * time.Millisecond,
			})
		case "timeout":
			return nil, context.DeadlineExceeded
		case "closed":
			return nil, ErrClosed
		case "peer-down":
			return nil, fmt.Errorf("federation: dial 127.0.0.1:1: connection refused")
		default:
			return nil, &BadRequestError{Err: fmt.Errorf("parse error near %q", query)}
		}
	})

	resp, out := postQuery(t, ts, `{"query":"overload"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("overload status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" { // 2.5s rounds up
		t.Errorf("Retry-After = %q, want 3", ra)
	}
	if out["retry_after_ms"].(float64) != 2500 {
		t.Errorf("retry_after_ms = %v", out["retry_after_ms"])
	}

	if resp, _ := postQuery(t, ts, `{"query":"timeout"}`); resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("timeout status = %d, want 504", resp.StatusCode)
	}
	if resp, _ := postQuery(t, ts, `{"query":"closed"}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("closed status = %d, want 503", resp.StatusCode)
	}
	if resp, _ := postQuery(t, ts, `{"query":"bogus"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("parse-error status = %d, want 400", resp.StatusCode)
	}
	// Infrastructure failures are the server's fault, not the client's.
	if resp, _ := postQuery(t, ts, `{"query":"peer-down"}`); resp.StatusCode != http.StatusBadGateway {
		t.Errorf("peer-down status = %d, want 502", resp.StatusCode)
	}
	if resp, _ := postQuery(t, ts, `{"tenant":"a"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty-query status = %d, want 400", resp.StatusCode)
	}
	if resp, _ := postQuery(t, ts, `not json`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad-json status = %d, want 400", resp.StatusCode)
	}
}

func TestGatewayMethodNotAllowed(t *testing.T) {
	ts := testGateway(t, func(ctx context.Context, tenant, query string) (any, error) { return nil, nil })
	resp, err := http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/query = %d, want 405", resp.StatusCode)
	}
}

func TestGatewayHealthAndStats(t *testing.T) {
	ts := testGateway(t, func(ctx context.Context, tenant, query string) (any, error) { return "ok", nil })
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}

	// Drive one query through so stats carry a tenant entry.
	postQuery(t, ts, `{"tenant":"alice","query":"q"}`)
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("stats not JSON: %v", err)
	}
	// The gateway's Exec stub does not route through the Server, so the
	// snapshot is present but empty of tenants — the daemon's Exec does
	// route through it. Shape, not contents, is what this test pins.
	if resp.StatusCode != http.StatusOK {
		t.Errorf("stats = %d", resp.StatusCode)
	}
}

// TestGatewayStatsKeys pins /v1/stats to what a serving daemon can
// answer: the serving layer's own snapshot. Engine run statistics are
// final only after the engine closes, when no gateway is left to ask.
func TestGatewayStatsKeys(t *testing.T) {
	ts := testGateway(t, func(ctx context.Context, tenant, query string) (any, error) { return "ok", nil })
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var top map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&top); err != nil {
		t.Fatalf("stats not a JSON object: %v", err)
	}
	keys := make([]string, 0, len(top))
	for k := range top {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"in_flight", "queued", "tenants"}; !slices.Equal(keys, want) {
		t.Errorf("/v1/stats keys = %v, want %v", keys, want)
	}
}

// TestGatewayDeadline: the request context carries the gateway timeout.
// TestGatewayTimeoutOverflowClamped: a huge timeout_ms used to overflow
// the nanosecond multiplication into a negative Duration, so the request
// context expired before Exec ran and every such request 504'd. It must
// behave as "capped at MaxTimeout" instead.
func TestGatewayTimeoutOverflowClamped(t *testing.T) {
	deadlines := make(chan time.Duration, 1)
	ts := testGateway(t, func(ctx context.Context, tenant, query string) (any, error) {
		dl, ok := ctx.Deadline()
		if !ok {
			t.Error("no deadline on exec context")
		}
		deadlines <- time.Until(dl)
		return "ok", nil
	})
	// 2^62 ms: time.Duration(v)*time.Millisecond wraps negative.
	resp, out := postQuery(t, ts, `{"query":"q","timeout_ms":4611686018427387904}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %v (overflowed timeout expired the request?)", resp.StatusCode, out)
	}
	left := <-deadlines
	if left <= 0 {
		t.Errorf("deadline already expired by %v at exec time", -left)
	}
	// The default MaxTimeout is 5m; the clamped deadline must not exceed it.
	if left > 5*time.Minute {
		t.Errorf("deadline %v exceeds the MaxTimeout cap", left)
	}
}

func TestGatewayDeadline(t *testing.T) {
	ts := testGateway(t, func(ctx context.Context, tenant, query string) (any, error) {
		if _, ok := ctx.Deadline(); !ok {
			t.Error("no deadline on exec context")
		}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	resp, err := http.Post(ts.URL+"/v1/query", "application/json",
		strings.NewReader(`{"query":"q","timeout_ms":20}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status = %d, want 504", resp.StatusCode)
	}
}

// stubRows stands in for a result value that writes its own JSON (the row
// set): its bytes are what json.Marshal of its elements returns.
type stubRows []map[string]float64

func (s stubRows) AppendJSON(buf []byte) ([]byte, error) {
	b, err := json.Marshal([]map[string]float64(s))
	return append(buf, b...), err
}

func (s stubRows) MarshalJSON() ([]byte, error) { return json.Marshal([]map[string]float64(s)) }

// TestGatewayUnencodableResultIs500: a result the encoder refuses used to be
// a 200 status line followed by an empty body, because the status went out
// before Encode ran and Encode's error was dropped. It must be a 500 that
// says why and carries the request's trace ID.
func TestGatewayUnencodableResultIs500(t *testing.T) {
	results := map[string]any{
		"NaN in a plain value": map[string]any{"row_count": 1, "mean": math.NaN()},
		"NaN in an appender":   map[string]any{"rows": stubRows{{"X": 1}, {"X": math.Inf(1)}}},
	}
	for name, result := range results {
		g, err := NewGateway(GatewayConfig{
			Exec:   func(context.Context, string, string) (any, error) { return result, nil },
			Tracer: trace.New(trace.Config{}),
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(`{"query":"q"}`)))
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("%s: status %d, body %q; want 500", name, rec.Code, rec.Body)
		}
		var out errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s: body %q is not an error response: %v", name, rec.Body, err)
		}
		if !strings.Contains(out.Error, "unsupported value") || out.TraceID == "" {
			t.Errorf("%s: error response %+v: want the encoder's reason and a trace_id", name, out)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", name, ct)
		}
	}
}

// TestGatewayJSONEquivalence holds the gateway's own encoder to
// json.NewEncoder(w).Encode, byte for byte: the envelope with and without a
// trace ID, elapsed times in every float format, tenants and keys that need
// JSON and HTML escaping, and results of every shape an executor returns — a
// map whose values are appenders, scalars, maps and nil, and results that are
// not a map at all.
func TestGatewayJSONEquivalence(t *testing.T) {
	hostile := "<t&nt>" + "\u2028" + `"q` + "\\" + "\x00\xff"
	results := []any{
		map[string]any{
			"rows":        stubRows{{"X": 0.5, "Y": 1e-7}, {}},
			"row_count":   2,
			"hop_elapsed": map[string]time.Duration{"sdss": 1500 * time.Microsecond},
			"shipped":     map[string]int{"sdss": 290, "<b>&": 1},
		},
		map[string]any{"rows": stubRows(nil), hostile: hostile, "nested": map[string]any{"z": nil, "a": []any{1, "<"}}},
		map[string]any{},
		map[string]any(nil),
		nil,
		"ok <&>",
		stubRows{{"Mag": 17.25}},
		[]int{1, 2, 3},
		struct {
			A string `json:"a"`
		}{"x"},
	}
	for i, result := range results {
		for _, q := range []queryResponse{
			{Tenant: "default", ElapsedMS: 12.345678, Result: result},
			{Tenant: hostile, ElapsedMS: 0, Result: result, TraceID: "00c0ffee"},
			{Tenant: "", ElapsedMS: 1e-7, Result: result, TraceID: hostile},
			{Tenant: "t", ElapsedMS: 3e21, Result: result},
		} {
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(q); err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			writeJSON(rec, http.StatusOK, q)
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
				t.Errorf("result %d: status %d, body differs from json.Encoder\n got %s\nwant %s", i, rec.Code, rec.Body, want.Bytes())
			}
		}
	}
	// The other bodies the gateway writes go through the same function.
	for _, v := range []any{errorResponse{Error: "<overloaded>", RetryAfterMillis: 1500, TraceID: "ab"}, errorResponse{Error: "x"}, Stats{}} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(v); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusTooManyRequests, v)
		if rec.Code != http.StatusTooManyRequests || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Errorf("%T: status %d, body %s, want %s", v, rec.Code, rec.Body, want.Bytes())
		}
	}
}
