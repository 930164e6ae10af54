package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// The drivers call Gateway.ServeHTTP directly from goroutines: there are no
// client sockets, so in-flight queries are never capped by a connection
// count and the engine can batch whatever the workload offers.

// respWriter is the in-memory http.ResponseWriter a client reuses across
// requests.
type respWriter struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (w *respWriter) Header() http.Header         { return w.hdr }
func (w *respWriter) WriteHeader(status int)      { w.status = status }
func (w *respWriter) Write(b []byte) (int, error) { return w.body.Write(b) }

func (w *respWriter) reset() {
	clear(w.hdr)
	w.status = http.StatusOK
	w.body.Reset()
}

// rowCount extracts result.row_count from a 200 body without a full decode.
// encoding/json writes map keys sorted, so "row_count" precedes the rows and
// cannot occur inside them (row keys are archive names and Object fields).
func rowCount(body []byte) (int, bool) {
	const key = `"row_count":`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(key):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	n, err := strconv.Atoi(string(rest[:j]))
	return n, err == nil
}

// sample is one completed request.
type sample struct {
	done    time.Duration // completion, offset from the run epoch
	latency time.Duration // closed loop: from send; open loop: from the due instant
	late    time.Duration // open loop: how late the generator sent it
	ok      bool          // 200 with a parseable row_count
}

// kept is a response retained for the full-decode oracle.
type kept struct {
	q    query
	body []byte
}

const oracleSamples = 64

// streamRun is the mutable state of one stream during a run.
type streamRun struct {
	spec  streamSpec
	index int

	mu      sync.Mutex
	samples []sample
	// Reservoir of oracleSamples in-window responses, drawn with the
	// stream's own PCG sequence.
	kept   []kept
	seen   int
	pick   *rand.Rand
	traces []*reqTrace
	// malformed counts 200 responses without a parseable row_count.
	malformed int
	// failures keeps the first few failed responses for the run's log.
	failures []string
}

func newStreamRun(seed uint64, index int, spec streamSpec) *streamRun {
	return &streamRun{
		spec: spec, index: index,
		pick: rand.New(rand.NewPCG(seed, uint64(index)<<32|0x6f7261636c65)), // "oracle"
	}
}

// window is the timed part of a run, as offsets from the run epoch. Requests
// completing outside it are warm-up or drain and are not counted.
type window struct{ from, to time.Duration }

func (w window) contains(d time.Duration) bool { return d >= w.from && d < w.to }

// runner drives one workload against one stack.
type runner struct {
	st      *stack
	epoch   time.Time
	streams []*streamRun
	// oracleWin bounds which responses may enter the oracle reservoir.
	oracleWin window
}

func (r *runner) since() time.Duration { return time.Since(r.epoch) }

// do sends one query through the gateway and classifies the response. It
// returns the Retry-After of a 429, zero otherwise.
func (r *runner) do(sr *streamRun, w *respWriter, q query, due time.Time, late time.Duration) time.Duration {
	body, _ := json.Marshal(struct {
		Tenant string `json:"tenant"`
		Query  string `json:"query"`
	}{q.tenant, q.text})
	ctx := context.Background()
	var rt *reqTrace
	if p := r.st.probe; p.enabled() {
		rt = p.begin()
		ctx = context.WithValue(ctx, reqKey{}, rt)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/query", bytes.NewReader(body))
	if err != nil {
		panic(err) // static method and URL: cannot fail
	}
	w.reset()
	r.st.gw.ServeHTTP(w, req)
	end := time.Now()
	s := sample{done: end.Sub(r.epoch), latency: end.Sub(due), late: late}
	var retry time.Duration
	switch w.status {
	case http.StatusOK:
		_, s.ok = rowCount(w.body.Bytes())
	case http.StatusTooManyRequests:
		secs, _ := strconv.Atoi(w.hdr.Get("Retry-After"))
		retry = time.Duration(secs) * time.Second
	}
	if rt != nil {
		r.st.probe.finish(rt, r.st.rec, w.body.Bytes(), end)
		rt.done, rt.respBytes = s.done, int64(w.body.Len())
	}
	sr.mu.Lock()
	sr.samples = append(sr.samples, s)
	if w.status == http.StatusOK && !s.ok {
		sr.malformed++
	}
	if !s.ok && len(sr.failures) < 5 {
		sr.failures = append(sr.failures, fmt.Sprintf("%d %s <- %s", w.status, bytes.TrimSpace(w.body.Bytes()), q.text))
	}
	if rt != nil && s.ok {
		sr.traces = append(sr.traces, rt)
	}
	if s.ok && r.oracleWin.contains(s.done) {
		sr.seen++
		if len(sr.kept) < oracleSamples {
			sr.kept = append(sr.kept, kept{q, bytes.Clone(w.body.Bytes())})
		} else if j := sr.pick.IntN(sr.seen); j < oracleSamples {
			sr.kept[j] = kept{q, bytes.Clone(w.body.Bytes())}
		}
	}
	sr.mu.Unlock()
	return retry
}

// maxOpenInFlight bounds the goroutines an open-loop stream may have in
// flight. It is far above what the serving layer admits (4 in the engine plus
// a 64-deep tenant queue, beyond which the gateway answers 429 at once), so
// it never shapes the load; it only keeps a wedged stack from growing
// goroutines without bound.
const maxOpenInFlight = 512

// run drives every stream from the epoch until `until`, then waits for the
// requests still in flight.
func (r *runner) run(seed uint64, until time.Duration) {
	var wg sync.WaitGroup
	for _, sr := range r.streams {
		switch sr.spec.kind {
		case closedLoop:
			for c := 0; c < sr.spec.clients; c++ {
				wg.Add(1)
				go func(gen *queryGen) {
					defer wg.Done()
					w := &respWriter{hdr: make(http.Header)}
					for r.since() < until {
						if retry := r.do(sr, w, gen.next(), time.Now(), 0); retry > 0 {
							time.Sleep(retry)
						}
					}
				}(newQueryGen(seed, sr.index, c, sr.spec))
			}
		case openLoop:
			wg.Add(1)
			go func() {
				defer wg.Done()
				gen := newQueryGen(seed, sr.index, 0, sr.spec)
				sem := make(chan struct{}, maxOpenInFlight)
				writers := sync.Pool{New: func() any { return &respWriter{hdr: make(http.Header)} }}
				for _, off := range poissonSchedule(seed, sr.index, sr.spec.rateQPS, until) {
					due := r.epoch.Add(off)
					time.Sleep(time.Until(due))
					q := gen.next()
					sem <- struct{}{}
					wg.Add(1)
					go func() {
						defer wg.Done()
						defer func() { <-sem }()
						w := writers.Get().(*respWriter)
						r.do(sr, w, q, due, time.Since(due))
						writers.Put(w)
					}()
				}
			}()
		}
	}
	wg.Wait()
}
