package server

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"liferaft/internal/core"
	"liferaft/internal/metric"
	"liferaft/internal/simclock"
	"liferaft/internal/trace"
)

// completeOne finishes an arbitrary in-flight job, returning its ID.
func (e *stubEngine) completeOne() (uint64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for id, ch := range e.inflight {
		now := e.clk.Now()
		ch <- core.Result{QueryID: id, Arrived: now, Completed: now}
		close(ch)
		delete(e.inflight, id)
		return id, true
	}
	return 0, false
}

// tenantRate reads a tenant's current bucket rate under the server lock.
func tenantRate(s *Server, name string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenants[name]
	if t == nil {
		return -1
	}
	return t.bucket.rate
}

// TestAIMDCutAndRegrow pins the controller end to end on a virtual clock:
// an SLO breach cuts the backlogged tenant's rate (and only that
// tenant's), and sustained headroom regrows it additively. Every query is
// traced and the run also takes rate and queue-full rejections and a
// cancel while queued, so the metrics the layer records after releasing
// its lock can be held to the tenant stats it keeps under it.
func TestAIMDCutAndRegrow(t *testing.T) {
	clk := simclock.NewVirtual()
	eng := newStubEngine(clk)
	reg := metric.NewRegistry()
	s, err := New(eng, Config{
		MaxInFlight:     1,
		Registry:        reg,
		SLOP99:          time.Second,
		ControlInterval: 100 * time.Millisecond,
		Tenants: []TenantConfig{
			{Name: "limited", Rate: 1, Burst: 1},
			{Name: "shallow", QueueDepth: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rec := trace.New(trace.Config{Now: clk.Now})
	var traces []*trace.Trace
	var outs []<-chan core.Result
	submit := func(ctx context.Context, tenant string, id uint64) error {
		tr := rec.Start(tenant, id)
		traces = append(traces, tr)
		ch, err := s.Submit(trace.NewContext(ctx, tr), tenant, core.Job{ID: id})
		if err == nil {
			outs = append(outs, ch)
		}
		return err
	}
	rejected := func(err error, reason OverloadReason) bool {
		var oe *OverloadError
		return errors.As(err, &oe) && oe.Reason == reason
	}

	// greedy backlogs 4 queued behind 1 in flight; quiet queues just one.
	for i := uint64(1); i <= 5; i++ {
		if err := submit(context.Background(), "greedy", i); err != nil {
			t.Fatalf("greedy submit %d: %v", i, err)
		}
	}
	if err := submit(context.Background(), "quiet", 100); err != nil {
		t.Fatalf("quiet submit: %v", err)
	}
	eng.waitInflight(t, 1)
	// limited spends its one token and is then rate-limited; shallow fills
	// its one-deep queue and is then turned away, and abandons the queued
	// query before the dispatcher reaches it.
	if err := submit(context.Background(), "limited", 200); err != nil {
		t.Fatalf("limited submit: %v", err)
	}
	if err := submit(context.Background(), "limited", 201); !rejected(err, OverloadRate) {
		t.Fatalf("limited second submit: %v, want a rate rejection", err)
	}
	abandon, cancel := context.WithCancel(context.Background())
	if err := submit(abandon, "shallow", 300); err != nil {
		t.Fatalf("shallow submit: %v", err)
	}
	if err := submit(context.Background(), "shallow", 301); !rejected(err, OverloadQueue) {
		t.Fatalf("shallow second submit: %v, want a queue-full rejection", err)
	}
	cancel()

	// One completion past the SLO: the tick at its await sees p99 > SLO
	// with greedy backlogged.
	clk.Advance(3 * time.Second)
	eng.complete(1)
	waitFor(t, func() bool { return tenantRate(s, "greedy") < aimdUnlimited })
	if r := tenantRate(s, "quiet"); r < aimdUnlimited {
		t.Errorf("quiet (no backlog) was cut to %v qps; cuts must hit only backlogged tenants", r)
	}

	// Drain everything: greedy's four, quiet's and limited's.
	for done := 0; done < 6; {
		eng.waitInflight(t, 1)
		if _, ok := eng.completeOne(); ok {
			done++
		}
	}
	waitFor(t, func() bool {
		st := s.Stats()
		var n int64
		for _, ts := range st.Tenants {
			n += ts.Completed
		}
		return n == 7
	})

	// Headroom ticks: instant completions well under the SLO, empty
	// queue. Each tick regrows greedy by aimdStep.
	cutRate := tenantRate(s, "greedy")
	for i := 0; i < 4; i++ {
		clk.Advance(200 * time.Millisecond)
		if err := submit(context.Background(), "quiet", uint64(1000+i)); err != nil {
			t.Fatalf("headroom submit %d: %v", i, err)
		}
		eng.waitInflight(t, 1)
		eng.completeOne()
		want := tenantRate(s, "greedy")
		waitFor(t, func() bool { return tenantRate(s, "greedy") >= want })
	}
	waitFor(t, func() bool { return tenantRate(s, "greedy") > cutRate })
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.inFlight == 0 && s.fq.len() == 0
	})

	// A waiter's result arrives after its query's observations are
	// recorded, so once every channel is drained the scrape is final.
	for _, ch := range outs {
		for range ch {
		}
	}
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`liferaft_admission_total{tenant="greedy",decision="admitted"} 5`,
		`liferaft_aimd_rate_cuts_total{tenant="greedy"}`,
		`liferaft_aimd_rate_raises_total{tenant="greedy"}`,
		`liferaft_tenant_rate_qps{tenant="greedy"}`,
		`liferaft_response_seconds_bucket{tenant="greedy",le="+Inf"}`,
		`liferaft_queue_wait_seconds_count{tenant="quiet"}`,
		"liferaft_inflight 0",
		"liferaft_slo_p99_seconds 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	// The observations agree with the tenant stats, tenant by tenant.
	v := scrapeValues(out)
	var cuts, raises float64
	for _, ts := range s.Stats().Tenants {
		l := `{tenant="` + ts.Tenant + `"`
		for decision, want := range map[string]int64{
			decisionAdmitted:      ts.Admitted,
			decisionRejectedRate:  ts.RejectedRate,
			decisionRejectedQueue: ts.RejectedQueue,
		} {
			if got := v["liferaft_admission_total"+l+`,decision="`+decision+`"}`]; got != float64(want) {
				t.Errorf("%s: %d %s queries counted on liferaft_admission_total, stats say %d", ts.Tenant, int64(got), decision, want)
			}
		}
		if got, want := v["liferaft_queue_wait_seconds_count"+l+"}"], ts.Admitted-int64(ts.Queued); got != float64(want) {
			t.Errorf("%s: %d queue waits observed, %d queries dispatched", ts.Tenant, int64(got), want)
		}
		if got := v["liferaft_response_seconds_count"+l+"}"]; got != float64(ts.Completed) {
			t.Errorf("%s: %d responses observed, %d completed", ts.Tenant, int64(got), ts.Completed)
		}
		cuts += v["liferaft_aimd_rate_cuts_total"+l+"}"]
		raises += v["liferaft_aimd_rate_raises_total"+l+"}"]
	}
	if cuts == 0 || raises == 0 {
		t.Errorf("%v cuts and %v raises: the run no longer moves a rate both ways", cuts, raises)
	}
	if cuts != v["liferaft_aimd_cut_events_total"] || raises != v["liferaft_aimd_raise_events_total"] {
		t.Errorf("per-tenant cuts %v and raises %v, events %v and %v", cuts, raises,
			v["liferaft_aimd_cut_events_total"], v["liferaft_aimd_raise_events_total"])
	}
	if levels := v["liferaft_aimd_rate_level_count"]; cuts+raises != levels {
		t.Errorf("%v rate moves, %v rate levels observed", cuts+raises, levels)
	}
	for _, tr := range traces {
		d, n := tr.Snapshot(), 0
		for _, sp := range d.Spans {
			if sp.Stage == trace.StageAdmission {
				n++
			}
		}
		if n != 1 {
			t.Errorf("trace of %s query %d has %d admission spans, want 1", d.Tenant, d.QueryID, n)
		}
	}
}

// scrapeValues maps every sample line of a text scrape, "name{labels}" or
// a bare name, to its value.
func scrapeValues(scrape string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(scrape, "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || strings.HasPrefix(line, "#") {
			continue
		}
		if x, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = x
		}
	}
	return out
}

// TestUnconfiguredTenantUnlimitedUntilCut: a tenant without a configured
// rate holds a bucket at aimdUnlimited, and until the controller cuts it
// that bucket admits like no bucket at all. On a frozen virtual clock no
// token ever accrues and no control tick fires, so a burst far past
// DefaultBurst at one instant must be admitted up to QueueDepth and then
// turned away by the queue, never by the rate.
func TestUnconfiguredTenantUnlimitedUntilCut(t *testing.T) {
	const burst, depth = 4, 16
	eng := newStubEngine(simclock.NewVirtual())
	s, err := New(eng, Config{DefaultBurst: burst, QueueDepth: depth, MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// The stub holds every job; cancelling at exit lets Close drain them.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := uint64(1); i <= depth+4; i++ {
		_, err := s.Submit(ctx, "x", core.Job{ID: i})
		var oe *OverloadError
		switch {
		case err == nil:
		case i <= depth:
			t.Fatalf("query %d of a %d-deep queue rejected: %v", i, depth, err)
		case !errors.As(err, &oe) || oe.Reason != OverloadQueue:
			t.Fatalf("query %d: %v, want only queue-full rejections", i, err)
		}
	}
	st := s.Stats().Tenants[0]
	if st.RejectedRate != 0 || st.Admitted < depth {
		t.Errorf("admitted %d, rate-rejected %d; want >= %d admitted (burst %d) and no rate rejection",
			st.Admitted, st.RejectedRate, depth, burst)
	}
	if r := tenantRate(s, "x"); r != aimdUnlimited {
		t.Errorf("rate %v, want aimdUnlimited: nothing should have cut it", r)
	}
}
