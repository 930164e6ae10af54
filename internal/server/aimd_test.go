package server

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"liferaft/internal/core"
	"liferaft/internal/metric"
	"liferaft/internal/simclock"
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
// tenant's), and sustained headroom regrows it additively.
func TestAIMDCutAndRegrow(t *testing.T) {
	clk := simclock.NewVirtual()
	eng := newStubEngine(clk)
	reg := metric.NewRegistry()
	s, err := New(eng, Config{
		MaxInFlight:     1,
		Registry:        reg,
		SLOP99:          time.Second,
		ControlInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// greedy backlogs 4 queued behind 1 in flight; quiet queues just one.
	for i := uint64(1); i <= 5; i++ {
		if _, err := s.Submit(context.Background(), "greedy", core.Job{ID: i}); err != nil {
			t.Fatalf("greedy submit %d: %v", i, err)
		}
	}
	if _, err := s.Submit(context.Background(), "quiet", core.Job{ID: 100}); err != nil {
		t.Fatalf("quiet submit: %v", err)
	}
	eng.waitInflight(t, 1)

	// One completion past the SLO: the tick at its await sees p99 > SLO
	// with greedy backlogged.
	clk.Advance(3 * time.Second)
	eng.complete(1)
	waitFor(t, func() bool { return tenantRate(s, "greedy") < aimdUnlimited })
	if r := tenantRate(s, "quiet"); r < aimdUnlimited {
		t.Errorf("quiet (no backlog) was cut to %v qps; cuts must hit only backlogged tenants", r)
	}

	// Drain everything.
	for done := 0; done < 5; {
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
		return n == 6
	})

	// Headroom ticks: instant completions well under the SLO, empty
	// queue. Each tick regrows greedy by aimdStep.
	cutRate := tenantRate(s, "greedy")
	for i := 0; i < 4; i++ {
		clk.Advance(200 * time.Millisecond)
		if _, err := s.Submit(context.Background(), "quiet", core.Job{ID: uint64(1000 + i)}); err != nil {
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
