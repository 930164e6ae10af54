package server

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"liferaft/internal/core"
	"liferaft/internal/metric"
	"liferaft/internal/simclock"
)

// drain completes every job in flight and, from now on, every job on submit.
func (e *stubEngine) drain() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.auto = true
	now := e.clk.Now()
	for id, ch := range e.inflight {
		ch <- core.Result{QueryID: id, Arrived: now, Completed: now}
		close(ch)
		delete(e.inflight, id)
	}
}

// TestTenantFamiliesStayCapped sends 4 x tenantSeriesCap distinct tenants
// through one Server, so that every tenant-labeled family the serving layer
// registers gets a series per tenant: each tenant is admitted twice and
// rate-limited once, its two queries queue behind a stalled engine until an
// AIMD tick cuts its rate, and once the engine drains them the next tick
// raises it again. One scrape later, every family whose samples carry a
// tenant label holds at most tenantSeriesCap live series plus the "_other"
// overflow, and has folded tenants into the overflow — so the cap, not
// the traffic, is what held it there.
func TestTenantFamiliesStayCapped(t *testing.T) {
	const tenants = 4 * tenantSeriesCap
	clk := simclock.NewVirtual()
	eng := newStubEngine(clk)
	reg := metric.NewRegistry()
	const tick = 100 * time.Millisecond
	s, err := New(eng, Config{
		DefaultRate:     1,
		DefaultBurst:    2,
		MaxInFlight:     1,
		MaxTenants:      tenants,
		Registry:        reg,
		ControlInterval: tick,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	admitted := 2 * tenants
	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("t%04d", i)
		for j := 0; j < 3; j++ {
			_, err := s.Submit(context.Background(), name, core.Job{ID: uint64(3*i + j + 1)})
			var oe *OverloadError
			if j < 2 && err != nil || j == 2 && !(errors.As(err, &oe) && oe.Reason == OverloadRate) {
				t.Fatalf("tenant %s query %d: %v, want two admissions and then a rate rejection", name, j, err)
			}
		}
	}
	// A standing backlog deeper than one tenant's queue is a breach: the
	// tick the next submit runs cuts every tenant with two queries queued.
	clk.Advance(tick)
	if _, err := s.Submit(context.Background(), "t0000", core.Job{ID: 1 << 32}); err == nil {
		admitted++
	}
	eng.drain()
	waitFor(t, func() bool {
		var done int64
		for _, ts := range s.Stats().Tenants {
			done += ts.Completed
		}
		return done == int64(admitted)
	})
	// An empty queue and responses well under the SLO are headroom: the
	// next tick raises every tenant it cut.
	clk.Advance(tick)
	s.Submit(context.Background(), "t0001", core.Job{ID: 1<<32 + 1})

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	series := tenantSeries(b.String())
	for _, name := range []string{
		"liferaft_admission_total",
		"liferaft_tokenbucket_wait_seconds",
		"liferaft_queue_wait_seconds",
		"liferaft_queue_depth",
		"liferaft_response_seconds",
		"liferaft_tenant_rate_qps",
		"liferaft_aimd_rate_cuts_total",
		"liferaft_aimd_rate_raises_total",
	} {
		if series[name] == nil {
			t.Errorf("%s: no tenant series in the scrape; the test no longer reaches it", name)
		}
	}
	for name, sets := range series {
		if len(sets) > tenantSeriesCap+1 {
			t.Errorf("%s: %d tenant series after %d tenants, want at most %d (tenantSeriesCap + the overflow)",
				name, len(sets), tenants, tenantSeriesCap+1)
		}
		overflow, folded := `tenant="`+metric.OverflowLabel+`"`, false
		for labels := range sets {
			folded = folded || strings.HasPrefix(labels, overflow)
		}
		if !folded {
			t.Errorf("%s: no %s series; the test did not push it past the cap", name, overflow)
		}
	}
}

// tenantSeries maps each family in a text scrape whose samples carry a
// tenant label to the set of its series, keyed by label set: a histogram's
// _bucket, _sum and _count lines, told apart only by le, are one series.
func tenantSeries(scrape string) map[string]map[string]bool {
	out := make(map[string]map[string]bool)
	family := ""
	for _, line := range strings.Split(scrape, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			family = strings.Fields(rest)[0]
			continue
		}
		open := strings.IndexByte(line, '{')
		if strings.HasPrefix(line, "#") || open < 0 {
			continue
		}
		labels := line[open+1 : strings.IndexByte(line, '}')]
		labels, _, _ = strings.Cut(labels, `,le="`)
		if !strings.Contains(labels, `tenant="`) {
			continue
		}
		if out[family] == nil {
			out[family] = make(map[string]bool)
		}
		out[family][labels] = true
	}
	return out
}
