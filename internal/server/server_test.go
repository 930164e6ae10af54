package server

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"liferaft/internal/core"
	"liferaft/internal/simclock"
)

// stubEngine is a controllable Engine: submitted jobs stay in flight until
// the test completes them, so admission and queueing behaviour can be
// pinned deterministically.
type stubEngine struct {
	clk  simclock.Clock
	auto bool // complete every job immediately on submit

	mu       sync.Mutex
	inflight map[uint64]chan core.Result
	closed   bool
}

func newStubEngine(clk simclock.Clock) *stubEngine {
	return &stubEngine{clk: clk, inflight: make(map[uint64]chan core.Result)}
}

func (e *stubEngine) SubmitCtx(ctx context.Context, job core.Job) (<-chan core.Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, core.ErrClosed
	}
	ch := make(chan core.Result, 1)
	now := e.clk.Now()
	if e.auto {
		ch <- core.Result{QueryID: job.ID, Arrived: now, Completed: now}
		close(ch)
		return ch, nil
	}
	e.inflight[job.ID] = ch
	if ctx != nil && ctx.Done() != nil {
		go func() {
			<-ctx.Done()
			e.Cancel(job.ID)
		}()
	}
	return ch, nil
}

func (e *stubEngine) Cancel(id uint64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ch, ok := e.inflight[id]; ok {
		now := e.clk.Now()
		ch <- core.Result{QueryID: id, Arrived: now, Completed: now, Cancelled: true}
		close(ch)
		delete(e.inflight, id)
	}
	return nil
}

// complete finishes one in-flight job.
func (e *stubEngine) complete(id uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ch, ok := e.inflight[id]; ok {
		now := e.clk.Now()
		ch <- core.Result{QueryID: id, Arrived: now, Completed: now}
		close(ch)
		delete(e.inflight, id)
	}
}

func (e *stubEngine) Clock() simclock.Clock { return e.clk }
func (e *stubEngine) inflightCount() int    { e.mu.Lock(); defer e.mu.Unlock(); return len(e.inflight) }
func (e *stubEngine) waitInflight(t *testing.T, n int) {
	waitFor(t, func() bool { return e.inflightCount() == n })
}

// waitFor polls cond for up to 5 s of real time.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never reached")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServerValidation(t *testing.T) {
	clk := simclock.NewVirtual()
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil engine should fail")
	}
	if _, err := New(newStubEngine(clk), Config{QueueDepth: -1}); err == nil {
		t.Error("negative QueueDepth should fail")
	}
	if _, err := New(newStubEngine(clk), Config{Tenants: []TenantConfig{{Name: "a"}, {Name: "a"}}}); err == nil {
		t.Error("duplicate tenant should fail")
	}
	if _, err := New(newStubEngine(clk), Config{Tenants: []TenantConfig{{Name: ""}}}); err == nil {
		t.Error("empty tenant name should fail")
	}
	if _, err := New(newStubEngine(clk), Config{RateMode: "static"}); err == nil {
		t.Error("RateMode other than adaptive should fail")
	}
}

// TestServerRateLimit: a tenant limited to 1 query/sec with burst 2 gets
// its burst, then machine-readable backpressure, then more service as
// virtual time passes.
func TestServerRateLimit(t *testing.T) {
	clk := simclock.NewVirtual()
	eng := newStubEngine(clk)
	eng.auto = true
	s, err := New(eng, Config{
		Tenants: []TenantConfig{{Name: "alice", Rate: 1, Burst: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := uint64(1); i <= 2; i++ {
		if _, err := s.Submit(context.Background(), "alice", core.Job{ID: i}); err != nil {
			t.Fatalf("burst submit %d: %v", i, err)
		}
	}
	_, err = s.Submit(context.Background(), "alice", core.Job{ID: 3})
	over, ok := err.(*OverloadError)
	if !ok || over.Reason != OverloadRate {
		t.Fatalf("err = %v, want rate OverloadError", err)
	}
	if over.RetryAfter <= 0 || over.RetryAfter > time.Second {
		t.Errorf("RetryAfter = %v, want (0, 1s]", over.RetryAfter)
	}
	clk.Advance(time.Second) // one token accrues
	if _, err := s.Submit(context.Background(), "alice", core.Job{ID: 4}); err != nil {
		t.Fatalf("submit after refill: %v", err)
	}
	st := s.Stats()
	if len(st.Tenants) != 1 || st.Tenants[0].RejectedRate != 1 || st.Tenants[0].Admitted != 3 {
		t.Errorf("stats = %+v", st.Tenants)
	}
}

// TestServerQueueBackpressure: with the single engine slot occupied, a
// tenant's queue fills to its depth and then rejects.
func TestServerQueueBackpressure(t *testing.T) {
	clk := simclock.NewVirtual()
	eng := newStubEngine(clk)
	s, err := New(eng, Config{MaxInFlight: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Job 1 occupies the engine slot.
	ch1, err := s.Submit(context.Background(), "bob", core.Job{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.waitInflight(t, 1)
	// Jobs 2 and 3 fill the depth-2 queue; 4 must bounce.
	for i := uint64(2); i <= 3; i++ {
		if _, err := s.Submit(context.Background(), "bob", core.Job{ID: i}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	_, err = s.Submit(context.Background(), "bob", core.Job{ID: 4})
	over, ok := err.(*OverloadError)
	if !ok || over.Reason != OverloadQueue {
		t.Fatalf("err = %v, want queue OverloadError", err)
	}
	// Draining the slot admits the queued jobs in order.
	eng.complete(1)
	if r := <-ch1; r.QueryID != 1 {
		t.Fatalf("result = %+v", r)
	}
	eng.waitInflight(t, 1)
	eng.complete(2)
	eng.waitInflight(t, 1)
	eng.complete(3)
	st := s.Stats()
	bob := st.Tenants[0]
	if bob.RejectedQueue != 1 {
		t.Errorf("rejected_queue = %d, want 1", bob.RejectedQueue)
	}
	waitFor(t, func() bool { return s.Stats().Tenants[0].Completed == 3 })
}

// TestServerCancelWhileQueued: a query abandoned while still in the fair
// queue resolves as cancelled without ever reaching the engine.
func TestServerCancelWhileQueued(t *testing.T) {
	clk := simclock.NewVirtual()
	eng := newStubEngine(clk)
	s, err := New(eng, Config{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, err := s.Submit(context.Background(), "bob", core.Job{ID: 1}); err != nil {
		t.Fatal(err)
	}
	eng.waitInflight(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	ch2, err := s.Submit(ctx, "bob", core.Job{ID: 2})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	eng.complete(1) // free the slot; the dispatcher now pops job 2
	r, ok := <-ch2
	if !ok || !r.Cancelled {
		t.Fatalf("result = %+v ok=%v, want cancelled", r, ok)
	}
	if eng.inflightCount() != 0 {
		t.Error("cancelled-in-queue job reached the engine")
	}
	waitFor(t, func() bool { return s.Stats().Tenants[0].Cancelled == 1 })
}

// TestServerCancelInFlight: cancelling a context after dispatch withdraws
// the query from the engine.
func TestServerCancelInFlight(t *testing.T) {
	clk := simclock.NewVirtual()
	eng := newStubEngine(clk)
	s, err := New(eng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	ch, err := s.Submit(ctx, "bob", core.Job{ID: 7})
	if err != nil {
		t.Fatal(err)
	}
	eng.waitInflight(t, 1)
	cancel()
	r, ok := <-ch
	if !ok || !r.Cancelled {
		t.Fatalf("result = %+v ok=%v, want cancelled", r, ok)
	}
}

// TestServerCloseDrains: Close stops admission but resolves everything
// already accepted.
func TestServerCloseDrains(t *testing.T) {
	clk := simclock.NewVirtual()
	eng := newStubEngine(clk)
	eng.auto = true
	s, err := New(eng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var chans []<-chan core.Result
	for i := uint64(1); i <= 20; i++ {
		ch, err := s.Submit(context.Background(), fmt.Sprintf("t%d", i%4), core.Job{ID: i})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i, ch := range chans {
		if _, ok := <-ch; !ok {
			t.Fatalf("query %d dropped at Close", i+1)
		}
	}
	if _, err := s.Submit(context.Background(), "late", core.Job{ID: 99}); err != ErrClosed {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
}

// settleGoroutines waits, up to five seconds, for the process to be back at
// `want` goroutines or fewer, and returns the count it ended on.
func settleGoroutines(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// TestServerCloseLeavesNoGoroutines: Close with queries in flight, queued,
// and cancelled both inside the engine and while queued returns once the
// engine finishes them, every query gets its one result, and dispatch and
// every await are gone — the process settles back to its goroutine count
// from before New.
func TestServerCloseLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	clk := simclock.NewVirtual()
	eng := newStubEngine(clk)
	s, err := New(eng, Config{MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	inEngine, cancelInEngine := context.WithCancel(ctx)
	queued, cancelQueued := context.WithCancel(ctx)
	var chans []<-chan core.Result
	submit := func(ctx context.Context, id uint64) {
		ch, err := s.Submit(ctx, "bob", core.Job{ID: id})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	submit(ctx, 1)
	submit(inEngine, 2)
	eng.waitInflight(t, 2)
	for i, c := range []context.Context{ctx, queued, ctx} {
		submit(c, uint64(3+i))
	}
	cancelInEngine()
	cancelQueued()

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	eng.drain()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return: a goroutine it waits for never exited")
	}
	for i, ch := range chans {
		if _, ok := <-ch; !ok {
			t.Errorf("query %d closed without a result", i+1)
		}
	}
	cancel() // the stub engine's per-job context watchers exit with it
	if n := settleGoroutines(before); n > before {
		buf := make([]byte, 1<<20)
		t.Errorf("%d goroutines after Close, %d before New:\n%s", n, before, buf[:runtime.Stack(buf, true)])
	}
}

// TestServerTenantTableBound: auto-registration stops at MaxTenants.
func TestServerTenantTableBound(t *testing.T) {
	clk := simclock.NewVirtual()
	eng := newStubEngine(clk)
	eng.auto = true
	s, err := New(eng, Config{MaxTenants: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(context.Background(), fmt.Sprintf("t%d", i), core.Job{ID: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	_, err = s.Submit(context.Background(), "one-too-many", core.Job{ID: 9})
	over, ok := err.(*OverloadError)
	if !ok || over.Reason != OverloadTenants {
		t.Errorf("err = %v, want tenants OverloadError", err)
	}
}
