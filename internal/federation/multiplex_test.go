package federation

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"liferaft/internal/metric"
	"liferaft/internal/server"
	"liferaft/internal/xmatch"
)

// realClockNode builds an sdss node that sleeps its modeled I/O for real —
// a match takes tens to hundreds of milliseconds, long enough for requests
// to meet in the engine — behind a serving layer whose statistics show what
// is inside the engine.
func realClockNode(t *testing.T) *Node {
	t.Helper()
	newFixture(t) // builds fedCats
	n, err := NewNode(NodeConfig{
		Catalog: fedCats[0], ObjectsPerBucket: 400, Alpha: 0.25,
		// An SLO far above any match here: the controller never cuts, so
		// admission stays out of what these tests observe.
		Serving: &server.Config{MaxInFlight: 8, SLOP99: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// shipped extracts a region of twomass objects to cross-match at sdss.
func shipped(t *testing.T, f *fedFixture, ra, radius float64) []Object {
	t.Helper()
	ext, err := f.twomass.Extract(ExtractRequest{QueryID: 1, RA: ra, Dec: 20, RadiusDeg: radius, Selectivity: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(ext.Objects) == 0 {
		t.Fatal("empty extraction")
	}
	return ext.Objects
}

// eventually polls cond until it holds; what names the condition.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

func inFlight(n *Node) int {
	st := n.Serving().Stats()
	return st.InFlight
}

func pairSet(pairs []xmatch.Pair) map[[2]uint64]bool {
	out := make(map[[2]uint64]bool, len(pairs))
	for _, p := range pairs {
		out[[2]uint64{p.Local.ID, p.Remote.ID}] = true
	}
	return out
}

// TestMultiplexBatchesAtTheArchive: four goroutines matching through one
// Client are inside the remote node's engine together — the point of the
// multiplexed hop; a client that takes turns on its connection never shows
// the engine more than one — and each gets exactly the pairs the in-process
// transport returns for its request.
func TestMultiplexBatchesAtTheArchive(t *testing.T) {
	f := newFixture(t)
	node := realClockNode(t)
	srv, err := Serve(node, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := Dial(srv.Addr().String())
	defer cli.Close()

	const k = 4
	reqs := make([]MatchRequest, k)
	for i := range reqs {
		reqs[i] = MatchRequest{QueryID: uint64(i + 1), MatchRadiusArcsec: 5, Objects: shipped(t, f, 150+float64(i), 2)}
	}

	stop := make(chan struct{})
	peak := make(chan int)
	go func() {
		most := 0
		for {
			select {
			case <-stop:
				peak <- most
				return
			default:
			}
			if n := inFlight(node); n > most {
				most = n
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	resps := make([]MatchResponse, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = cli.MatchCtx(context.Background(), reqs[i])
		}(i)
	}
	wg.Wait()
	close(stop)
	if most := <-peak; most < 2 {
		t.Errorf("at most %d of %d concurrent matches were in the remote engine at once; the hop serializes them", most, k)
	}

	for i, req := range reqs {
		if errs[i] != nil {
			t.Fatalf("match %d: %v", i, errs[i])
		}
		// The same catalog on a virtual clock answers at once.
		direct, err := InProc{f.sdss}.Match(req)
		if err != nil {
			t.Fatal(err)
		}
		got, want := pairSet(resps[i].Pairs), pairSet(direct.Pairs)
		if len(want) == 0 {
			t.Fatalf("match %d found nothing in-process", i)
		}
		if len(got) != len(want) {
			t.Fatalf("match %d: %d pairs over TCP, %d in-process", i, len(got), len(want))
		}
		for p := range want {
			if !got[p] {
				t.Fatalf("match %d: pair %v missing over TCP", i, p)
			}
		}
	}
}

// busyNode returns a served real-clock node whose engine is held busy by a
// large in-process match until release is called, a client to it, and the
// request of a second, remote match to put in flight behind it.
func busyNode(t *testing.T) (node *Node, srv *Server, cli *Client, req MatchRequest, release func()) {
	t.Helper()
	f := newFixture(t)
	node = realClockNode(t)
	srv, err := Serve(node, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli = Dial(srv.Addr().String())
	t.Cleanup(func() { cli.Close() })

	ctx, cancel := context.WithCancel(context.Background())
	blocker := MatchRequest{QueryID: 1, MatchRadiusArcsec: 5, Objects: shipped(t, f, 150, 12), Tenant: "blocker"}
	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		node.MatchCtx(ctx, blocker)
	}()
	release = func() {
		cancel()
		<-blocked
	}
	t.Cleanup(release)
	eventually(t, "the blocker is in the engine", func() bool { return inFlight(node) == 1 })
	return node, srv, cli, MatchRequest{QueryID: 2, MatchRadiusArcsec: 5, Objects: shipped(t, f, 150, 6), Tenant: "remote"}, release
}

func tenantStats(n *Node, tenant string) server.TenantStats {
	st := n.Serving().Stats()
	for _, ts := range st.Tenants {
		if ts.Tenant == tenant {
			return ts
		}
	}
	return server.TenantStats{}
}

// TestCancelReachesRemoteEngine: cancelling a remote match returns the
// caller at once, the cancel frame withdraws the query from the remote
// engine (the serving layer records it cancelled and its slot frees long
// before any idle timeout), and the connection serves the next request.
func TestCancelReachesRemoteEngine(t *testing.T) {
	node, _, cli, req, release := busyNode(t)
	if _, err := cli.Archive(); err != nil {
		t.Fatal(err)
	}
	cli.mu.Lock()
	conn := cli.cur
	cli.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cli.MatchCtx(ctx, req)
		done <- err
	}()
	eventually(t, "the remote match is in the engine", func() bool { return tenantStats(node, "remote").InFlight == 1 })
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled remote match = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled remote match did not return")
	}
	eventually(t, "the node withdrew the match", func() bool {
		ts := tenantStats(node, "remote")
		return ts.Cancelled == 1 && ts.InFlight == 0
	})
	release()
	eventually(t, "the engine is empty", func() bool { return inFlight(node) == 0 })

	if name, err := cli.Archive(); err != nil || name != "sdss" {
		t.Fatalf("request after a cancellation = %q, %v", name, err)
	}
	cli.mu.Lock()
	cur := cli.cur
	cli.mu.Unlock()
	if cur != conn {
		t.Error("the cancellation replaced the connection")
	}
}

// TestMultiplexServerCloseFailsInFlight: Server.Close with a match in flight
// withdraws it and returns promptly, and the waiting client gets a
// connection error — not a hang, not an empty result.
func TestMultiplexServerCloseFailsInFlight(t *testing.T) {
	node, srv, cli, req, _ := busyNode(t)
	done := make(chan error, 1)
	go func() {
		_, err := cli.MatchCtx(context.Background(), req)
		done <- err
	}()
	eventually(t, "the remote match is in the engine", func() bool { return tenantStats(node, "remote").InFlight == 1 })

	closed := make(chan struct{})
	go func() {
		defer close(closed)
		srv.Close()
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close waited for the match in flight")
	}
	select {
	case err := <-done:
		if err == nil || errors.Is(err, context.Canceled) {
			t.Fatalf("in-flight match after Server.Close = %v, want a connection error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client still waiting after Server.Close")
	}
	eventually(t, "the node withdrew the match", func() bool { return tenantStats(node, "remote").InFlight == 0 })
}

// TestMultiplexNoGoroutineLeak: the reader, the per-request goroutines and
// the cancel senders all exit with Client.Close and Server.Close.
func TestMultiplexNoGoroutineLeak(t *testing.T) {
	f := newFixture(t)
	before := runtime.NumGoroutine()

	srv, err := Serve(f.sdss, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli := Dial(srv.Addr().String())
	req := MatchRequest{QueryID: 1, MatchRadiusArcsec: 5, Objects: shipped(t, f, 150, 2)}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			if i%2 == 1 {
				cancel() // half the calls give up; some of them mid-flight
			}
			defer cancel()
			cli.MatchCtx(ctx, req)
		}(i)
	}
	wg.Wait()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Millisecond)
		cancel()
	}()
	cli.MatchCtx(ctx, req)

	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	eventually(t, "every transport goroutine has exited", func() bool { return runtime.NumGoroutine() <= before })
}

// TestClientInstrument: two clients of one daemon share the hop families on
// its registry, one series per peer; requests and failures are counted by
// kind, and nothing stays in flight.
func TestClientInstrument(t *testing.T) {
	f := newFixture(t)
	srv, err := Serve(f.sdss, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := metric.NewRegistry()
	up, down := Dial(srv.Addr().String()), DialTimeout("127.0.0.1:1", time.Second)
	defer up.Close()
	defer down.Close()
	up.Instrument(reg, "sdss")
	down.Instrument(reg, "usnob")
	Dial(srv.Addr().String()).Instrument(nil, "ignored")

	if _, err := up.Archive(); err != nil {
		t.Fatal(err)
	}
	if _, err := up.Extract(ExtractRequest{RadiusDeg: 1, Selectivity: -1}); err == nil {
		t.Fatal("the peer accepted an invalid extraction")
	}
	if _, err := down.Archive(); err == nil {
		t.Fatal("dial to a dead address succeeded")
	}
	var out strings.Builder
	if err := reg.WriteText(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`liferaft_federation_client_inflight{peer="sdss"} 0`,
		`liferaft_federation_client_inflight{peer="usnob"} 0`,
		`liferaft_federation_rpc_seconds_count{peer="sdss",kind="archive"} 1`,
		`liferaft_federation_rpc_seconds_count{peer="sdss",kind="extract"} 1`,
		`liferaft_federation_rpc_errors_total{peer="sdss",kind="extract"} 1`,
		`liferaft_federation_rpc_errors_total{peer="usnob",kind="archive"} 1`,
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("scrape lacks %s", want)
		}
	}
	if strings.Contains(out.String(), `rpc_errors_total{peer="sdss",kind="archive"}`) {
		t.Error("a successful request was counted as an error")
	}
}
