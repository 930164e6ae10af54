package federation

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"liferaft/internal/server"
	"liferaft/internal/simclock"
)

// TestClientTimeoutOnSilentServer: a server that accepts connections but
// never speaks must not wedge the client — the deadline fails the round
// trip promptly.
func TestClientTimeoutOnSilentServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Deliberately silent: hold the connection open, send nothing.
			defer conn.Close()
		}
	}()

	c := DialTimeout(ln.Addr().String(), 100*time.Millisecond)
	defer c.Close()
	start := time.Now()
	_, err = c.Archive()
	if err == nil {
		t.Fatal("round trip against a silent server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("client took %v to fail; the deadline should fire at ~100ms", elapsed)
	}
}

// TestClientCancelAbortsInFlight: cancelling the context mid-round-trip
// (no deadline involved) unblocks the client promptly instead of waiting
// out the full client timeout.
func TestClientCancelAbortsInFlight(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Complete the handshake, then go silent mid-exchange.
			go func() {
				defer conn.Close()
				fmt.Fprintf(conn, "%s\n", protoVersion)
				buf := make([]byte, 64)
				conn.Read(buf)
				<-make(chan struct{}) // never respond
			}()
		}
	}()

	c := DialTimeout(ln.Addr().String(), 30*time.Second)
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = c.MatchCtx(ctx, MatchRequest{QueryID: 1, MatchRadiusArcsec: 1})
	if err == nil {
		t.Fatal("cancelled round trip succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancel took %v to unblock the round trip; want ~100ms", elapsed)
	}
}

// TestServerDropsSilentClient: a dialer that never completes the handshake
// is disconnected by the server's I/O deadline instead of pinning a
// handler goroutine.
func TestServerDropsSilentClient(t *testing.T) {
	f := newFixture(t)
	srv, err := Serve(f.sdss, "127.0.0.1:0", WithIOTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send nothing. The server (after emitting its handshake line) must
	// close the connection once its handshake deadline passes; reading
	// then hits EOF/reset. Our own 5s read deadline firing instead means
	// the server kept the silent connection alive.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 256)
	for {
		_, err := conn.Read(buf)
		if err == nil {
			continue // the server's handshake line
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatal("server never dropped the silent connection")
		}
		return // dropped by the server — expected
	}
}

// TestNodeServingLayer: a node built with NodeConfig.Serving applies
// per-tenant admission control to Match traffic and exposes the
// per-tenant breakdown through Serving().Stats().
func TestNodeServingLayer(t *testing.T) {
	f := newFixture(t)
	clk := simclock.NewVirtual()
	node, err := NewNode(NodeConfig{
		Catalog: fedCats[1], ObjectsPerBucket: 400, Alpha: 0.25, Clock: clk,
		Serving: &server.Config{
			Tenants: []server.TenantConfig{{Name: "limited", Rate: 0.001, Burst: 1}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	// Ship a small region through Match under the limited tenant: the
	// burst admits the first request, the second bounces with a typed
	// overload error.
	ext, err := f.sdss.Extract(ExtractRequest{QueryID: 1, RA: 150, Dec: 20, RadiusDeg: 2, Selectivity: 0.2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(ext.Objects) == 0 {
		t.Fatal("empty extraction")
	}
	req := MatchRequest{QueryID: 1, MatchRadiusArcsec: 5, Objects: ext.Objects, Tenant: "limited"}
	if _, err := node.MatchCtx(context.Background(), req); err != nil {
		t.Fatalf("first match: %v", err)
	}
	_, err = node.MatchCtx(context.Background(), req)
	var over *server.OverloadError
	if !errors.As(err, &over) || over.Reason != server.OverloadRate {
		t.Fatalf("second match err = %v, want rate OverloadError", err)
	}

	st := node.Serving().Stats()
	if len(st.Tenants) == 0 || st.Tenants[0].Tenant != "limited" ||
		st.Tenants[0].Completed != 1 || st.Tenants[0].RejectedRate != 1 {
		t.Errorf("serving stats = %+v", st.Tenants)
	}
	// A node without a serving layer reports none.
	if f.sdss.Serving() != nil {
		t.Error("plain node claims a serving layer")
	}
}

// TestMatchCtxCancellation: an expired context withdraws the cross-match
// from the node's engine and surfaces the context error.
func TestMatchCtxCancellation(t *testing.T) {
	f := newFixture(t)
	ext, err := f.sdss.Extract(ExtractRequest{QueryID: 2, RA: 150, Dec: 20, RadiusDeg: 4, Selectivity: 0.8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = f.twomass.MatchCtx(ctx, MatchRequest{QueryID: 2, MatchRadiusArcsec: 5, Objects: ext.Objects})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestExecuteCtxAborted: a cancelled context aborts the portal plan.
func TestExecuteCtxAborted(t *testing.T) {
	f := newFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.portal.ExecuteCtx(ctx, testQuery()); err == nil {
		t.Fatal("cancelled plan should fail")
	}
}
