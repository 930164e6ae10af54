package federation

import (
	"bufio"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// stubPeer is a scripted server of this protocol: it completes the handshake,
// decodes request frames onto channels and writes only the responses the
// test tells it to, in the order the test chooses.
type stubPeer struct {
	ln      net.Listener
	accepts atomic.Int32
	reqs    chan rpcRequest // non-cancel frames, in arrival order
	// cancels carries the IDs of cancel frames. The test reads it only at
	// some points of an iteration, so it is buffered for every cancel the
	// whole test can produce (two per iteration) and the reader never blocks.
	cancels chan uint64
	enc     atomic.Pointer[gob.Encoder] // the latest connection's response stream
}

func newStubPeer(t *testing.T) *stubPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &stubPeer{ln: ln, reqs: make(chan rpcRequest), cancels: make(chan uint64, 1024)}
	stop := make(chan struct{})
	t.Cleanup(func() {
		close(stop)
		ln.Close()
	})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			p.accepts.Add(1)
			go func() {
				defer conn.Close()
				fmt.Fprintf(conn, "%s\n", protoVersion)
				r := bufio.NewReader(conn)
				if line, err := r.ReadString('\n'); err != nil || line != protoVersion+"\n" {
					return
				}
				p.enc.Store(gob.NewEncoder(conn))
				dec := gob.NewDecoder(r)
				for {
					var req rpcRequest
					if err := dec.Decode(&req); err != nil {
						return
					}
					if req.Kind == "cancel" {
						p.cancels <- req.ID
						continue
					}
					select {
					case p.reqs <- req:
					case <-stop:
						return
					}
				}
			}()
		}
	}()
	return p
}

// respond writes the response to request id; tag travels in the payload so
// the caller can tell whose response it was handed.
func (p *stubPeer) respond(t *testing.T, id, tag uint64) {
	t.Helper()
	if err := p.enc.Load().Encode(&rpcResponse{ID: id, Archive: strconv.FormatUint(tag, 10)}); err != nil {
		t.Fatalf("stub peer: write response %d: %v", id, err)
	}
}

// awaitCancel waits for the cancel frame naming id, discarding others.
func (p *stubPeer) awaitCancel(t *testing.T, id uint64) {
	t.Helper()
	for {
		select {
		case got := <-p.cancels:
			if got == id {
				return
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("no cancel frame for request %d", id)
		}
	}
}

// stubCall is one request in flight from the test, tagged in its payload.
type stubCall struct {
	tag    uint64
	cancel context.CancelFunc
	done   chan struct{}
	resp   rpcResponse
	err    error
}

func startCall(c *Client, tag uint64) *stubCall {
	ctx, cancel := context.WithCancel(context.Background())
	k := &stubCall{tag: tag, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(k.done)
		k.resp, k.err = c.roundTripCtx(ctx, rpcRequest{Kind: "extract", Extract: &ExtractRequest{QueryID: tag}})
	}()
	return k
}

// wait returns once the call has; it must not take longer than a prompt
// return does.
func (k *stubCall) wait(t *testing.T) {
	t.Helper()
	select {
	case <-k.done:
	case <-time.After(10 * time.Second):
		t.Fatalf("call %d did not return", k.tag)
	}
}

// own fails unless the call got the response addressed to it.
func (k *stubCall) own(t *testing.T) {
	t.Helper()
	if k.err != nil {
		t.Fatalf("call %d: %v", k.tag, k.err)
	}
	if want := strconv.FormatUint(k.tag, 10); k.resp.Archive != want {
		t.Fatalf("call %d was handed the response of call %s", k.tag, k.resp.Archive)
	}
}

// TestMultiplexCancelAsResponseLands: with eight requests in flight on one
// connection, one is cancelled long before the peer answers anything and one
// exactly as its response lands. The cancelled calls return at once with
// context.Canceled (the racing one may instead have caught its response), a
// cancel frame reaches the peer, the response that still arrives for the
// abandoned ID is dropped, every other call is handed its own response
// although they arrive in reverse order, and the next request runs
// undisturbed on the same connection — no cancellation ever re-dials. One
// processor makes the landing race the schedule: the peer's write and the
// cancellation are both done before the client's reader runs.
func TestMultiplexCancelAsResponseLands(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const inFlight = 8
	p := newStubPeer(t)
	c := DialTimeout(p.ln.Addr().String(), time.Minute)
	defer c.Close()

	first := startCall(c, 0)
	p.respond(t, (<-p.reqs).ID, 0)
	first.wait(t)
	first.own(t)
	c.mu.Lock()
	conn := c.cur
	c.mu.Unlock()

	tag := uint64(1)
	for i := 0; i < 200; i++ {
		calls := make([]*stubCall, inFlight)
		ids := make(map[uint64]uint64, inFlight) // tag -> request ID on the wire
		for j := range calls {
			calls[j] = startCall(c, tag)
			tag++
		}
		for range calls {
			req := <-p.reqs
			ids[req.Extract.QueryID] = req.ID
		}
		early, racing, rest := calls[0], calls[1], calls[2:]

		early.cancel()
		early.wait(t)
		if !errors.Is(early.err, context.Canceled) {
			t.Fatalf("iteration %d: call cancelled long before its response = %+v, %v", i, early.resp, early.err)
		}
		p.awaitCancel(t, ids[early.tag])

		p.respond(t, ids[racing.tag], racing.tag)
		if i%2 == 1 {
			runtime.Gosched() // every other time the reader may get there first
		}
		racing.cancel()
		racing.wait(t)
		if !errors.Is(racing.err, context.Canceled) {
			racing.own(t)
		}

		// The abandoned request is still answered; nobody may receive it.
		p.respond(t, ids[early.tag], early.tag)
		for j := len(rest) - 1; j >= 0; j-- {
			p.respond(t, ids[rest[j].tag], rest[j].tag)
		}
		for _, k := range rest {
			k.wait(t)
			k.own(t)
		}

		next := startCall(c, tag)
		tag++
		p.respond(t, (<-p.reqs).ID, next.tag)
		next.wait(t)
		next.own(t)
	}

	c.mu.Lock()
	cur := c.cur
	c.mu.Unlock()
	if cur != conn || p.accepts.Load() != 1 {
		t.Fatalf("the connection was replaced: %d dials", p.accepts.Load())
	}
	conn.mu.Lock()
	pending := len(conn.pending)
	conn.mu.Unlock()
	if pending != 0 {
		t.Fatalf("%d requests still pending after every call returned", pending)
	}
}
