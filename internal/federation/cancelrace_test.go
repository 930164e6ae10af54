package federation

import (
	"bytes"
	"context"
	"encoding/gob"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
)

// answeredConn is the client's end of a connection whose peer has already
// answered: reads return the queued response bytes without blocking, writes
// are swallowed, and an expired deadline fails both like a real socket's.
// The peer field encodes responses onto the read side.
type answeredConn struct {
	net.Conn // nil: only the methods below are used

	mu       sync.Mutex
	in       bytes.Buffer
	deadline time.Time
	closed   bool
	// onWrite and onRead, when set, run at the start of each call, outside
	// the lock.
	onWrite, onRead func()
}

func (c *answeredConn) expired() error {
	if c.closed {
		return net.ErrClosed
	}
	if !c.deadline.IsZero() && !time.Now().Before(c.deadline) {
		return os.ErrDeadlineExceeded
	}
	return nil
}

func (c *answeredConn) Read(p []byte) (int, error) {
	if c.onRead != nil {
		c.onRead()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.expired(); err != nil {
		return 0, err
	}
	return c.in.Read(p)
}

func (c *answeredConn) Write(p []byte) (int, error) {
	if c.onWrite != nil {
		c.onWrite()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.expired(); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (c *answeredConn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deadline = t
	return nil
}

func (c *answeredConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

// answeredClient returns a client already connected to conn, and the
// peer-side encoder that queues responses on it.
func answeredClient(conn *answeredConn) (*Client, *gob.Encoder) {
	c := &Client{
		addr: "answered", timeout: time.Minute,
		conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn), lastUsed: time.Now(),
	}
	return c, gob.NewEncoder(&conn.in)
}

// Regression: the deadline watch of one round trip must not be able to fire
// under the next request on the shared connection. The first exchange
// completes without ever yielding the processor (the response is already
// there), its context is cancelled exactly as the response lands, and the
// second request yields mid-send — which is when a watcher goroutine left
// over from the first exchange, finding both its stop signal and the
// cancellation ready, used to pick the cancellation half the time and
// expire the deadline under the second request (`i/o timeout`, a 502 at the
// gateway). One processor makes that schedule the only one.
func TestCancelAsResponseLandsSparesNextRequest(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 200; i++ {
		conn := &answeredConn{}
		c, peer := answeredClient(conn)
		if err := peer.Encode(&rpcResponse{Archive: "first"}); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		resp, err := c.roundTripCtx(ctx, rpcRequest{Kind: "archive"})
		cancel()
		if err != nil || resp.Archive != "first" {
			t.Fatalf("iteration %d: first request = %+v, %v", i, resp, err)
		}
		if err := peer.Encode(&rpcResponse{Archive: "second"}); err != nil {
			t.Fatal(err)
		}
		conn.onWrite = runtime.Gosched
		resp, err = c.roundTripCtx(context.Background(), rpcRequest{Kind: "archive"})
		if err != nil || resp.Archive != "second" {
			t.Fatalf("iteration %d: second request on the shared connection = %+v, %v", i, resp, err)
		}
		if c.conn != conn || conn.closed {
			t.Fatalf("iteration %d: a clean connection was discarded", i)
		}
	}
}

// When the cancellation does land inside the exchange, the expiry has fired
// (or is about to): the connection is torn and must not serve another
// request, whether or not the response still made it.
func TestCancelInsideExchangeTearsConnection(t *testing.T) {
	conn := &answeredConn{}
	c, peer := answeredClient(conn)
	if err := peer.Encode(&rpcResponse{Archive: "first"}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	conn.onRead = cancel
	_, _ = c.roundTripCtx(ctx, rpcRequest{Kind: "archive"})
	if c.conn != nil || !conn.closed {
		t.Fatal("the connection survived a cancellation inside the exchange")
	}
}
