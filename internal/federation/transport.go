package federation

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// InProc adapts a Node to the Transport interface directly, for embedded
// federations (tests, experiments, single-process demos).
type InProc struct {
	Node *Node
}

// Archive implements Transport.
func (t InProc) Archive() (string, error) { return t.Node.Name(), nil }

// Extract implements Transport.
func (t InProc) Extract(req ExtractRequest) (ExtractResponse, error) { return t.Node.Extract(req) }

// Match implements Transport.
func (t InProc) Match(req MatchRequest) (MatchResponse, error) { return t.Node.Match(req) }

// MatchCtx implements ContextTransport.
func (t InProc) MatchCtx(ctx context.Context, req MatchRequest) (MatchResponse, error) {
	return t.Node.MatchCtx(ctx, req)
}

// Wire protocol: a version handshake line, then length-free gob streams of
// request/response envelopes. One request per round trip; connections are
// reused by the client transport.

// protoVersion guards against cross-version deployments.
const protoVersion = "LIFERAFT/1"

type rpcRequest struct {
	Kind    string // "archive" | "extract" | "match"
	Extract *ExtractRequest
	Match   *MatchRequest
}

type rpcResponse struct {
	Err     string
	Archive string
	Extract *ExtractResponse
	Match   *MatchResponse
}

// Server serves a Node over TCP.
type Server struct {
	node *Node
	ln   net.Listener
	opts serverOpts

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// serverOpts holds the I/O pacing knobs; see the ServerOption builders.
type serverOpts struct {
	// ioTimeout bounds the handshake and each response write: a peer
	// that stops reading cannot wedge a handler goroutine forever.
	ioTimeout time.Duration
	// readIdle bounds how long a connection may sit between requests
	// (and how long a half-written request may stall mid-decode).
	readIdle time.Duration
}

// ServerOption tunes Serve.
type ServerOption func(*serverOpts)

// WithIOTimeout bounds the handshake and each response write (default 30s).
func WithIOTimeout(d time.Duration) ServerOption {
	return func(o *serverOpts) { o.ioTimeout = d }
}

// WithReadIdleTimeout bounds how long the server waits for the next (or a
// stalled mid-transfer) request on a connection (default 5m). Clients that
// reuse connections after longer think time transparently re-dial.
func WithReadIdleTimeout(d time.Duration) ServerOption {
	return func(o *serverOpts) { o.readIdle = d }
}

// Serve starts serving node on addr (e.g. "127.0.0.1:7701"). It returns
// once the listener is bound; connections are handled in the background.
// Handshake, request-read, and response-write deadlines guard every
// connection so a stalled or silent peer cannot wedge the RPC loop.
func Serve(node *Node, addr string, opts ...ServerOption) (*Server, error) {
	o := serverOpts{ioTimeout: 30 * time.Second, readIdle: 5 * time.Minute}
	for _, opt := range opts {
		opt(&o)
	}
	if o.ioTimeout <= 0 || o.readIdle <= 0 {
		return nil, fmt.Errorf("federation: non-positive server timeout")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("federation: listen %s: %w", addr, err)
	}
	s := &Server{node: node, ln: ln, opts: o, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops the listener and all connections. The node itself is not
// closed (the caller owns it).
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	// Handshake, under the I/O deadline: a silent dialer is dropped
	// instead of pinning this goroutine.
	conn.SetDeadline(time.Now().Add(s.opts.ioTimeout))
	if _, err := fmt.Fprintf(conn, "%s\n", protoVersion); err != nil {
		return
	}
	var client string
	if _, err := fmt.Fscanf(conn, "%s\n", &client); err != nil || client != protoVersion {
		return
	}
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	for {
		// Reading the next request may idle legitimately (a client
		// holding the connection between queries) but not forever.
		conn.SetDeadline(time.Now().Add(s.opts.readIdle))
		var req rpcRequest
		if err := dec.Decode(&req); err != nil {
			return
		}
		var resp rpcResponse
		switch req.Kind {
		case "archive":
			resp.Archive = s.node.Name()
		case "extract":
			if req.Extract == nil {
				resp.Err = "federation: extract request missing payload"
				break
			}
			r, err := s.node.Extract(*req.Extract)
			if err != nil {
				resp.Err = err.Error()
			} else {
				resp.Extract = &r
			}
		case "match":
			if req.Match == nil {
				resp.Err = "federation: match request missing payload"
				break
			}
			// Bound the engine-side work like the peer's patience: a match
			// still running after the read-idle window would only find a
			// torn connection to reply to, so withdraw it from the engine's
			// queues instead of wedging this handler goroutine forever.
			ctx, cancel := context.WithTimeout(context.Background(), s.opts.readIdle)
			r, err := s.node.MatchCtx(ctx, *req.Match)
			cancel()
			if err != nil {
				resp.Err = err.Error()
			} else {
				resp.Match = &r
			}
		default:
			resp.Err = fmt.Sprintf("federation: unknown request kind %q", req.Kind)
		}
		// The response write gets the tighter I/O deadline: the request
		// has been serviced, and a peer that stopped reading must not
		// wedge the handler.
		conn.SetDeadline(time.Now().Add(s.opts.ioTimeout))
		if err := enc.Encode(&resp); err != nil {
			return
		}
	}
}

// Client is a TCP Transport to a remote archive node. It holds one
// connection, re-dialing on demand, and serializes round trips. Every
// round trip runs under a deadline so a stalled or silent server surfaces
// as a prompt error instead of wedging the caller forever. It is safe for
// concurrent use.
type Client struct {
	addr    string
	timeout time.Duration

	mu       sync.Mutex
	conn     net.Conn
	enc      *gob.Encoder
	dec      *gob.Decoder
	lastUsed time.Time
}

// DefaultClientTimeout bounds a client round trip (including the dial and
// handshake) unless DialTimeout overrides it.
const DefaultClientTimeout = 30 * time.Second

// clientIdleReuse is the age past which a held connection is proactively
// re-dialed instead of reused: it stays safely under the server's default
// read-idle timeout, so a request never races the server dropping the
// connection.
const clientIdleReuse = time.Minute

// Dial returns a client for the node at addr. The connection is
// established lazily on first use.
func Dial(addr string) *Client { return DialTimeout(addr, DefaultClientTimeout) }

// DialTimeout is Dial with an explicit per-round-trip deadline.
func DialTimeout(addr string, timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = DefaultClientTimeout
	}
	return &Client{addr: addr, timeout: timeout}
}

func (c *Client) connect(deadline time.Time) error {
	if c.conn != nil {
		// A connection idle longer than the server tolerates is
		// re-dialed rather than raced.
		if time.Since(c.lastUsed) < clientIdleReuse {
			return nil
		}
		c.reset()
	}
	conn, err := net.DialTimeout("tcp", c.addr, time.Until(deadline))
	if err != nil {
		return fmt.Errorf("federation: dial %s: %w", c.addr, err)
	}
	conn.SetDeadline(deadline)
	var server string
	if _, err := fmt.Fscanf(conn, "%s\n", &server); err != nil {
		conn.Close()
		return fmt.Errorf("federation: handshake read: %w", err)
	}
	if server != protoVersion {
		conn.Close()
		return fmt.Errorf("federation: protocol mismatch: server speaks %q", server)
	}
	if _, err := fmt.Fprintf(conn, "%s\n", protoVersion); err != nil {
		conn.Close()
		return fmt.Errorf("federation: handshake write: %w", err)
	}
	c.conn = conn
	c.enc = gob.NewEncoder(conn)
	c.dec = gob.NewDecoder(conn)
	return nil
}

//lifevet:allow ctxflow -- compat shim: the ctx-less entry point's documented root; every deadline-carrying path calls roundTripCtx directly
func (c *Client) roundTrip(req rpcRequest) (rpcResponse, error) {
	return c.roundTripCtx(context.Background(), req)
}

// roundTripCtx runs one request/response exchange under the earlier of the
// client timeout and the context deadline. An explicit ctx cancellation
// (Done fired without a deadline — an abandoned caller) aborts in-flight
// I/O immediately by expiring the connection deadline, and the torn
// connection is discarded rather than reused.
//
//lifevet:allow lockdiscipline -- c.mu intentionally serializes the whole exchange: the client models one in-flight RPC per connection, every network op is deadline-bounded, and no hot scheduling path contends on this lock
func (c *Client) roundTripCtx(ctx context.Context, req rpcRequest) (rpcResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return rpcResponse{}, fmt.Errorf("federation: %w", err)
	}
	deadline := time.Now().Add(c.timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	// watch expires conn's deadline the moment ctx is cancelled
	// (net.Conn deadlines are safe to set concurrently). The returned
	// stop ends the watch and reports whether conn is still clean: once
	// it has returned true the expiry can no longer fire — not even under
	// the next request on the shared connection — and when it returns
	// false the expiry has fired or is about to, so conn must not be
	// reused.
	watch := func(conn net.Conn) (stop func() bool) {
		return context.AfterFunc(ctx, func() { conn.SetDeadline(time.Now()) })
	}

	if err := c.connect(deadline); err != nil {
		return rpcResponse{}, err
	}
	c.conn.SetDeadline(deadline)
	c.lastUsed = time.Now()
	stop := watch(c.conn)
	var resp rpcResponse
	if err := c.enc.Encode(&req); err != nil {
		// A reused connection may have been dropped server-side while
		// idle; one fresh dial retries the (not yet executed) request.
		stop()
		c.reset()
		if err2 := c.connect(deadline); err2 != nil {
			return rpcResponse{}, fmt.Errorf("federation: send: %w", err)
		}
		c.conn.SetDeadline(deadline)
		stop = watch(c.conn)
		if err2 := c.enc.Encode(&req); err2 != nil {
			stop()
			c.reset()
			return rpcResponse{}, fmt.Errorf("federation: send: %w", err2)
		}
	}
	err := c.dec.Decode(&resp)
	if clean := stop(); err != nil || !clean {
		// A failed or cancelled exchange leaves the stream mid-message or
		// the deadline expired: never reuse the connection.
		c.reset()
	}
	if err != nil {
		return rpcResponse{}, fmt.Errorf("federation: receive: %w", err)
	}
	c.lastUsed = time.Now()
	if resp.Err != "" {
		return rpcResponse{}, errors.New(resp.Err)
	}
	return resp, nil
}

func (c *Client) reset() {
	if c.conn != nil {
		c.conn.Close()
		c.conn, c.enc, c.dec = nil, nil, nil
	}
}

// Close tears the connection down.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reset()
	return nil
}

// Archive implements Transport.
func (c *Client) Archive() (string, error) {
	resp, err := c.roundTrip(rpcRequest{Kind: "archive"})
	if err != nil {
		return "", err
	}
	return resp.Archive, nil
}

// Extract implements Transport.
func (c *Client) Extract(req ExtractRequest) (ExtractResponse, error) {
	resp, err := c.roundTrip(rpcRequest{Kind: "extract", Extract: &req})
	if err != nil {
		return ExtractResponse{}, err
	}
	if resp.Extract == nil {
		return ExtractResponse{}, errors.New("federation: empty extract response")
	}
	return *resp.Extract, nil
}

// Match implements Transport.
//
//lifevet:allow ctxflow -- compat shim for the ctx-less Transport API: the fresh root is the documented semantic ("no deadline"); deadline-carrying callers use MatchCtx
func (c *Client) Match(req MatchRequest) (MatchResponse, error) {
	return c.MatchCtx(context.Background(), req)
}

// MatchCtx implements ContextTransport: the context deadline tightens the
// round-trip deadline, so an abandoned federation query stops waiting on
// the remote hop promptly. (The remote engine's own cancellation still
// requires the remote node's serving-layer deadline; the wire protocol
// carries no cancel message.)
func (c *Client) MatchCtx(ctx context.Context, req MatchRequest) (MatchResponse, error) {
	resp, err := c.roundTripCtx(ctx, rpcRequest{Kind: "match", Match: &req})
	if err != nil {
		return MatchResponse{}, err
	}
	if resp.Match == nil {
		return MatchResponse{}, errors.New("federation: empty match response")
	}
	return *resp.Match, nil
}
