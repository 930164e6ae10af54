package federation

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"os"
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
//
//lifevet:allow ctxflow -- the ctx-less Transport API's documented root: no deadline to discard; deadline-carrying callers use MatchCtx
func (t InProc) Match(req MatchRequest) (MatchResponse, error) {
	return t.Node.MatchCtx(context.Background(), req)
}

// MatchCtx implements ContextTransport.
func (t InProc) MatchCtx(ctx context.Context, req MatchRequest) (MatchResponse, error) {
	return t.Node.MatchCtx(ctx, req)
}

// Wire protocol (LIFERAFT/3). Each side sends its version line, then the
// connection carries two independent gob streams of envelopes: requests one
// way, responses the other. The client numbers its requests from a
// per-connection counter and a response carries the ID of the request it
// answers, so one connection holds many requests in flight and responses
// return in completion order — which is what lets the archive behind the
// hop batch the cross-matches of concurrent queries. A "cancel" request
// names an earlier request the client has stopped waiting for; the server
// withdraws that request's work from its engine. A cancel has no response
// of its own, while the withdrawn request is still answered (with its
// context error): the client drops that answer, as it drops every response
// whose ID is no longer pending.
//
// Version 3 ships a match's pairs as the engine's xmatch.Pair, each object a
// catalog.Object with its position nested in Pos. A version 2 peer's flat
// pair objects would decode without their positions, and gob would not
// complain, so the two versions refuse each other at the handshake.

// protoVersion guards against cross-version deployments: a peer that
// announces anything else is refused at the handshake.
const protoVersion = "LIFERAFT/3"

type rpcRequest struct {
	ID      uint64 // echoed by the response; for "cancel", the request to withdraw
	Kind    string // "archive" | "extract" | "match" | "cancel"
	Extract *ExtractRequest
	Match   *MatchRequest
}

type rpcResponse struct {
	ID      uint64
	Err     string
	Archive string
	Extract *ExtractResponse
	Match   *MatchResponse
}

// maxInFlight bounds the extract and match requests one connection may have
// running at once. At the bound the server stops reading the connection, so
// a peer that floods requests is held by TCP backpressure instead of growing
// goroutines. A portal offers one request per query in flight at the
// archive, far below it.
const maxInFlight = 256

// readIdle bounds how long the server waits for the next (or a stalled
// mid-transfer) request on a connection; requests still running on a
// connection dropped for idleness are withdrawn. Clients whose connection
// was dropped after longer think time transparently re-dial.
const readIdle = 5 * time.Minute

// Server serves a Node over TCP.
type Server struct {
	node *Node
	ln   net.Listener
	opts serverOpts
	// ctx is the parent of every connection's context; Close cancels it,
	// which withdraws every match still in the engine.
	ctx    context.Context
	cancel context.CancelFunc

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
}

// ServerOption tunes Serve.
type ServerOption func(*serverOpts)

// WithIOTimeout bounds the handshake and each response write (default 30s).
func WithIOTimeout(d time.Duration) ServerOption {
	return func(o *serverOpts) { o.ioTimeout = d }
}

// Serve starts serving node on addr (e.g. "127.0.0.1:7701"). It returns
// once the listener is bound; connections are handled in the background.
// Handshake, request-read, and response-write deadlines guard every
// connection so a stalled or silent peer cannot wedge the RPC loop.
func Serve(node *Node, addr string, opts ...ServerOption) (*Server, error) {
	o := serverOpts{ioTimeout: 30 * time.Second}
	for _, opt := range opts {
		opt(&o)
	}
	if o.ioTimeout <= 0 {
		return nil, fmt.Errorf("federation: non-positive server timeout")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("federation: listen %s: %w", addr, err)
	}
	s := &Server{node: node, ln: ln, opts: o, conns: make(map[net.Conn]struct{})}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops the listener and all connections, withdraws the requests
// still running on them from the node's engine, and returns once every
// handler has exited. The node itself is not closed (the caller owns it).
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.cancel()
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

// serverConn is one accepted connection: the decode loop in handle and the
// request goroutines it starts share the response encoder and the table of
// running requests.
type serverConn struct {
	node      *Node
	conn      net.Conn
	ioTimeout time.Duration
	cancel    context.CancelFunc // of the connection's context

	wmu sync.Mutex // one response frame at a time
	enc *gob.Encoder

	mu      sync.Mutex
	running map[uint64]context.CancelFunc // dispatched requests, by ID
}

// handle runs one connection: the handshake, then a decode loop that
// answers cheap requests itself and gives every extract and match a
// goroutine of its own, so the node's engine sees the peer's concurrent
// queries together. It returns once those goroutines have exited.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	// Everything started for this connection runs under ctx: a dropped
	// connection, a failed write or Server.Close withdraws its matches from
	// the engine's queues instead of leaving them to finish for nobody.
	ctx, cancel := context.WithCancel(s.ctx)
	var requests sync.WaitGroup
	defer func() {
		cancel()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
		requests.Wait()
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
	// From here reads and writes run concurrently, each under its own
	// deadline.
	conn.SetDeadline(time.Time{})
	sc := &serverConn{
		node: s.node, conn: conn, ioTimeout: s.opts.ioTimeout,
		cancel: cancel, enc: gob.NewEncoder(conn),
		running: make(map[uint64]context.CancelFunc),
	}
	slots := make(chan struct{}, maxInFlight)
	dec := gob.NewDecoder(conn)
	for {
		// Reading the next request may idle legitimately (a client
		// holding the connection between queries) but not forever.
		conn.SetReadDeadline(time.Now().Add(readIdle))
		var req rpcRequest
		if err := dec.Decode(&req); err != nil {
			return
		}
		resp := rpcResponse{ID: req.ID}
		switch req.Kind {
		case "cancel":
			sc.cancelRequest(req.ID)
			continue
		case "archive":
			resp.Archive = s.node.Name()
		case "extract", "match":
			if req.Kind == "extract" && req.Extract == nil || req.Kind == "match" && req.Match == nil {
				resp.Err = "federation: " + req.Kind + " request missing payload"
				break
			}
			rctx, rcancel := context.WithCancel(ctx)
			if !sc.admit(req.ID, rcancel) {
				rcancel()
				resp.Err = fmt.Sprintf("federation: request ID %d is already in flight", req.ID)
				break
			}
			select {
			case slots <- struct{}{}:
			case <-ctx.Done():
				rcancel()
				return
			}
			requests.Add(1)
			go func() {
				defer requests.Done()
				defer func() { <-slots }()
				sc.serve(rctx, req)
			}()
			continue
		default:
			resp.Err = fmt.Sprintf("federation: unknown request kind %q", req.Kind)
		}
		if !sc.reply(&resp) {
			return
		}
	}
}

// admit records a dispatched request's cancel function under its ID; it
// refuses an ID that is still running (a client never reuses one).
func (sc *serverConn) admit(id uint64, cancel context.CancelFunc) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if _, dup := sc.running[id]; dup {
		return false
	}
	sc.running[id] = cancel
	return true
}

// cancelRequest serves a "cancel" frame. An ID that is not running — the
// request finished first, or never existed — is ignored.
func (sc *serverConn) cancelRequest(id uint64) {
	sc.mu.Lock()
	cancel := sc.running[id]
	sc.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// serve runs one admitted extract or match and answers it.
func (sc *serverConn) serve(ctx context.Context, req rpcRequest) {
	defer func() {
		sc.mu.Lock()
		cancel := sc.running[req.ID]
		delete(sc.running, req.ID)
		sc.mu.Unlock()
		cancel()
	}()
	resp := rpcResponse{ID: req.ID}
	switch req.Kind {
	case "extract":
		r, err := sc.node.Extract(*req.Extract)
		if err != nil {
			resp.Err = err.Error()
		} else {
			resp.Extract = &r
		}
	case "match":
		r, err := sc.node.MatchCtx(ctx, *req.Match)
		if err != nil {
			resp.Err = err.Error()
		} else {
			resp.Match = &r
		}
	}
	sc.reply(&resp)
}

// reply writes one response frame under the I/O deadline: the request has
// been serviced, and a peer that stopped reading must not wedge the
// writers. A failed write leaves the response stream torn, so it ends the
// connection — the context for the requests still running, the socket for
// the decode loop; reply reports whether the frame was written.
func (sc *serverConn) reply(resp *rpcResponse) bool {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	sc.conn.SetWriteDeadline(time.Now().Add(sc.ioTimeout))
	if err := sc.enc.Encode(resp); err != nil {
		sc.cancel()
		sc.conn.Close()
		return false
	}
	return true
}

// Client is a TCP Transport to a remote archive node. It holds one
// connection, dialed on first use and re-dialed after a failure, and
// multiplexes it: any number of goroutines may have requests in flight at
// once, each waits only for its own response, and the archive sees them
// together (so its engine can batch them). Every request runs under a
// deadline, so a stalled or silent server surfaces as a prompt error
// instead of wedging the caller; a request that is cancelled or times out
// is withdrawn at the server with a cancel frame and leaves the connection
// to the requests sharing it. A connection failure fails exactly the
// requests pending on that connection.
type Client struct {
	addr    string
	timeout time.Duration
	obs     *clientObs // nil: uninstrumented (see Instrument)

	// wtok is the write token: its holder alone dials, handshakes and
	// writes request frames. It is a one-slot channel, not a mutex, so that
	// waiting for it ends with the waiter's context or deadline.
	wtok chan struct{}

	mu  sync.Mutex
	cur *clientConn // nil before first use and after a failure or Close
}

// clientConn is one established connection and the requests pending on it.
type clientConn struct {
	conn net.Conn
	enc  *gob.Encoder   // used by the write-token holder only
	dead chan struct{}  // closed when the connection is retired
	wg   sync.WaitGroup // the reader and the cancel senders

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan rpcResponse // one-slot reply channels by request ID; nil once retired
	err     error                       // why the connection was retired
}

// DefaultClientTimeout bounds a client round trip (including the dial and
// handshake) unless DialTimeout overrides it.
const DefaultClientTimeout = 30 * time.Second

// Dial returns a client for the node at addr. The connection is
// established lazily on first use.
func Dial(addr string) *Client { return DialTimeout(addr, DefaultClientTimeout) }

// DialTimeout is Dial with an explicit per-round-trip deadline.
func DialTimeout(addr string, timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = DefaultClientTimeout
	}
	return &Client{addr: addr, timeout: timeout, wtok: make(chan struct{}, 1)}
}

// dial establishes the client's connection and starts its reader. The
// caller holds the write token, so there is never a second dial beside it.
func (c *Client) dial(ctx context.Context, deadline time.Time) (*clientConn, error) {
	d := net.Dialer{Deadline: deadline}
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, fmt.Errorf("federation: dial %s: %w", c.addr, err)
	}
	// The handshake runs under the request's deadline, and a cancelled
	// caller expires it at once; the connection is not shared yet.
	conn.SetDeadline(deadline)
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Now()) })
	defer stop()
	var server string
	if _, err := fmt.Fscanf(conn, "%s\n", &server); err != nil {
		conn.Close()
		return nil, fmt.Errorf("federation: handshake read: %w", err)
	}
	if server != protoVersion {
		conn.Close()
		return nil, fmt.Errorf("federation: protocol mismatch: server speaks %q", server)
	}
	if _, err := fmt.Fprintf(conn, "%s\n", protoVersion); err != nil {
		conn.Close()
		return nil, fmt.Errorf("federation: handshake write: %w", err)
	}
	if !stop() {
		conn.Close()
		return nil, fmt.Errorf("federation: handshake with %s: %w", c.addr, ctx.Err())
	}
	// The reader waits for responses without a deadline of its own: every
	// request has its timer, and every frame written its write deadline.
	conn.SetDeadline(time.Time{})
	cc := &clientConn{
		conn: conn, enc: gob.NewEncoder(conn), dead: make(chan struct{}),
		pending: make(map[uint64]chan rpcResponse),
	}
	c.mu.Lock()
	c.cur = cc
	c.mu.Unlock()
	cc.wg.Add(1)
	go c.readLoop(cc, gob.NewDecoder(conn))
	return cc, nil
}

// readLoop hands each response to the request waiting for its ID and drops
// the ones nobody waits for any more (abandoned requests). Any decode error
// — EOF from a server that closed or dropped the idle connection included —
// retires the connection and fails every request pending on it.
func (c *Client) readLoop(cc *clientConn, dec *gob.Decoder) {
	defer cc.wg.Done()
	for {
		var resp rpcResponse
		if err := dec.Decode(&resp); err != nil {
			c.retire(cc, fmt.Errorf("federation: receive: %w", err))
			return
		}
		cc.mu.Lock()
		reply := cc.pending[resp.ID]
		delete(cc.pending, resp.ID)
		cc.mu.Unlock()
		if reply != nil {
			reply <- resp // one slot, one response per ID: never blocks
		}
	}
}

// retire takes cc out of service: the next request dials afresh, and every
// request pending on cc fails with err (its reply channel closes). Only the
// first retirement of a connection has any effect.
func (c *Client) retire(cc *clientConn, err error) {
	c.mu.Lock()
	if c.cur == cc {
		c.cur = nil
	}
	c.mu.Unlock()
	cc.mu.Lock()
	pending := cc.pending
	if pending == nil {
		cc.mu.Unlock()
		return
	}
	cc.pending, cc.err = nil, err
	cc.mu.Unlock()
	close(cc.dead)
	cc.conn.Close()
	for _, reply := range pending {
		close(reply)
	}
}

// failure reports why the connection was retired.
func (cc *clientConn) failure() error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.err
}

// register gives req the connection's next ID and a reply channel.
func (cc *clientConn) register(req *rpcRequest) (chan rpcResponse, error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.pending == nil {
		return nil, cc.err
	}
	cc.nextID++ // 2^64 IDs per connection: never wraps
	req.ID = cc.nextID
	reply := make(chan rpcResponse, 1)
	cc.pending[req.ID] = reply
	return reply, nil
}

// write encodes one frame under a write deadline of its own. The caller
// holds the write token.
func (cc *clientConn) write(deadline time.Time, req *rpcRequest) error {
	cc.conn.SetWriteDeadline(deadline)
	if err := cc.enc.Encode(req); err != nil {
		return fmt.Errorf("federation: send: %w", err)
	}
	return nil
}

// send registers req on the client's connection, dialing if there is none,
// and writes its frame. The caller holds the write token.
func (c *Client) send(ctx context.Context, deadline time.Time, req *rpcRequest) (*clientConn, chan rpcResponse, error) {
	for {
		c.mu.Lock()
		cc := c.cur
		c.mu.Unlock()
		reused := cc != nil
		if !reused {
			var err error
			if cc, err = c.dial(ctx, deadline); err != nil {
				return nil, nil, err
			}
		}
		reply, err := cc.register(req)
		if err == nil {
			if err = cc.write(deadline, req); err == nil {
				return cc, reply, nil
			}
			c.retire(cc, err)
		}
		if !reused {
			return nil, nil, err
		}
		// A held connection failed before the request left — typically
		// the server dropped it while it sat idle and the reader has not
		// seen the EOF yet. The request was not executed: retry it on a
		// fresh dial (cur is nil now, so the next pass is the last).
	}
}

// abandon stops waiting for request id on cc and tells the server to
// withdraw it. The cancel frame is written by a goroutine of its own, so
// the abandoning caller returns at once and the requests sharing the
// connection are not disturbed; the response, if it still comes, is dropped
// by the reader.
func (c *Client) abandon(cc *clientConn, id uint64) {
	cc.mu.Lock()
	_, waiting := cc.pending[id] // false: answered just now, or cc retired
	delete(cc.pending, id)
	if waiting {
		cc.wg.Add(1)
	}
	cc.mu.Unlock()
	if !waiting {
		return
	}
	go func() {
		defer cc.wg.Done()
		select {
		case c.wtok <- struct{}{}:
		case <-cc.dead:
			return
		}
		err := cc.write(time.Now().Add(c.timeout), &rpcRequest{ID: id, Kind: "cancel"})
		<-c.wtok
		if err != nil {
			c.retire(cc, err)
		}
	}()
}

//lifevet:allow ctxflow -- compat shim: the ctx-less entry point's documented root; every deadline-carrying path calls roundTripCtx directly
func (c *Client) roundTrip(req rpcRequest) (rpcResponse, error) {
	return c.roundTripCtx(context.Background(), req)
}

// roundTripCtx sends one request and waits for its response, for the
// context, or for the client timeout, whichever comes first. The dial,
// handshake and frame write run under the earlier of the client timeout
// and the context deadline. Giving up — cancellation or timeout — sends a
// cancel frame and returns at once; the connection stays up.
func (c *Client) roundTripCtx(ctx context.Context, req rpcRequest) (_ rpcResponse, err error) {
	if c.obs != nil {
		done := c.obs.begin(req.Kind)
		defer func() { done(err) }()
	}
	if err := ctx.Err(); err != nil {
		return rpcResponse{}, fmt.Errorf("federation: %w", err)
	}
	timer := time.NewTimer(c.timeout)
	defer timer.Stop()
	deadline := time.Now().Add(c.timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	gaveUp := func(cause error) (rpcResponse, error) {
		return rpcResponse{}, fmt.Errorf("federation: %s at %s: %w", req.Kind, c.addr, cause)
	}

	select {
	case c.wtok <- struct{}{}:
	case <-ctx.Done():
		return gaveUp(ctx.Err())
	case <-timer.C:
		return gaveUp(os.ErrDeadlineExceeded)
	}
	cc, reply, err := c.send(ctx, deadline, &req)
	<-c.wtok
	if err != nil {
		return rpcResponse{}, err
	}

	select {
	case resp, ok := <-reply:
		if !ok {
			return rpcResponse{}, cc.failure()
		}
		if resp.Err != "" {
			return rpcResponse{}, errors.New(resp.Err)
		}
		return resp, nil
	case <-ctx.Done():
		c.abandon(cc, req.ID)
		return gaveUp(ctx.Err())
	case <-timer.C:
		c.abandon(cc, req.ID)
		return gaveUp(os.ErrDeadlineExceeded)
	}
}

// Close tears the connection down, failing the requests pending on it, and
// returns once its reader has exited. A later request dials afresh.
func (c *Client) Close() error {
	c.mu.Lock()
	cc := c.cur
	c.mu.Unlock()
	if cc != nil {
		c.retire(cc, errors.New("federation: client closed"))
		cc.wg.Wait()
	}
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

// MatchCtx implements ContextTransport: when ctx ends before the response
// arrives, the call returns ctx's error at once and a cancel frame
// withdraws the cross-match from the remote engine's queues, as an
// in-process MatchCtx would. Calls from concurrent goroutines share the
// connection and are in the remote engine together.
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
