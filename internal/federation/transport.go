package federation

import (
	"cmp"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"liferaft/internal/catalog"
	"liferaft/internal/xmatch"
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
func (t InProc) Match(req MatchRequest) (MatchResponse, error) {
	return t.Node.MatchCtx(context.Background(), req)
}

// MatchCtx implements ContextTransport.
func (t InProc) MatchCtx(ctx context.Context, req MatchRequest) (MatchResponse, error) {
	return t.Node.MatchCtx(ctx, req)
}

// Wire protocol (LIFERAFT/4). Each side sends its version line, then the
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
// A match's pairs travel as the engine's xmatch.Pair, each object a
// catalog.Object with its position nested in Pos, except that version 4
// does not echo what the client sent: a pair's Remote is the shipped object
// the client already holds in its own request, so the server sends its ID
// alone (gob omits the zero fields) and the client restores the rest from
// the request (restoreRemotes). That is over a third of a response's
// bytes. IDs name objects: a request that ships one ID twice gets its first
// object back for both. A version 3 peer would take Remote{ID} for the
// object, and a version 2 peer's flat pair objects would decode without
// their positions, and gob would complain of neither, so versions refuse
// each other at the handshake.

// protoVersion guards against cross-version deployments: a peer that
// announces anything else is refused at the handshake.
const protoVersion = "LIFERAFT/4"

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

// ioTimeout bounds the handshake and each response write: a peer that
// stops reading cannot wedge a handler goroutine forever. It is a
// variable so a test can shorten it; Serve reads it once.
var ioTimeout = 30 * time.Second

// Server serves a Node over TCP.
type Server struct {
	node      *Node
	ln        net.Listener
	ioTimeout time.Duration
	// ctx is the parent of every connection's context; Close cancels it,
	// which closes every connection and withdraws every match still in the
	// engine.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// Serve starts serving node on addr (e.g. "127.0.0.1:7701"). It returns
// once the listener is bound; connections are handled in the background.
// Handshake, request-read, and response-write deadlines guard every
// connection so a stalled or silent peer cannot wedge the RPC loop.
func Serve(node *Node, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("federation: listen %s: %w", addr, err)
	}
	s := &Server{node: node, ln: ln, ioTimeout: ioTimeout}
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
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// serverConn is one accepted connection: the decode loop in handle, the
// request goroutines it starts and the writer share the table of running
// requests, and every response frame goes through the writer.
type serverConn struct {
	node   *Node
	ctx    context.Context    // the connection's: done once it is torn
	cancel context.CancelFunc // of ctx

	// replies is the writer's queue. A reply that finds it full waits for
	// room or for the connection to be torn, never on a lock: a peer that
	// stops reading holds up only its own connection, and holds its
	// requests' slots until the blocked write fails at ioTimeout. Its 16
	// slots take the replies of one engine step's completed queries
	// without a hand-off each, and hold few behind a stalled peer.
	replies chan rpcResponse

	mu      sync.Mutex
	running map[uint64]context.CancelFunc // dispatched requests, by ID
}

// handle runs one connection: the handshake, then a decode loop that
// answers cheap requests itself and gives every extract and match a
// goroutine of its own, so the node's engine sees the peer's concurrent
// queries together. It returns once those goroutines and the writer have
// exited.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	// Everything started for this connection runs under ctx: a dropped
	// connection, a failed write or Server.Close withdraws its matches from
	// the engine's queues instead of leaving them to finish for nobody. The
	// socket closes with ctx, which ends a decode or a handshake in flight.
	ctx, cancel := context.WithCancel(s.ctx)
	context.AfterFunc(ctx, func() { conn.Close() })
	var wg sync.WaitGroup // the writer and the request goroutines
	defer func() {
		cancel() // before the socket closes: the writer stops encoding first
		conn.Close()
		wg.Wait()
	}()
	// Handshake, under the I/O deadline: a silent dialer is dropped
	// instead of pinning this goroutine.
	conn.SetDeadline(time.Now().Add(s.ioTimeout))
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
		node: s.node, ctx: ctx, cancel: cancel,
		replies: make(chan rpcResponse, 16), running: make(map[uint64]context.CancelFunc),
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		sc.writeLoop(gob.NewEncoder(timedWriter{conn, s.ioTimeout}))
	}()
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
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-slots }()
				sc.serve(rctx, req)
			}()
			continue
		default:
			resp.Err = fmt.Sprintf("federation: unknown request kind %q", req.Kind)
		}
		if !sc.reply(resp) {
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
			// The pair array is this request's to edit: the client holds
			// the shipped objects, so each Remote goes back as its ID.
			for i := range r.Pairs {
				r.Pairs[i].Remote = catalog.Object{ID: r.Pairs[i].Remote.ID}
			}
			resp.Match = &r
		}
	}
	sc.reply(resp)
}

// reply hands resp to the writer; it reports false once the connection is
// torn, when the response can no longer be written.
func (sc *serverConn) reply(resp rpcResponse) bool {
	select {
	case sc.replies <- resp:
		return true
	case <-sc.ctx.Done():
		return false
	}
}

// writeLoop is the connection's one writer: it writes each queued reply
// under the I/O deadline, so a peer that stopped reading cannot wedge it. A
// failed write leaves the response stream torn, so it ends the connection:
// the context for the requests still running, the socket for the decode
// loop. Replies still queued then are dropped unencoded.
func (sc *serverConn) writeLoop(enc *gob.Encoder) {
	var resp rpcResponse
	for {
		select {
		case resp = <-sc.replies:
		case <-sc.ctx.Done():
			return
		}
		if sc.ctx.Err() != nil {
			return
		}
		if err := enc.Encode(&resp); err != nil {
			sc.cancel() // and the socket closes with the context
			return
		}
	}
}

// timedWriter writes to a connection under a deadline that starts with each
// write, so the time a frame takes to encode does not count against it: the
// deadline bounds how long a peer that stopped reading holds the writer.
type timedWriter struct {
	conn    net.Conn
	timeout time.Duration
}

func (w timedWriter) Write(p []byte) (int, error) {
	w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
	return w.conn.Write(p)
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
	obs     *clientObs // nil: uninstrumented, records nothing (see Instrument)

	// dtok is the dial token: its holder alone dials, so there is never a
	// second connection beside the current one. It is a one-slot channel,
	// not a mutex, so that waiting for it ends with the waiter's context or
	// deadline. No frame is written under it.
	dtok chan struct{}

	mu  sync.Mutex
	cur *clientConn // nil before first use and after a failure or Close
}

// clientConn is one established connection, the requests pending on it and
// the frames queued for its writer.
type clientConn struct {
	conn    net.Conn
	dead    chan struct{}  // closed when the connection is retired
	wake    chan struct{}  // one slot: a frame was queued for the writer
	wg      sync.WaitGroup // the reader and the writer
	written atomic.Uint64  // the ID of the last request frame written whole

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan rpcResponse // one-slot reply channels by request ID; nil once retired
	err     error                       // why the connection was retired
	// queue is the writer's, in the order the frames are written, so
	// request IDs ascend in it. It holds at most one frame per request: its
	// own until the writer takes it, then its cancel if it is withdrawn.
	queue []rpcRequest
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
	return &Client{addr: addr, timeout: timeout, dtok: make(chan struct{}, 1)}
}

// dial establishes the client's connection and starts its reader and its
// writer. The caller holds the dial token. The dial and the handshake run
// under the client timeout, and end at once with the caller's context,
// failing with its error.
func (c *Client) dial(ctx context.Context) (*clientConn, error) {
	deadline := time.Now().Add(c.timeout)
	d := net.Dialer{Deadline: deadline}
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		if ctx.Err() != nil {
			err = ctx.Err()
		}
		return nil, fmt.Errorf("federation: dial %s: %w", c.addr, err)
	}
	if c.obs != nil {
		conn = countingConn{Conn: conn, o: c.obs}
	}
	// The context expires the handshake by expiring the connection, which
	// is not shared yet; when it did, its error is the one to report.
	conn.SetDeadline(deadline)
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Now()) })
	err = handshake(conn)
	if !stop() {
		err = fmt.Errorf("federation: handshake with %s: %w", c.addr, ctx.Err())
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	// The reader waits for responses without a deadline of its own: every
	// request has its timer, and every frame written its write deadline.
	conn.SetDeadline(time.Time{})
	return c.start(conn), nil
}

// start puts an established connection in service: it becomes the
// client's, with a reader and a writer of its own.
func (c *Client) start(conn net.Conn) *clientConn {
	cc := &clientConn{
		conn: conn, dead: make(chan struct{}), wake: make(chan struct{}, 1),
		pending: make(map[uint64]chan rpcResponse),
	}
	c.mu.Lock()
	c.cur = cc
	c.mu.Unlock()
	cc.wg.Add(2)
	go c.readLoop(cc, gob.NewDecoder(conn))
	go c.writeLoop(cc, gob.NewEncoder(timedWriter{conn, c.timeout}))
	return cc
}

// current returns the client's connection, nil if there is none.
func (c *Client) current() *clientConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur
}

// connect returns the client's connection, dialing one if there is none.
// Waiting for the dial token ends with ctx or when expired fires.
func (c *Client) connect(ctx context.Context, expired <-chan time.Time) (*clientConn, error) {
	if cc := c.current(); cc != nil {
		return cc, nil
	}
	select {
	case c.dtok <- struct{}{}:
	case <-ctx.Done():
		return nil, fmt.Errorf("federation: dial %s: %w", c.addr, ctx.Err())
	case <-expired:
		return nil, fmt.Errorf("federation: dial %s: %w", c.addr, os.ErrDeadlineExceeded)
	}
	defer func() { <-c.dtok }()
	if cc := c.current(); cc != nil { // dialed while this caller waited
		return cc, nil
	}
	return c.dial(ctx)
}

// handshake exchanges version lines with the server.
func handshake(conn net.Conn) error {
	var server string
	if _, err := fmt.Fscanf(conn, "%s\n", &server); err != nil {
		return fmt.Errorf("federation: handshake read: %w", err)
	}
	if server != protoVersion {
		return fmt.Errorf("federation: protocol mismatch: server speaks %q", server)
	}
	if _, err := fmt.Fprintf(conn, "%s\n", protoVersion); err != nil {
		return fmt.Errorf("federation: handshake write: %w", err)
	}
	return nil
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

// writeLoop is the connection's one writer. It writes the queued frames in
// order until the connection is retired, each under the client timeout and
// never under a request's own deadline, which must not end the requests
// sharing the connection. A write that fails, a request's or a cancel's,
// leaves the frame stream torn and retires the connection.
func (c *Client) writeLoop(cc *clientConn, enc *gob.Encoder) {
	defer cc.wg.Done()
	var f rpcRequest
	for {
		cc.mu.Lock()
		if cc.pending == nil || len(cc.queue) == 0 {
			cc.mu.Unlock()
			select {
			case <-cc.wake:
				continue
			case <-cc.dead:
				return
			}
		}
		f = cc.queue[0]
		cc.queue = slices.Delete(cc.queue, 0, 1)
		cc.mu.Unlock()
		if err := enc.Encode(&f); err != nil {
			c.retire(cc, fmt.Errorf("federation: send: %w", err))
			return
		}
		if f.Kind != "cancel" {
			cc.written.Store(f.ID)
		}
	}
}

// push queues frame f for the writer. The caller holds cc.mu.
func (cc *clientConn) push(f rpcRequest) {
	cc.queue = append(cc.queue, f)
	select {
	case cc.wake <- struct{}{}:
	default: // the writer has a wake-up pending already
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

// send gives req the connection's next ID and a reply channel, and queues
// its frame. On a retired connection the ID is spent unwritten and send
// fails with the retirement's cause.
func (cc *clientConn) send(req *rpcRequest) (chan rpcResponse, error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cc.nextID++ // 2^64 IDs per connection: never wraps
	req.ID = cc.nextID
	if cc.pending == nil {
		return nil, cc.err
	}
	reply := make(chan rpcResponse, 1)
	cc.pending[req.ID] = reply
	cc.push(*req)
	return reply, nil
}

// abandon stops waiting for request id and withdraws it: a frame the writer
// has not taken yet is dropped from the queue, and once it has, a cancel
// frame is queued behind it. Either way the caller returns at once and the
// requests sharing the connection are not disturbed; the response, if it
// still comes, is dropped by the reader.
func (cc *clientConn) abandon(id uint64) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if _, waiting := cc.pending[id]; !waiting {
		return // answered just now, or cc retired
	}
	delete(cc.pending, id)
	if i := slices.IndexFunc(cc.queue, func(f rpcRequest) bool { return f.ID == id }); i >= 0 {
		cc.queue = slices.Delete(cc.queue, i, i+1)
		return
	}
	cc.push(rpcRequest{ID: id, Kind: "cancel"})
}

// roundTripCtx sends one request and waits for its response, for the
// context, or for the client timeout, whichever comes first. The context
// and the timeout bound the dial too, but never the frame write, which is
// the writer's (see writeLoop): the caller can return at its context's end
// while its frame is still being written. Giving up — cancellation or
// timeout — returns at once and withdraws the request (see abandon); the
// connection stays up.
func (c *Client) roundTripCtx(ctx context.Context, req rpcRequest) (_ rpcResponse, err error) {
	done := c.obs.begin(req.Kind)
	defer func() { done(err) }()
	if err := ctx.Err(); err != nil {
		return rpcResponse{}, fmt.Errorf("federation: %w", err)
	}
	timer := time.NewTimer(c.timeout)
	defer timer.Stop()
	gaveUp := func(cause error) (rpcResponse, error) {
		return rpcResponse{}, fmt.Errorf("federation: %s at %s: %w", req.Kind, c.addr, cause)
	}
	for retried := false; ; retried = true {
		cc, err := c.connect(ctx, timer.C)
		if err != nil {
			return rpcResponse{}, err
		}
		reply, err := cc.send(&req)
		if err == nil {
			select {
			case resp, ok := <-reply:
				if ok {
					if resp.Err != "" {
						return rpcResponse{}, errors.New(resp.Err)
					}
					return resp, nil
				}
				err = cc.err // set before retire closed reply
			case <-ctx.Done():
				cc.abandon(req.ID)
				return gaveUp(ctx.Err())
			case <-timer.C:
				cc.abandon(req.ID)
				return gaveUp(os.ErrDeadlineExceeded)
			}
		}
		if retried || cc.written.Load() >= req.ID {
			return rpcResponse{}, err
		}
		// The connection was retired before the request's frame left it —
		// typically the server dropped it while it sat idle and the reader
		// had not seen the EOF yet. The request was not executed: retry it
		// once, on a fresh dial.
	}
}

// Close tears the connection down, failing the requests pending on it, and
// returns once its reader and its writer have exited. A later request dials
// afresh.
func (c *Client) Close() error {
	if cc := c.current(); cc != nil {
		c.retire(cc, errors.New("federation: client closed"))
		cc.wg.Wait()
	}
	return nil
}

// Archive implements Transport.
func (c *Client) Archive() (string, error) {
	resp, err := c.roundTripCtx(context.Background(), rpcRequest{Kind: "archive"})
	if err != nil {
		return "", err
	}
	return resp.Archive, nil
}

// Extract implements Transport.
func (c *Client) Extract(req ExtractRequest) (ExtractResponse, error) {
	return c.ExtractCtx(context.Background(), req)
}

// ExtractCtx is Extract under ctx: when ctx ends before the response
// arrives, the call returns ctx's error at once, as MatchCtx does.
func (c *Client) ExtractCtx(ctx context.Context, req ExtractRequest) (ExtractResponse, error) {
	resp, err := c.roundTripCtx(ctx, rpcRequest{Kind: "extract", Extract: &req})
	if err != nil {
		return ExtractResponse{}, err
	}
	if resp.Extract == nil {
		return ExtractResponse{}, errors.New("federation: empty extract response")
	}
	return *resp.Extract, nil
}

// Match implements Transport.
func (c *Client) Match(req MatchRequest) (MatchResponse, error) {
	return c.MatchCtx(context.Background(), req)
}

// MatchCtx implements ContextTransport: when ctx ends before the response
// arrives, the call returns ctx's error at once and a cancel frame
// withdraws the cross-match from the remote engine's queues, as an
// in-process MatchCtx would. Calls from concurrent goroutines share the
// connection and are in the remote engine together. Each pair's Remote is
// restored from req.Objects by the ID the response names; a response that
// names an object req did not ship fails the call.
func (c *Client) MatchCtx(ctx context.Context, req MatchRequest) (MatchResponse, error) {
	resp, err := c.roundTripCtx(ctx, rpcRequest{Kind: "match", Match: &req})
	if err != nil {
		return MatchResponse{}, err
	}
	if resp.Match == nil {
		return MatchResponse{}, errors.New("federation: empty match response")
	}
	if err := restoreRemotes(resp.Match.Pairs, req.Objects); err != nil {
		return MatchResponse{}, fmt.Errorf("federation: match at %s: %w", c.addr, err)
	}
	return *resp.Match, nil
}

// restoreRemotes replaces each pair's Remote, which names a shipped object
// by its ID, with that object. Shipped objects in ascending ID order, which
// is how a portal ships them, are binary-searched where they lie; any other
// order is indexed once, the first object of an ID winning.
func restoreRemotes(pairs []xmatch.Pair, shipped []Object) error {
	var byID map[uint64]int // nil: search shipped in place
	if len(pairs) > 0 && !ascendingIDs(shipped) {
		byID = make(map[uint64]int, len(shipped))
		for k := len(shipped) - 1; k >= 0; k-- {
			byID[shipped[k].ID] = k
		}
	}
	for i := range pairs {
		id := pairs[i].Remote.ID
		var k int
		var found bool
		if byID != nil {
			k, found = byID[id]
		} else {
			k, found = slices.BinarySearchFunc(shipped, id, func(o Object, id uint64) int { return cmp.Compare(o.ID, id) })
		}
		if !found {
			return fmt.Errorf("the response names object %d, which the request did not ship", id)
		}
		pairs[i].Remote = shipped[k].toCatalog()
	}
	return nil
}
