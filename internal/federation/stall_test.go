package federation

import (
	"context"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"liferaft/internal/bucket"
	"liferaft/internal/catalog"
	"liferaft/internal/core"
	"liferaft/internal/htm"
	"liferaft/internal/metric"
	"liferaft/internal/segment"
	"liferaft/internal/server"
	"liferaft/internal/trace"
)

// TestNothingWaitsOnALockBehindAStall: LifeRaft's throughput comes from
// many queries sharing one bucket read while every arm and the serving
// layer keep moving, and a mutex held across a blocking call serializes
// exactly that. Each row stalls one blocking seam of the serving path of a
// served real-clock node over a segment store:
//
//   - a shard's bucket.Backend.Fill, through a backend wrapped with
//     Store.WithBackend;
//   - the same Fill with that shard's 1 024-slot inbox full;
//   - the hop's bytes client to server, then server to client, through a
//     proxy that stops forwarding them;
//   - the writer of a Registry.WriteText scrape;
//   - the writer of a /debug/traces read.
//
// While the seam is stalled, traffic runs against the same stack: two
// tenants' cross-matches, cancels (their deadlines), SetAlpha, overlapping
// scrapes and trace reads, requests on the stalled hop connection and on a
// second one. Two full stack dumps are taken 250 ms apart, and no goroutine
// may be parked on a sync.Mutex or sync.RWMutex in module code in both,
// whatever it waits behind: a pread, a frame write, an engine hand-off, a
// channel, or another lock whose holder blocks. The dumps see through the
// interface calls the seams are reached by.
//
// One hold is deliberate, named with its bound: Live sends to a shard's
// inbox under l.mu, so the closed check and the fan-out are one step
// against Close. With the inbox full, every caller of the engine waits on
// l.mu until the shard takes its next step: its waiters must be gone within
// shardStepBound of the Fill returning.
//
// The hop writes each connection's frames on one writer goroutine per side,
// with no lock in front of it. The server to client row bounds what a
// stalled reader holds up: its own connection's writer, until the write
// fails at ioTimeout; requests on the second connection are answered
// meanwhile, and the torn connection's request goroutines exit within the
// same bound, their replies dropped unencoded.
func TestNothingWaitsOnALockBehindAStall(t *testing.T) {
	defer func(d time.Duration) { ioTimeout = d }(ioTimeout)
	ioTimeout = seamIOTimeout
	checkLockWaitsSeen(t)
	f := newFixture(t)
	part, err := bucket.NewPartition(fedCats[0], 400, 64)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := segment.Write(dir, part, segment.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	var objs [][]Object
	for _, ra := range []float64{150, 165, 180, 195} {
		objs = append(objs, shipped(t, f, ra, 8))
	}

	fromLive := func(waiter string) bool { return strings.HasPrefix(waiter, "liferaft/internal/core.(*Live).") }
	var writer goroutine // the server's writer the hop's stall holds
	for _, row := range []struct {
		name string
		// stall stalls the seam and reports when a goroutine is parked in it.
		stall func(s *seamStack) (reached func() bool)
		// held tolerates the waiters of the row's deliberate hold.
		held func(waiter string) bool
		// bound holds the deliberate hold to its bound once the two dumps
		// are taken; it may end the stall.
		bound func(t *testing.T, s *seamStack, reached time.Time, waits lockWaits)
	}{
		{name: "segment fill", stall: stallFill},
		{
			name: "segment fill, inbox full",
			stall: func(s *seamStack) func() bool {
				parked := stallFill(s)
				s.spawn(func() {
					for !parked() {
						time.Sleep(time.Millisecond)
					}
					// Each SetAlpha puts one entry in every inbox; the
					// stalled shard's fills up and the next send blocks.
					for i := 0; i < 2*inboxSlots && s.ctx.Err() == nil; i++ {
						s.node.engine.SetAlpha(0.5)
					}
				})
				return func() bool {
					return dumpHas("chan send", "liferaft/internal/core.(*Live).broadcast")
				}
			},
			held: fromLive,
			bound: func(t *testing.T, s *seamStack, _ time.Time, waits lockWaits) {
				s.end()
				within(t, time.Now().Add(shardStepBound), "Live's lock free a shard step after the Fill returned",
					func() bool { return waits.still(fromLive) == "" })
			},
		},
		{
			name: "hop, client to server",
			stall: func(s *seamStack) func() bool {
				s.c2s.start()
				// 7 MB frames: the sockets' buffers hold a few megabytes, so
				// a write of the first or second blocks while the proxy holds
				// the bytes. Their radius makes the node refuse them once
				// they arrive.
				big := make([]Object, 150_000)
				for i := range big {
					big[i] = objs[0][0]
				}
				for range 3 {
					s.spawn(func() { s.hop.MatchCtx(s.ctx, MatchRequest{QueryID: 1, Objects: big}) })
				}
				return func() bool {
					return dumpHas("IO wait", "net.(*conn).Write", clientWriter)
				}
			},
		},
		{
			name: "hop, server to client",
			stall: func(s *seamStack) func() bool {
				s.s2c.start()
				// Half-sky samples answer with 1 MB frames: a few of them
				// fill both sockets' buffers. A reply's write deadline runs
				// from its write, so it ends within ioTimeout of the stall
				// however long the race detector makes its encoding.
				for range 8 {
					s.spawn(func() {
						s.hop.ExtractCtx(s.ctx, ExtractRequest{QueryID: 1, RadiusDeg: 180, Selectivity: 0.5, Seed: 1})
					})
				}
				return func() bool {
					for _, g := range goroutines() {
						if g.state == "IO wait" && g.calls("net.(*conn).Write", serverWriter) {
							writer = g
							return true
						}
					}
					return false
				}
			},
			bound: func(t *testing.T, s *seamStack, reached time.Time, _ lockWaits) {
				// The stalled write fails at its deadline and tears the
				// connection down...
				torn := writer.receiver(serverWriter)
				if torn == "" {
					t.Fatalf("no receiver in the stalled writer's stack:\n%s", writer.stack)
				}
				bound := reached.Add(seamIOTimeout + 300*time.Millisecond)
				within(t, bound, "the stalled reply write failed at ioTimeout", func() bool {
					return !slices.ContainsFunc(goroutines(), func(g goroutine) bool { return g.id == writer.id })
				})
				if s.completed(func(c completion) bool { return c.kind == "second" && c.ok && c.at.After(reached) }) == 0 {
					t.Error("no request on the second connection was answered while the first stalled")
				}
				// ...and the request goroutines of the torn connection hand
				// their replies over, to be dropped unencoded, and exit
				// within the same bound.
				const serve = "liferaft/internal/federation.(*serverConn).serve"
				within(t, bound, "the torn connection's request goroutines exited", func() bool {
					return !slices.ContainsFunc(goroutines(), func(g goroutine) bool { return g.receiver(serve) == torn })
				})
			},
		},
		{
			name: "metrics scrape",
			stall: func(s *seamStack) func() bool {
				w := s.stalledWriter()
				s.spawn(func() { s.reg.WriteText(w) })
				return w.st.reached
			},
		},
		{
			name: "trace index",
			stall: func(s *seamStack) func() bool {
				w := s.stalledWriter()
				s.spawn(func() { s.rec.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/traces", nil)) })
				return w.st.reached
			},
		},
	} {
		t.Run(row.name, func(t *testing.T) {
			s := newSeamStack(t, part, dir, objs)
			defer s.close(t)
			eventually(t, "every kind of traffic has completed a request", s.allRan)

			reached := row.stall(s)
			eventually(t, "the seam is stalled", reached)
			at := time.Now()
			time.Sleep(50 * time.Millisecond)
			first := readLockWaits()
			time.Sleep(250 * time.Millisecond)
			second := readLockWaits()
			held := row.held
			if held == nil {
				held = func(string) bool { return false }
			}
			for _, g := range second.parkedSince(first) {
				if !held(g.lockWaiter()) {
					t.Errorf("goroutine %s waited on a lock in %s through both dumps while the seam was stalled:\n%s",
						g.id, g.lockWaiter(), g.stack)
				}
			}
			if s.completed(func(c completion) bool { return (c.kind == "scrape" || c.kind == "traces") && c.at.After(at) }) == 0 {
				t.Error("no scrape or trace read completed while the seam was stalled")
			}
			if row.bound != nil {
				row.bound(t, s, at, second)
			}
		})
	}
}

const (
	// seamIOTimeout is the hop's ioTimeout in these rows: long enough for
	// both dumps, short enough to wait out.
	seamIOTimeout = 1500 * time.Millisecond
	// shardStepBound bounds one shard step: from a stalled Fill's return
	// until the engine's callers no longer wait on its lock.
	shardStepBound = 5 * time.Second
	// inboxSlots is a shard worker's inbox capacity.
	inboxSlots = 1024
)

// TestExpiredRequestSparesTheSharedConnection: a request's context bounds
// how long its caller waits, never its frame write. A failed write tears
// the frame stream and retires the multiplexed connection with every
// request pending on it, so a deadline that expires while a proxy holds one
// request's frame must fail that request alone, within a second of the
// deadline and while the frame is still held; the eight pending beside it
// are answered on the connection, dialed once.
func TestExpiredRequestSparesTheSharedConnection(t *testing.T) {
	f := newFixture(t)
	srv, err := Serve(f.sdss, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c2s, s2c := newStall(), newStall()
	proxy := newStallProxy(t, srv.Addr().String(), c2s, s2c)
	defer proxy.close()
	defer c2s.end()
	defer s2c.end()
	cli := DialTimeout(proxy.ln.Addr().String(), 10*time.Second)
	defer cli.Close()
	if _, err := cli.Archive(); err != nil {
		t.Fatal(err)
	}
	// The proxy's reader is inside a read when the stall starts: one more
	// reply gets through before it parks.
	eventually(t, "the proxy's reader is inside a read", func() bool { return s2c.reading.Load() > 0 })
	s2c.start()
	if _, err := cli.Archive(); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the proxy holds the replies", s2c.reached)

	eight := make(chan error, 8)
	for i := range 8 {
		go func() {
			_, err := cli.ExtractCtx(context.Background(),
				ExtractRequest{QueryID: uint64(i + 1), RA: 150, Dec: 20, RadiusDeg: 1, Selectivity: 1, Seed: 1})
			eight <- err
		}()
	}
	eventually(t, "eight requests are written and pending", func() bool {
		pending, written := pendingOn(cli)
		return pending == 8 && written
	})

	// A 7 MB frame: the sockets' buffers hold a few megabytes, so its write
	// blocks while the proxy holds the bytes. Its radius makes the node
	// refuse it once it arrives.
	c2s.start()
	big := make([]Object, 150_000)
	obj := shipped(t, f, 150, 1)[0]
	for i := range big {
		big[i] = obj
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	ninth := make(chan error, 1)
	go func() {
		_, err := cli.MatchCtx(ctx, MatchRequest{QueryID: 9, Objects: big})
		ninth <- err
	}()
	eventually(t, "the ninth request's frame write is held", func() bool {
		return dumpHas("IO wait", "net.(*conn).Write", clientWriter)
	})
	<-ctx.Done()
	// The caller returns at its deadline while the proxy still holds its
	// frame: the write runs on a goroutine of its own.
	select {
	case err := <-ninth:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("the expired request returned %v, want its context's error", err)
		}
	case <-time.After(time.Second):
		t.Error("the expired request did not return within 1 s of its deadline while its frame write was held")
	}
	if !dumpHas("IO wait", "net.(*conn).Write", clientWriter) {
		t.Error("the held frame write ended with the request's deadline")
	}
	c2s.end()
	s2c.end()
	for range 8 {
		if err := <-eight; err != nil {
			t.Errorf("a request pending beside the expired one failed: %v", err)
		}
	}
	proxy.mu.Lock()
	dials := len(proxy.conns) / 2
	proxy.mu.Unlock()
	if dials != 1 {
		t.Errorf("the client dialed %d times, want 1", dials)
	}
}

// TestFailedFrameWriteRetiresTheConnection: a frame write that fails at the
// client timeout leaves a partial frame on the stream, so it retires the
// connection, and the next request is answered on a fresh dial rather than
// written behind the torn frame.
func TestFailedFrameWriteRetiresTheConnection(t *testing.T) {
	f := newFixture(t)
	srv, err := Serve(f.sdss, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c2s, s2c := newStall(), newStall()
	proxy := newStallProxy(t, srv.Addr().String(), c2s, s2c)
	defer proxy.close()
	defer c2s.end()
	cli := DialTimeout(proxy.ln.Addr().String(), 2*time.Second)
	defer cli.Close()
	if _, err := cli.Archive(); err != nil {
		t.Fatal(err)
	}

	c2s.start()
	big := make([]Object, 150_000) // 7 MB: more than the sockets' buffers hold
	obj := shipped(t, f, 150, 1)[0]
	for i := range big {
		big[i] = obj
	}
	match := make(chan error, 1)
	go func() {
		_, err := cli.MatchCtx(context.Background(), MatchRequest{QueryID: 1, Objects: big})
		match <- err
	}()
	writing := func() bool {
		return dumpHas("IO wait", "net.(*conn).Write", clientWriter)
	}
	eventually(t, "the frame write is held", writing)
	eventually(t, "the held frame write has failed", func() bool { return !writing() })
	if err := <-match; err == nil {
		t.Fatal("a match whose frame the proxy held past the client timeout succeeded")
	}
	c2s.end()

	if name, err := cli.Archive(); err != nil || name != "sdss" {
		t.Fatalf("the request after the failed write: %q, %v", name, err)
	}
	proxy.mu.Lock()
	dials := len(proxy.conns) / 2
	proxy.mu.Unlock()
	if dials != 2 {
		t.Errorf("the client dialed %d times, want 2", dials)
	}
}

// TestFailedCancelWriteRetiresTheConnection: a cancel frame is written as a
// request's is, by the connection's writer under the client timeout, and a
// cancel whose write fails retires the connection: the partial frame it
// leaves on the stream would otherwise stand in front of the next request,
// which would get no answer. The test plays the server on the other end of
// a net.Pipe, which buffers nothing: it reads one match request's frame,
// then the request is cancelled and the test stops reading.
func TestFailedCancelWriteRetiresTheConnection(t *testing.T) {
	f := newFixture(t)
	srv, err := Serve(f.sdss, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := DialTimeout(srv.Addr().String(), 200*time.Millisecond)
	defer cli.Close()
	client, server := net.Pipe()
	defer server.Close()
	cc := cli.start(client)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := MatchRequest{QueryID: 1, MatchRadiusArcsec: 5, Objects: shipped(t, f, 150, 1)}
	match := make(chan error, 1)
	go func() {
		_, err := cli.MatchCtx(ctx, req)
		match <- err
	}()
	var frame rpcRequest
	if err := gob.NewDecoder(server).Decode(&frame); err != nil || frame.Kind != "match" {
		t.Fatalf("the first frame: %+v, %v", frame, err)
	}
	cancel()
	if err := <-match; err == nil {
		t.Fatal("a cancelled match succeeded")
	}
	select {
	case <-cc.dead:
	case <-time.After(5 * time.Second):
		t.Fatal("the connection was not retired after its cancel frame's write failed")
	}
	if err := cc.err; !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("the connection was retired by %v, want the cancel frame's write timing out", err)
	}
	if cur := cli.current(); cur != nil {
		t.Error("the retired connection is still the client's")
	}
	if name, err := cli.Archive(); err != nil || name != "sdss" {
		t.Fatalf("the request after the failed cancel: %q, %v", name, err)
	}
	if cur := cli.current(); cur == nil || cur == cc {
		t.Error("the request after the failed cancel did not dial afresh")
	}
}

// clientWriter and serverWriter are the functions that write a client's
// and a server connection's frames.
const (
	clientWriter = "liferaft/internal/federation.(*Client).writeLoop"
	serverWriter = "liferaft/internal/federation.(*serverConn).writeLoop"
)

// pendingOn counts the requests pending on c's connection and reports
// whether every frame registered on it has been written.
func pendingOn(c *Client) (int, bool) {
	cc := c.current()
	if cc == nil {
		return 0, true
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return len(cc.pending), cc.written.Load() == cc.nextID
}

// seamStack is one row's node and its traffic. The node is realClockNode's
// sdss node built by hand: at K = 2 over a segment store whose backend
// parks the first shard's Fills while fill is on, with its engine and
// serving metrics on one registry and a trace recorder. It is served, and
// reached through a proxy by hop and directly by second.
type seamStack struct {
	node      *Node
	reg       *metric.Registry
	rec       *trace.Recorder
	srv       *Server
	proxy     *stallProxy
	hop       *Client // through the proxy
	second    *Client // a connection of its own
	fill      *stall
	c2s, s2c  *stall
	write     *stall
	ctx       context.Context
	cancel    context.CancelFunc
	stop      chan struct{}
	wg        sync.WaitGroup
	kinds     []string
	mu        sync.Mutex
	ends      []completion
	objs      [][]Object
	nextQuery atomic.Uint64
}

func newSeamStack(t *testing.T, part *bucket.Partition, dir string, objs [][]Object) *seamStack {
	t.Helper()
	s := &seamStack{fill: newStall(), c2s: newStall(), s2c: newStall(), write: newStall(), objs: objs,
		stop: make(chan struct{})}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	ecfg, err := core.NewFileBacked(part, 0.25, true, dir)
	if err != nil {
		t.Fatal(err)
	}
	ecfg.Store = ecfg.Store.WithBackend(&stallingBackend{Backend: ecfg.Store.Backend(), st: s.fill})
	ecfg.Shards = 2
	s.reg = metric.NewRegistry()
	ecfg.Metrics = core.NewEngineMetrics(s.reg)
	eng, err := core.NewLive(ecfg)
	if err != nil {
		ecfg.Store.Close()
		t.Fatal(err)
	}
	// Slots enough that the dispatcher keeps handing queries to the engine
	// while a shard is stalled.
	serving, err := server.New(eng, server.Config{MaxInFlight: 64, SLOP99: time.Hour, Registry: s.reg})
	if err != nil {
		eng.Close()
		ecfg.Store.Close()
		t.Fatal(err)
	}
	s.rec = trace.New(trace.Config{})
	s.node = &Node{name: fedCats[0].Name(), cat: fedCats[0], part: part, store: ecfg.Store,
		engine: eng, serving: serving, tracer: s.rec}
	if s.srv, err = Serve(s.node, "127.0.0.1:0"); err != nil {
		s.node.Close()
		t.Fatal(err)
	}
	s.proxy = newStallProxy(t, s.srv.Addr().String(), s.c2s, s.s2c)
	s.hop = DialTimeout(s.proxy.ln.Addr().String(), 5*time.Second)
	s.second = Dial(s.srv.Addr().String())

	s.run("submit", 5*time.Millisecond, func() error {
		id := s.nextQuery.Add(1)
		tenant, wait := "a", 2*time.Second
		if id%2 == 1 {
			tenant, wait = "b", 60*time.Millisecond // cancelled in the engine
		}
		ctx, cancel := context.WithTimeout(s.ctx, wait)
		defer cancel()
		_, err := s.node.MatchCtx(ctx, s.match(id, tenant))
		return err
	})
	s.run("alpha", 10*time.Millisecond, func() error { return s.node.engine.SetAlpha(0.25) })
	s.run("scrape", 5*time.Millisecond, func() error {
		s.node.Serving().Stats()
		return s.reg.WriteText(io.Discard)
	})
	s.run("traces", 5*time.Millisecond, func() error {
		s.rec.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
		return nil
	})
	s.run("hop", 5*time.Millisecond, func() error {
		ctx, cancel := context.WithTimeout(s.ctx, 150*time.Millisecond)
		defer cancel()
		_, err := s.hop.MatchCtx(ctx, s.match(s.nextQuery.Add(1), "a"))
		return err
	})
	s.run("second", 10*time.Millisecond, func() error {
		ctx, cancel := context.WithTimeout(s.ctx, 2*time.Second)
		defer cancel()
		_, err := s.second.MatchCtx(ctx, s.match(s.nextQuery.Add(1), "b"))
		return err
	})
	return s
}

// match is a traced cross-match of one of the shipped regions.
func (s *seamStack) match(id uint64, tenant string) MatchRequest {
	return MatchRequest{QueryID: id, MatchRadiusArcsec: 5, Objects: s.objs[id%uint64(len(s.objs))],
		Tenant: tenant, TraceID: id}
}

// run starts one kind of traffic: a request every gap, at most eight of
// the kind in flight, until the stack closes.
func (s *seamStack) run(kind string, gap time.Duration, op func() error) {
	s.kinds = append(s.kinds, kind)
	slots := make(chan struct{}, 8)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			select {
			case slots <- struct{}{}:
			case <-s.stop:
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer func() { <-slots }()
				c := completion{kind: kind, ok: op() == nil, at: time.Now()}
				s.mu.Lock()
				s.ends = append(s.ends, c)
				s.mu.Unlock()
			}()
			select {
			case <-time.After(gap):
			case <-s.stop:
				return
			}
		}
	}()
}

// spawn runs op beside the traffic until the stack closes.
func (s *seamStack) spawn(op func()) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		op()
	}()
}

// allRan reports whether every kind of traffic has completed a request.
func (s *seamStack) allRan() bool {
	for _, k := range s.kinds {
		if s.completed(func(c completion) bool { return c.kind == k }) == 0 {
			return false
		}
	}
	return true
}

// stalledWriter is a reader that stopped reading: its Writes park until
// the stack's stalls end.
func (s *seamStack) stalledWriter() *stallingWriter {
	s.write.start()
	return &stallingWriter{st: s.write, h: http.Header{}}
}

// end ends every stall of the stack.
func (s *seamStack) end() {
	for _, st := range []*stall{s.fill, s.c2s, s.s2c, s.write} {
		st.end()
	}
}

// close stops the traffic, ends the stalls and waits for every request to
// return, then closes the clients, the proxy, the server and the node. A
// wait that does not end within 10 s fails the test with the goroutines
// still in the project's code, rather than hanging it.
func (s *seamStack) close(t *testing.T) {
	close(s.stop)
	s.end()
	s.cancel()
	within10s(t, "requests still running", s.wg.Wait)
	s.hop.Close()
	s.second.Close()
	s.proxy.close()
	within10s(t, "the server's Close still waiting", func() { s.srv.Close() })
	within10s(t, "the node's Close still waiting", func() { s.node.Close() })
}

// within10s runs wait and returns when it does, or after 10 s with an
// error naming what and dumping every goroutine in liferaft/ code.
func within10s(t *testing.T, what string, wait func()) {
	t.Helper()
	returned := make(chan struct{})
	go func() {
		wait()
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		var b strings.Builder
		for _, g := range goroutines() {
			if g.calls("liferaft/") {
				b.WriteString(g.stack + "\n\n")
			}
		}
		t.Errorf("%s 10 s after the stall ended:\n%s", what, b.String())
	}
}

// completion is one request of the traffic returning.
type completion struct {
	kind string
	ok   bool
	at   time.Time
}

// completed counts the traffic's completions that match.
func (s *seamStack) completed(match func(completion) bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.ends {
		if match(c) {
			n++
		}
	}
	return n
}

// stall is one seam's switch. Once it is on, wait parks its caller until
// end; reached reports that a caller is parked. A proxy pipe counts itself
// in reading while it is past the switch and inside a read.
type stall struct {
	on      atomic.Bool
	parked  atomic.Int32
	reading atomic.Int32
	open    chan struct{}
	end     func()
}

func newStall() *stall {
	st := &stall{open: make(chan struct{})}
	st.end = sync.OnceFunc(func() { close(st.open) })
	return st
}

func (st *stall) start() { st.on.Store(true) }

func (st *stall) wait() {
	if st.on.Load() {
		st.parked.Add(1)
		<-st.open
	}
}

func (st *stall) reached() bool { return st.parked.Load() > 0 }

// stallFill stalls the first shard's Fills.
func stallFill(s *seamStack) func() bool {
	s.fill.start()
	return s.fill.reached
}

// stallingBackend is a segment backend whose Fills park while st is on.
// Its first fork, the first shard's backend, takes st from it: only that
// shard stalls.
type stallingBackend struct {
	bucket.Backend
	st *stall // nil: never parks
}

func (b *stallingBackend) Fill(i int, r *bucket.Resident, keys []htm.Range) ([][]catalog.Object, int64, error) {
	if b.st != nil {
		b.st.wait()
	}
	return b.Backend.Fill(i, r, keys)
}

func (b *stallingBackend) Fork() (bucket.Backend, error) {
	fb, err := b.Backend.Fork()
	if err != nil {
		return nil, err
	}
	st := b.st
	b.st = nil
	return &stallingBackend{Backend: fb, st: st}, nil
}

// stallingWriter is an http.ResponseWriter, and an io.Writer, whose reader
// stopped reading.
type stallingWriter struct {
	st *stall
	h  http.Header
}

func (w *stallingWriter) Write(p []byte) (int, error) {
	w.st.wait()
	return len(p), nil
}

func (w *stallingWriter) Header() http.Header { return w.h }

func (w *stallingWriter) WriteHeader(int) {}

// stallProxy forwards each connection it accepts to target. While c2s or
// s2c is on it stops reading that direction's bytes, so the writer on that
// side fills the sockets' buffers and blocks.
type stallProxy struct {
	ln       net.Listener
	target   string
	c2s, s2c *stall
	wg       sync.WaitGroup

	mu     sync.Mutex
	closed bool
	conns  []net.Conn
}

func newStallProxy(t *testing.T, target string, c2s, s2c *stall) *stallProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &stallProxy{ln: ln, target: target, c2s: c2s, s2c: s2c}
	p.wg.Add(1)
	go p.accept()
	return p
}

func (p *stallProxy) accept() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		s, err := net.Dial("tcp", p.target)
		if err != nil {
			c.Close()
			continue
		}
		// Receive buffers of a fixed size: a read-ahead that autotuning
		// grew on earlier traffic would swallow a stalled direction's bytes
		// for a long while before its writer blocked.
		c.(*net.TCPConn).SetReadBuffer(256 << 10)
		s.(*net.TCPConn).SetReadBuffer(256 << 10)
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			c.Close()
			s.Close()
			return
		}
		p.conns = append(p.conns, c, s)
		p.wg.Add(2)
		p.mu.Unlock()
		go p.pipe(s, c, p.c2s)
		go p.pipe(c, s, p.s2c)
	}
}

// pipe copies src to dst, reading nothing while st is on, until either
// side fails; then it closes both.
func (p *stallProxy) pipe(dst, src net.Conn, st *stall) {
	defer p.wg.Done()
	defer dst.Close()
	defer src.Close()
	buf := make([]byte, 32<<10)
	for {
		st.wait()
		st.reading.Add(1)
		n, err := src.Read(buf)
		st.reading.Add(-1)
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

func (p *stallProxy) close() {
	p.ln.Close()
	p.mu.Lock()
	p.closed = true
	for _, c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// goroutine is one entry of a full stack dump.
type goroutine struct {
	id, state string
	funcs     []string // each frame's function, innermost first
	stack     string
}

// goroutines takes a full stack dump and parses it.
func goroutines() []goroutine {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	var gs []goroutine
	for _, block := range strings.Split(string(buf[:n]), "\n\n") {
		header, body, _ := strings.Cut(block, "\n")
		rest, ok := strings.CutPrefix(header, "goroutine ")
		if !ok {
			continue
		}
		g := goroutine{stack: block}
		g.id, g.state, _ = strings.Cut(rest, " [")
		g.state, _, _ = strings.Cut(g.state, "]")
		g.state, _, _ = strings.Cut(g.state, ",") // ", 2 minutes"
		for _, line := range strings.Split(body, "\n") {
			if line == "" || line[0] == '\t' || strings.HasPrefix(line, "created by ") {
				continue
			}
			if i := strings.LastIndexByte(line, '('); i > 0 {
				line = line[:i] // the arguments
			}
			g.funcs = append(g.funcs, line)
		}
		gs = append(gs, g)
	}
	return gs
}

// calls reports whether a frame's function begins with each of prefixes.
func (g goroutine) calls(prefixes ...string) bool {
	for _, p := range prefixes {
		if !slices.ContainsFunc(g.funcs, func(fn string) bool { return strings.HasPrefix(fn, p) }) {
			return false
		}
	}
	return true
}

// receiver is the first argument of g's innermost frame in function fn —
// for a method, the receiver, which tells one connection's goroutines from
// another's — or "" if fn is not on g's stack.
func (g goroutine) receiver(fn string) string {
	for _, line := range strings.Split(g.stack, "\n") {
		if args, ok := strings.CutPrefix(line, fn+"("); ok {
			arg, _, _ := strings.Cut(args, ",")
			arg, _, _ = strings.Cut(arg, ")")
			return arg
		}
	}
	return ""
}

// lockWaiter is the module function that called the Lock or RLock g is
// parked in, "" if g is not parked on a lock or that caller is not module
// code.
func (g goroutine) lockWaiter() string {
	switch g.state {
	case "sync.Mutex.Lock", "sync.RWMutex.RLock", "sync.RWMutex.Lock":
	default:
		return ""
	}
	for _, fn := range g.funcs {
		if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "sync.") || strings.HasPrefix(fn, "internal/sync.") {
			continue
		}
		if strings.HasPrefix(fn, "liferaft/") {
			return fn
		}
		return ""
	}
	return ""
}

// dumpHas reports whether some goroutine is in state with a frame of each
// of prefixes on its stack.
func dumpHas(state string, prefixes ...string) bool {
	return slices.ContainsFunc(goroutines(), func(g goroutine) bool { return g.state == state && g.calls(prefixes...) })
}

// lockWaits are the goroutines of one dump parked on a lock in module
// code, by ID.
type lockWaits map[string]goroutine

func readLockWaits() lockWaits {
	out := lockWaits{}
	for _, g := range goroutines() {
		if g.lockWaiter() != "" {
			out[g.id] = g
		}
	}
	return out
}

// parkedSince returns the goroutines of w that were parked on a lock in
// the same function in earlier.
func (w lockWaits) parkedSince(earlier lockWaits) []goroutine {
	var out []goroutine
	for id, g := range w {
		if e, ok := earlier[id]; ok && e.lockWaiter() == g.lockWaiter() {
			out = append(out, g)
		}
	}
	return out
}

// still takes a dump and renders the goroutines of w whose waiter matches
// and that are still parked on a lock in the same function.
func (w lockWaits) still(match func(waiter string) bool) string {
	var b strings.Builder
	for _, g := range readLockWaits().parkedSince(w) {
		if match(g.lockWaiter()) {
			b.WriteString(g.stack + "\n\n")
		}
	}
	return b.String()
}

// within polls cond until it holds, failing the test if it does not by
// deadline; what names the condition.
func within(t *testing.T, deadline time.Time, what string, cond func() bool) {
	t.Helper()
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("not %s in time", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// checkLockWaitsSeen holds a lock that another goroutine waits on and
// checks that a dump finds the waiter: the test cannot pass by reading
// dumps it does not understand.
func checkLockWaitsSeen(t *testing.T) {
	t.Helper()
	var mu sync.Mutex
	mu.Lock()
	locked := make(chan struct{})
	go func() {
		mu.Lock()
		close(locked)
		mu.Unlock()
	}()
	eventually(t, "a dump shows a goroutine waiting on a mutex", func() bool {
		for _, g := range readLockWaits() {
			if strings.HasPrefix(g.lockWaiter(), "liferaft/internal/federation.checkLockWaitsSeen") {
				return true
			}
		}
		return false
	})
	mu.Unlock()
	<-locked
}
