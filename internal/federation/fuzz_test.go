package federation

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"liferaft/internal/catalog"
	"liferaft/internal/simclock"
)

// fuzzKinds are the request kinds a scripted frame may carry: the four of
// the protocol, one nobody defined, and none.
var fuzzKinds = [...]string{"archive", "extract", "match", "cancel", "bogus", ""}

// fuzzFrames reads script three bytes at a time as (ID, kind, payload?)
// frames. IDs are taken modulo 8, so scripts repeat IDs in flight and cancel
// IDs that never ran; an extract or match frame may come without its payload.
func fuzzFrames(script []byte, objs []Object) []rpcRequest {
	const maxFrames = 512 // twice the in-flight bound
	var frames []rpcRequest
	for ; len(script) >= 3 && len(frames) < maxFrames; script = script[3:] {
		req := rpcRequest{ID: uint64(script[0] % 8), Kind: fuzzKinds[int(script[1])%len(fuzzKinds)]}
		if script[2]%2 == 1 {
			n := int(script[2]) % (len(objs) + 1)
			req.Extract = &ExtractRequest{QueryID: 1, RA: 150, Dec: 20, RadiusDeg: float64(script[2]%4) * 2, Selectivity: 1}
			req.Match = &MatchRequest{QueryID: 1, MatchRadiusArcsec: float64(script[2] % 3), Objects: objs[:n]}
		}
		frames = append(frames, req)
	}
	return frames
}

// FuzzFederationFrames throws hostile request streams at a served node after
// a valid handshake. Raw mode writes arbitrary bytes where gob frames belong.
// Scripted mode writes well-formed frames in arbitrary combinations —
// duplicate IDs, cancels for IDs that never ran, kinds nobody defined,
// extract and match frames without their payload. Either way the server must
// not panic (that would take the fuzz worker down) and must keep serving
// others; in scripted mode it answers every frame but the cancels exactly
// once, under the frame's ID, with no more goroutines than the in-flight
// bound allows.
func FuzzFederationFrames(f *testing.F) {
	cat, err := catalog.New(catalog.Config{Name: "sdss", N: 2000, Seed: 7, GenLevel: 3, CacheTrixels: true})
	if err != nil {
		f.Fatal(err)
	}
	node, err := NewNode(NodeConfig{Catalog: cat, ObjectsPerBucket: 100, Alpha: 0.25, Clock: simclock.NewVirtual()})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { node.Close() })
	srv, err := Serve(node, "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	ext, err := node.Extract(ExtractRequest{QueryID: 1, RA: 150, Dec: 20, RadiusDeg: 6, Selectivity: 1})
	if err != nil || len(ext.Objects) == 0 {
		f.Fatalf("fixture extraction: %d objects, %v", len(ext.Objects), err)
	}
	objs := ext.Objects

	var valid bytes.Buffer
	enc := gob.NewEncoder(&valid)
	for _, req := range fuzzFrames([]byte{1, 0, 0, 2, 1, 3, 3, 2, 5}, objs) {
		if err := enc.Encode(&req); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(valid.Bytes(), false)
	f.Add(valid.Bytes()[:valid.Len()/2], false)
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"), false)
	f.Add([]byte{1, 2, 3, 1, 2, 3, 1, 3, 0, 9, 3, 0}, true)    // duplicate match IDs, cancels known and unknown
	f.Add([]byte{0, 1, 0, 0, 2, 0, 0, 4, 1, 0, 5, 1}, true)    // missing payloads, undefined kinds
	f.Add(bytes.Repeat([]byte{7, 2, 5, 7, 3, 0}, 200), true)   // a long run of matches and their cancels
	f.Add(bytes.Repeat([]byte{3, 1, 7, 4, 0, 0}, 256), true)   // past the in-flight bound
	f.Add([]byte{2, 2, 2, 2, 1, 4, 5, 2, 3, 5, 1, 1, 0}, true) // zero radii: the node refuses, the server answers

	f.Fuzz(func(t *testing.T, data []byte, scripted bool) {
		hostileConn(t, srv, objs, data, scripted)
	})
}

// hostileConn is one fuzz execution: a connection that shakes hands and then
// sends data — as it is, or read as a frame script — followed by a healthy
// client's request to the same server.

func hostileConn(t *testing.T, srv *Server, objs []Object, data []byte, scripted bool) {
	before := runtime.NumGoroutine()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(20 * time.Second))
	var banner string
	if _, err := fmt.Fscanf(conn, "%s\n", &banner); err != nil || banner != protoVersion {
		t.Fatalf("handshake: %q, %v", banner, err)
	}
	if _, err := fmt.Fprintf(conn, "%s\n", protoVersion); err != nil {
		t.Fatal(err)
	}

	if !scripted {
		// Whatever the bytes decode to, the server answers, waits for
		// more or hangs up; it is not for this side to say which.
		conn.Write(data)
	} else {
		frames := fuzzFrames(data, objs)
		want := make(map[uint64]int)
		answers := 0
		for _, req := range frames {
			if req.Kind != "cancel" {
				want[req.ID]++
				answers++
			}
		}
		// Responses are read while the frames are written, as a real
		// client's reader does: neither side may stall the other.
		type tally struct {
			seen map[uint64]int
			err  error
		}
		got := make(chan tally, 1)
		go func() {
			seen := make(map[uint64]int)
			dec := gob.NewDecoder(conn)
			for n := 0; n < answers; n++ {
				var resp rpcResponse
				if err := dec.Decode(&resp); err != nil {
					got <- tally{seen, fmt.Errorf("response %d of %d: %w", n+1, answers, err)}
					return
				}
				seen[resp.ID]++
			}
			// Nothing more may follow: a cancel is never answered.
			conn.SetReadDeadline(time.Now().Add(2 * time.Millisecond))
			var extra rpcResponse
			if dec.Decode(&extra) == nil {
				got <- tally{seen, fmt.Errorf("a response (ID %d) beyond the %d requests sent", extra.ID, answers)}
				return
			}
			got <- tally{seen, nil}
		}()
		enc := gob.NewEncoder(conn)
		for i := range frames {
			if err := enc.Encode(&frames[i]); err != nil {
				conn.Close()
				<-got
				t.Fatalf("frame %d: %v", i, err)
			}
		}
		// The handler, at most maxInFlight request goroutines and this
		// test's reader; anything past that is unbounded growth.
		if n := runtime.NumGoroutine() - before; n > maxInFlight+2 {
			t.Errorf("%d goroutines for one connection, in-flight bound %d", n, maxInFlight)
		}
		res := <-got
		if res.err != nil {
			t.Fatal(res.err)
		}
		seen := res.seen
		for id, n := range want {
			if seen[id] != n {
				t.Errorf("request ID %d answered %d times, sent %d times", id, seen[id], n)
			}
		}
	}

	cli := DialTimeout(srv.Addr().String(), 10*time.Second)
	defer cli.Close()
	if name, err := cli.Archive(); err != nil || name != "sdss" {
		t.Fatalf("server unusable after the hostile connection: %q, %v", name, err)
	}
}
