package federation

import (
	"bytes"
	"cmp"
	"context"
	"encoding/gob"
	"fmt"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"liferaft/internal/catalog"
	"liferaft/internal/simclock"
	"liferaft/internal/xmatch"
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
// bound allows. With toClient the roles turn: a hostile peer answers a
// client's match with the data, raw or as a script of response frames
// (hostilePeer).
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
	f.Add(valid.Bytes(), false, false)
	f.Add(valid.Bytes()[:valid.Len()/2], false, false)
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"), false, false)
	f.Add([]byte{1, 2, 3, 1, 2, 3, 1, 3, 0, 9, 3, 0}, true, false)    // duplicate match IDs, cancels known and unknown
	f.Add([]byte{0, 1, 0, 0, 2, 0, 0, 4, 1, 0, 5, 1}, true, false)    // missing payloads, undefined kinds
	f.Add(bytes.Repeat([]byte{7, 2, 5, 7, 3, 0}, 200), true, false)   // a long run of matches and their cancels
	f.Add(bytes.Repeat([]byte{3, 1, 7, 4, 0, 0}, 256), true, false)   // past the in-flight bound
	f.Add([]byte{2, 2, 2, 2, 1, 4, 5, 2, 3, 5, 1, 1, 0}, true, false) // zero radii: the node refuses, the server answers

	peerLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { peerLn.Close() })
	// A client ships at most eight objects, so a script can name each of
	// them and one that was not shipped.
	sent := objs[:min(len(objs), 8)]
	f.Add([]byte{1, 2, 4}, true, true)                        // a valid answer
	f.Add([]byte{1, 2, 44}, true, true)                       // a pair naming an object the request did not ship
	f.Add([]byte{0, 2, 1, 2, 0, 0, 1, 3, 9}, true, true)      // answers for IDs nobody waits for, then the right one
	f.Add([]byte{1, 0, 0, 1, 2, 3}, true, true)               // the peer's error, then a late answer under the same ID
	f.Add([]byte{1, 1, 0}, true, true)                        // an answer without its payload
	f.Add(responseFrames(f, rpcResponse{ID: 1}), false, true) // a raw, empty answer

	f.Fuzz(func(t *testing.T, data []byte, scripted, toClient bool) {
		if toClient {
			hostilePeer(t, peerLn, sent, data, scripted)
			return
		}
		hostileConn(t, srv, objs, data, scripted)
	})
}

// fuzzResponses reads script three bytes at a time as (ID, payload, pairs)
// response frames to a client whose one request (ID 1) shipped objs. IDs are
// taken modulo 3, so scripts answer IDs nobody waits for and answer ID 1
// twice. A frame carries the peer's error, no payload, or a match of up to
// four pairs, each naming one of objs by ID or, for an index past them, an
// object that was not shipped.
func fuzzResponses(script []byte, objs []Object) []rpcResponse {
	stray := slices.MaxFunc(objs, func(a, b Object) int { return cmp.Compare(a.ID, b.ID) }).ID + 1
	var resps []rpcResponse
	for ; len(script) >= 3 && len(resps) < 64; script = script[3:] {
		resp := rpcResponse{ID: uint64(script[0] % 3)}
		switch script[1] % 4 {
		case 0:
			resp.Err = "federation: the peer refused"
		case 1: // no payload
		default:
			resp.Match = &MatchResponse{}
			for j := range int(script[2] % 5) {
				id := stray
				if k := int(script[2]/5) + j; k < len(objs) {
					id = objs[k].ID
				}
				resp.Match.Pairs = append(resp.Match.Pairs, xmatch.Pair{QueryID: 7,
					Local: catalog.Object{ID: uint64(j)}, Remote: catalog.Object{ID: id}, SepRad: float64(j)})
			}
		}
		resps = append(resps, resp)
	}
	return resps
}

// hostilePeer is one fuzz execution against the client: a peer on ln that
// shakes hands, reads the client's match request and answers with data — as
// it is, or read as a script of response frames — then hangs up. The client
// must not panic; whatever match it returns names only shipped objects,
// restored whole. In scripted mode the outcome is known: the first frame
// under the request's ID decides it, and a pair naming an object that was
// not shipped fails the call with an error naming the ID.
func hostilePeer(t *testing.T, ln net.Listener, objs []Object, data []byte, scripted bool) {
	var want []rpcResponse
	if scripted {
		want = fuzzResponses(data, objs)
		data = responseFrames(t, want...)
	}
	done := fakePeer(ln, data)
	cli := DialTimeout(ln.Addr().String(), 10*time.Second)
	resp, err := cli.MatchCtx(context.Background(), MatchRequest{QueryID: 1, MatchRadiusArcsec: 5, Objects: objs})
	cli.Close()
	<-done

	byID := make(map[uint64]Object, len(objs))
	for _, o := range objs {
		byID[o.ID] = o
	}
	if err == nil {
		for i, p := range resp.Pairs {
			if o, ok := byID[p.Remote.ID]; !ok || p.Remote != o.toCatalog() {
				t.Fatalf("pair %d: Remote %+v is not the object shipped under its ID", i, p.Remote)
			}
		}
	}
	if !scripted {
		return
	}
	wantErr := "receive" // no answer under the request's ID: the hang-up fails it
	var answer *rpcResponse
	for i := range want {
		if want[i].ID == 1 {
			answer = &want[i]
			break
		}
	}
	if answer != nil {
		wantErr = ""
		switch {
		case answer.Err != "":
			wantErr = answer.Err
		case answer.Match == nil:
			wantErr = "empty match response"
		default:
			for _, p := range answer.Match.Pairs {
				if _, ok := byID[p.Remote.ID]; !ok {
					wantErr = fmt.Sprintf("object %d, which the request did not ship", p.Remote.ID)
					break
				}
			}
		}
	}
	if wantErr != "" {
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("err = %v, want one containing %q", err, wantErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("a valid answer failed: %v", err)
	}
	if len(resp.Pairs) != len(answer.Match.Pairs) {
		t.Fatalf("%d pairs, the peer sent %d", len(resp.Pairs), len(answer.Match.Pairs))
	}
	for i, p := range resp.Pairs {
		sent := answer.Match.Pairs[i]
		if p.QueryID != sent.QueryID || p.Local != sent.Local || p.Remote.ID != sent.Remote.ID || p.SepRad != sent.SepRad {
			t.Fatalf("pair %d: %+v, the peer sent %+v", i, p, sent)
		}
	}
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
