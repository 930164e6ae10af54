package federation

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"liferaft/internal/catalog"
	"liferaft/internal/metric"
	"liferaft/internal/xmatch"
)

// fakePeer serves one connection on ln as a server of this protocol would
// up to the first request: it shakes hands, reads one request frame, writes
// answer as it is and hangs up. The returned channel closes once it has.
func fakePeer(ln net.Listener, answer []byte) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		var client string
		if _, err := fmt.Fprintf(conn, "%s\n", protoVersion); err != nil {
			return
		}
		if _, err := fmt.Fscanf(conn, "%s\n", &client); err != nil {
			return
		}
		var req rpcRequest
		if gob.NewDecoder(conn).Decode(&req) != nil {
			return
		}
		conn.Write(answer)
	}()
	return done
}

// responseFrames gob-encodes resps as one connection's response stream.
func responseFrames(t testing.TB, resps ...rpcResponse) []byte {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for i := range resps {
		if err := enc.Encode(&resps[i]); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// pairsByID is a copy of pairs in SortPairs order.
func pairsByID(pairs []xmatch.Pair) []xmatch.Pair {
	out := slices.Clone(pairs)
	xmatch.SortPairs(out)
	return out
}

// TestMatchWireBytesOmitTheEcho pins the protocol's saving where it is
// made, on the wire: the bytes a client receives for a match of a hot
// batch's size (a few hundred pairs) are at most two thirds of what the
// MatchResponse it returns costs gob-encoded whole, which is what the
// previous protocol sent. Both are measured on a warm stream, with gob's
// type descriptors already sent.
func TestMatchWireBytesOmitTheEcho(t *testing.T) {
	f := newFixture(t)
	srv, err := Serve(f.sdss, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := DialTimeout(srv.Addr().String(), 10*time.Second)
	defer cli.Close()
	hops := NewHopMetrics(metric.NewRegistry())
	cli.Instrument(hops, "sdss")
	received := hops.wire.With("sdss", "received")

	req := MatchRequest{QueryID: 1, MatchRadiusArcsec: 5, Objects: shipped(t, f, 150, 12)}
	if _, err := cli.MatchCtx(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	before := received.Value()
	resp, err := cli.MatchCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	wire := received.Value() - before
	if len(resp.Pairs) < 200 {
		t.Fatalf("fixture: %d pairs, want a hot batch's few hundred", len(resp.Pairs))
	}

	var whole bytes.Buffer
	enc := gob.NewEncoder(&whole)
	frame := rpcResponse{ID: 2, Match: &resp}
	if err := enc.Encode(&frame); err != nil {
		t.Fatal(err)
	}
	whole.Reset()
	if err := enc.Encode(&frame); err != nil {
		t.Fatal(err)
	}
	v3 := float64(whole.Len())
	t.Logf("%d pairs: %.0f bytes received, %.0f as the whole response (%.2f)", len(resp.Pairs), wire, v3, wire/v3)
	if wire > v3*2/3 {
		t.Errorf("%d pairs cost %.0f bytes on the wire, more than 2/3 of the %.0f the whole response costs", len(resp.Pairs), wire, v3)
	}
}

// TestRestoreRemotesInAnyOrder: a client gives every pair back the object
// its request shipped under the pair's ID, whatever the request's order —
// over TCP, a request shipped in descending and in shuffled order answers
// the in-process pairs of the ascending one, Remote included — and where a
// request ships one ID twice, the first object of that ID is the one.
func TestRestoreRemotesInAnyOrder(t *testing.T) {
	f := newFixture(t)
	srv, err := Serve(f.sdss, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := DialTimeout(srv.Addr().String(), 10*time.Second)
	defer cli.Close()

	req := MatchRequest{QueryID: 1, MatchRadiusArcsec: 5, Objects: shipped(t, f, 150, 6)}
	if !ascendingIDs(req.Objects) {
		t.Fatal("fixture: the extraction is not in ascending ID order, as a portal ships it")
	}
	want, err := InProc{f.sdss}.MatchCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Pairs) == 0 {
		t.Fatal("fixture: no pairs")
	}
	wantPairs := pairsByID(want.Pairs)
	descending := slices.Clone(req.Objects)
	slices.Reverse(descending)
	shuffled := slices.Clone(req.Objects)
	for i := range shuffled {
		j := (i * 7919) % len(shuffled)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	for name, objs := range map[string][]Object{"descending": descending, "shuffled": shuffled} {
		r := req
		r.Objects = objs
		resp, err := cli.MatchCtx(context.Background(), r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := pairsByID(resp.Pairs)
		if len(got) != len(wantPairs) {
			t.Fatalf("%s: %d pairs, in-process %d", name, len(got), len(wantPairs))
		}
		for i := range got {
			if got[i].Local != wantPairs[i].Local || got[i].Remote != wantPairs[i].Remote || got[i].SepRad != wantPairs[i].SepRad {
				t.Fatalf("%s, pair %d: %+v, in-process %+v", name, i, got[i], wantPairs[i])
			}
		}
	}

	twice := []Object{{ID: 5, X: 1}, {ID: 3, Y: 1}, {ID: 5, Z: 1}}
	pairs := []xmatch.Pair{{Remote: catalog.Object{ID: 5}}, {Remote: catalog.Object{ID: 3}}}
	if err := restoreRemotes(pairs, twice); err != nil {
		t.Fatal(err)
	}
	if pairs[0].Remote != twice[0].toCatalog() || pairs[1].Remote != twice[1].toCatalog() {
		t.Errorf("restored %+v, want the first object of each ID", pairs)
	}
}

// TestUnshippedRemoteFailsTheCall: a response that names an object the
// request did not ship fails the call with an error naming the ID — not a
// panic, and not a pair with a zero object.
func TestUnshippedRemoteFailsTheCall(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	objs := []Object{{ID: 3, X: 1}, {ID: 5, Y: 1}}
	const stray = 4
	answer := responseFrames(t, rpcResponse{ID: 1, Match: &MatchResponse{Pairs: []xmatch.Pair{
		{Remote: catalog.Object{ID: 3}}, {Remote: catalog.Object{ID: stray}},
	}}})
	done := fakePeer(ln, answer)
	cli := DialTimeout(ln.Addr().String(), 10*time.Second)
	defer cli.Close()
	resp, err := cli.MatchCtx(context.Background(), MatchRequest{MatchRadiusArcsec: 5, Objects: objs})
	<-done
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("object %d, which the request did not ship", stray)) {
		t.Errorf("err = %v, want one naming object %d; pairs %+v", err, stray, resp.Pairs)
	}
}

// TestNodeIgnoresShippedHTMID: a node keys a shipped object by its position
// alone, so corrupting every shipped HTMID changes no pair's Local,
// Remote.ID or SepRad, in-process or over TCP.
func TestNodeIgnoresShippedHTMID(t *testing.T) {
	f := newFixture(t)
	srv, err := Serve(f.sdss, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := DialTimeout(srv.Addr().String(), 10*time.Second)
	defer cli.Close()

	clean := MatchRequest{QueryID: 1, MatchRadiusArcsec: 5, Objects: shipped(t, f, 150, 6)}
	corrupt := clean
	corrupt.Objects = slices.Clone(clean.Objects)
	for i := range corrupt.Objects {
		corrupt.Objects[i].HTMID = ^corrupt.Objects[i].HTMID
	}
	for _, site := range []struct {
		name string
		ContextTransport
	}{{"in-process", InProc{f.sdss}}, {"TCP", cli}} {
		want, err := site.MatchCtx(context.Background(), clean)
		if err != nil {
			t.Fatal(err)
		}
		got, err := site.MatchCtx(context.Background(), corrupt)
		if err != nil {
			t.Fatal(err)
		}
		w, g := pairsByID(want.Pairs), pairsByID(got.Pairs)
		if len(w) == 0 || len(g) != len(w) {
			t.Fatalf("%s: %d pairs with corrupt HTMIDs, %d clean", site.name, len(g), len(w))
		}
		for i := range w {
			if g[i].Local != w[i].Local || g[i].Remote.ID != w[i].Remote.ID || g[i].SepRad != w[i].SepRad {
				t.Fatalf("%s, pair %d: %v with corrupt HTMIDs, %v clean", site.name, i, g[i], w[i])
			}
		}
	}
}
