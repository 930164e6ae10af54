package federation

import (
	"bufio"
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"liferaft/internal/bucket"
	"liferaft/internal/catalog"
	"liferaft/internal/geom"
	"liferaft/internal/segment"
	"liferaft/internal/simclock"
)

// fedFixture builds a three-archive federation over one shared virtual
// clock: sdss is the base survey; twomass and usnob re-observe it.
type fedFixture struct {
	sdss, twomass, usnob *Node
	portal               *Portal
}

var (
	fedOnce sync.Once
	fedCats [3]*catalog.Catalog
)

func newFixture(t *testing.T) *fedFixture {
	t.Helper()
	fedOnce.Do(func() {
		base, err := catalog.New(catalog.Config{
			Name: "sdss", N: 40000, Seed: 11, GenLevel: 4, CacheTrixels: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		tm, err := catalog.NewDerived(base, catalog.DerivedConfig{
			Name: "twomass", Seed: 12, Fraction: 0.7,
			JitterRad: geom.ArcsecToRad(1), CacheTrixels: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		ub, err := catalog.NewDerived(base, catalog.DerivedConfig{
			Name: "usnob", Seed: 13, Fraction: 0.6,
			JitterRad: geom.ArcsecToRad(1), CacheTrixels: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		fedCats = [3]*catalog.Catalog{base, tm, ub}
	})
	clk := simclock.NewVirtual()
	mk := func(c *catalog.Catalog) *Node {
		n, err := NewNode(NodeConfig{Catalog: c, ObjectsPerBucket: 400, Alpha: 0.25, Clock: clk})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	f := &fedFixture{sdss: mk(fedCats[0]), twomass: mk(fedCats[1]), usnob: mk(fedCats[2])}
	f.portal = NewPortal()
	f.portal.Register("sdss", InProc{f.sdss})
	f.portal.Register("twomass", InProc{f.twomass})
	f.portal.Register("usnob", InProc{f.usnob})
	t.Cleanup(func() {
		f.sdss.Close()
		f.twomass.Close()
		f.usnob.Close()
	})
	return f
}

func testQuery() Query {
	return Query{
		ID: 1, RA: 150, Dec: 20, RadiusDeg: 5,
		MatchRadiusArcsec: 5, Selectivity: 0.5,
		Archives: []string{"twomass", "sdss"}, Seed: 42,
	}
}

func TestNodeValidation(t *testing.T) {
	if _, err := NewNode(NodeConfig{}); err == nil {
		t.Error("nil catalog should fail")
	}
	c, _ := catalog.New(catalog.Config{Name: "x", N: 100, Seed: 1, GenLevel: 2})
	if _, err := NewNode(NodeConfig{Catalog: c}); err == nil {
		t.Error("zero bucket size should fail")
	}
}

func TestExtractValidation(t *testing.T) {
	f := newFixture(t)
	if _, err := f.sdss.Extract(ExtractRequest{Selectivity: 0, RadiusDeg: 1}); err == nil {
		t.Error("zero selectivity should fail")
	}
	if _, err := f.sdss.Extract(ExtractRequest{Selectivity: 0.5, RadiusDeg: 0}); err == nil {
		t.Error("zero radius should fail")
	}
	if _, err := f.sdss.MatchCtx(context.Background(), MatchRequest{}); err == nil {
		t.Error("zero match radius should fail")
	}
}

func TestExtractSubsamples(t *testing.T) {
	f := newFixture(t)
	full, err := f.sdss.Extract(ExtractRequest{
		QueryID: 1, RA: 150, Dec: 20, RadiusDeg: 5, Selectivity: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	half, err := f.sdss.Extract(ExtractRequest{
		QueryID: 1, RA: 150, Dec: 20, RadiusDeg: 5, Selectivity: 0.5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Objects) == 0 {
		t.Fatal("no objects extracted")
	}
	ratio := float64(len(half.Objects)) / float64(len(full.Objects))
	if ratio < 0.4 || ratio > 0.6 {
		t.Errorf("subsample ratio %.2f, want ~0.5", ratio)
	}
}

func TestTwoArchiveCrossMatch(t *testing.T) {
	f := newFixture(t)
	rs, err := f.portal.ExecuteCtx(context.Background(), testQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) == 0 {
		t.Fatal("cross-match of correlated catalogs found nothing")
	}
	radius := geom.ArcsecToRad(5)
	for _, row := range rs.Rows {
		a, ok1 := row.Object("twomass")
		b, ok2 := row.Object("sdss")
		if !ok1 || !ok2 {
			t.Fatal("row missing an archive")
		}
		sep := a.toCatalog().Pos.Angle(b.toCatalog().Pos)
		if sep > radius+geom.Epsilon {
			t.Fatalf("matched pair separated by %v arcsec", geom.RadToArcsec(sep))
		}
	}
	if rs.Shipped["sdss"] == 0 {
		t.Error("shipment accounting missing")
	}
	if _, ok := rs.HopElapsed["sdss"]; !ok {
		t.Error("hop timing missing")
	}
}

func TestThreeArchivePlan(t *testing.T) {
	f := newFixture(t)
	q := testQuery()
	q.Archives = []string{"twomass", "sdss", "usnob"}
	rs, err := f.portal.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) == 0 {
		t.Fatal("three-way cross-match found nothing")
	}
	for _, row := range rs.Rows {
		for _, archive := range q.Archives {
			if _, ok := row.Object(archive); !ok {
				t.Fatalf("row has no %s object, want all of %v", archive, q.Archives)
			}
		}
	}
	// The three-way result must be a subset of the two-way result count:
	// every surviving tuple also matched at sdss.
	q2 := testQuery()
	rs2, err := f.portal.ExecuteCtx(context.Background(), q2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) > len(rs2.Rows)*3 {
		t.Errorf("three-way rows %d wildly exceed two-way %d", len(rs.Rows), len(rs2.Rows))
	}
}

func TestPortalValidation(t *testing.T) {
	f := newFixture(t)
	q := testQuery()
	q.Archives = []string{"sdss"}
	if _, err := f.portal.ExecuteCtx(context.Background(), q); err == nil {
		t.Error("single-archive plan should fail")
	}
	q = testQuery()
	q.Archives = []string{"nope", "sdss"}
	if _, err := f.portal.ExecuteCtx(context.Background(), q); err == nil || !strings.Contains(err.Error(), "unknown archive") {
		t.Errorf("unknown archive error = %v", err)
	}
	q = testQuery()
	q.MatchRadiusArcsec = 0
	if _, err := f.portal.ExecuteCtx(context.Background(), q); err == nil {
		t.Error("zero radius plan should fail")
	}
	q = testQuery()
	q.MagLo = math.NaN()
	if _, err := f.portal.ExecuteCtx(context.Background(), q); err == nil || !strings.Contains(err.Error(), "MagLo NaN") {
		t.Errorf("NaN magnitude bound: err = %v, want one naming MagLo", err)
	}
	q = testQuery()
	q.MagHi = math.Inf(1)
	if _, err := f.portal.ExecuteCtx(context.Background(), q); err == nil || !strings.Contains(err.Error(), "MagHi +Inf") {
		t.Errorf("infinite magnitude bound: err = %v, want one naming MagHi", err)
	}
	got := f.portal.Archives()
	if len(got) != 3 || got[0] != "sdss" {
		t.Errorf("Archives = %v", got)
	}
}

func TestPredicatePushdown(t *testing.T) {
	f := newFixture(t)
	q := testQuery()
	q.MagLo, q.MagHi = 15, 18
	rs, err := f.portal.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rs.Rows {
		if o, _ := row.Object("sdss"); o.Mag < 15 || o.Mag >= 18 {
			t.Fatalf("predicate violated: mag %v", o.Mag)
		}
	}
}

func TestConcurrentPortalQueries(t *testing.T) {
	f := newFixture(t)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	counts := make([]int, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := testQuery()
			q.ID = uint64(100 + i)
			q.RA = 150 + float64(i)*2
			rs, err := f.portal.ExecuteCtx(context.Background(), q)
			if err != nil {
				errs[i] = err
				return
			}
			counts[i] = len(rs.Rows)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if counts[i] == 0 {
			t.Errorf("query %d found nothing", i)
		}
	}
}

func TestTCPTransportEquivalence(t *testing.T) {
	f := newFixture(t)
	srv, err := Serve(f.sdss, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := Dial(srv.Addr().String())
	defer cli.Close()

	name, err := cli.Archive()
	if err != nil || name != "sdss" {
		t.Fatalf("Archive() = %q, %v", name, err)
	}

	// The same requests through TCP and in-proc must agree exactly.
	ereq := ExtractRequest{QueryID: 9, RA: 150, Dec: 20, RadiusDeg: 3, Selectivity: 0.8, Seed: 5}
	over, err := cli.Extract(ereq)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := f.sdss.Extract(ereq)
	if err != nil {
		t.Fatal(err)
	}
	if len(over.Objects) != len(direct.Objects) {
		t.Fatalf("TCP extract %d objects, direct %d", len(over.Objects), len(direct.Objects))
	}
	for i := range over.Objects {
		if over.Objects[i] != direct.Objects[i] {
			t.Fatalf("object %d differs over TCP", i)
		}
	}

	mreq := MatchRequest{QueryID: 9, MatchRadiusArcsec: 5, Objects: over.Objects}
	mOver, err := cli.Match(mreq)
	if err != nil {
		t.Fatal(err)
	}
	mDirect, err := f.sdss.MatchCtx(context.Background(), mreq)
	if err != nil {
		t.Fatal(err)
	}
	if len(mOver.Pairs) != len(mDirect.Pairs) || len(mDirect.Pairs) == 0 {
		t.Fatalf("TCP match %d pairs, direct %d", len(mOver.Pairs), len(mDirect.Pairs))
	}
	// The pairs cross the wire whole, positions and separations included.
	// QueryID is each call's node-local job ID, so it is not compared.
	for i, p := range mOver.Pairs {
		d := mDirect.Pairs[i]
		if p.Local != d.Local || p.Remote != d.Remote || p.SepRad != d.SepRad {
			t.Fatalf("pair %d over TCP %v, direct %v", i, p, d)
		}
	}

	// Server-side errors propagate as client errors.
	if _, err := cli.Extract(ExtractRequest{Selectivity: -1, RadiusDeg: 1}); err == nil {
		t.Error("server-side validation error should propagate")
	}
	// The connection survives an application error.
	if _, err := cli.Archive(); err != nil {
		t.Errorf("connection should survive app errors: %v", err)
	}
}

// TestTCPPortalEndToEnd: a plan whose every archive is reached over TCP
// answers the same JSON, byte for byte, as the same plan in-process — where
// the rows view the engine's own pair arrays rather than gob-decoded ones. The
// three-archive plan ships sdss's half of the pairs on to usnob as the
// intermediate frontier.
func TestTCPPortalEndToEnd(t *testing.T) {
	f := newFixture(t)
	p := NewPortal()
	for name, n := range map[string]*Node{"twomass": f.twomass, "sdss": f.sdss, "usnob": f.usnob} {
		srv, err := Serve(n, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		cli := Dial(srv.Addr().String())
		defer cli.Close()
		p.Register(name, cli)
	}
	three := testQuery()
	three.Archives = []string{"twomass", "sdss", "usnob"}
	for _, q := range []Query{testQuery(), three} {
		rs, err := p.ExecuteCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := f.portal.ExecuteCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(direct.Rows) == 0 {
			t.Fatalf("%v: no rows in-process", q.Archives)
		}
		got, err := rs.Rows.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := direct.Rows.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%v: TCP federation answers %d rows, in-process %d, and the bytes differ", q.Archives, len(rs.Rows), len(direct.Rows))
		}
		if !reflect.DeepEqual(rs.Shipped, direct.Shipped) {
			t.Errorf("%v: TCP federation shipped %v, in-process %v", q.Archives, rs.Shipped, direct.Shipped)
		}
	}
}

// TestNodeRefusesMalformedRequests: what a peer ships is checked before it
// is worked on. A NaN or infinite radius, selectivity or magnitude bound, and
// a shipped object whose position is no point of the sphere, are refused with
// an error naming the field or the object — in-process and over TCP alike —
// and promptly: an object at the origin used to send its error circle's cover
// down every trixel to level 14, pinning a server goroutine on a CPU, a NaN
// match radius used to pair each shipped object with every object of the
// buckets it touched, and a NaN magnitude bound used to answer no pairs at
// all.
func TestNodeRefusesMalformedRequests(t *testing.T) {
	f := newFixture(t)
	srv, err := Serve(f.sdss, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := DialTimeout(srv.Addr().String(), 10*time.Second)
	defer cli.Close()

	ok := ExtractRequest{QueryID: 1, RA: 150, Dec: 20, RadiusDeg: 1, Selectivity: 1, Seed: 1}
	good, err := f.twomass.Extract(ok)
	if err != nil || len(good.Objects) == 0 {
		t.Fatalf("fixture: %d objects, %v", len(good.Objects), err)
	}
	extract := func(edit func(*ExtractRequest)) *ExtractRequest {
		req := ok
		edit(&req)
		return &req
	}
	match := func(radius float64, bad ...Object) *MatchRequest {
		return &MatchRequest{QueryID: 1, MatchRadiusArcsec: radius, Objects: append([]Object{good.Objects[0]}, bad...)}
	}
	mags := func(lo, hi float64) *MatchRequest {
		req := match(5)
		req.MagLo, req.MagHi = lo, hi
		return req
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name    string
		extract *ExtractRequest
		match   *MatchRequest
		want    string
	}{
		{"extract radius NaN", extract(func(r *ExtractRequest) { r.RadiusDeg = nan }), nil, "radius NaN"},
		{"extract radius +Inf", extract(func(r *ExtractRequest) { r.RadiusDeg = inf }), nil, "radius +Inf"},
		{"selectivity NaN", extract(func(r *ExtractRequest) { r.Selectivity = nan }), nil, "selectivity NaN"},
		{"region centre NaN", extract(func(r *ExtractRequest) { r.Dec = nan }), nil, "region centre"},
		{"match radius NaN", nil, match(nan), "match radius NaN"},
		{"match radius +Inf", nil, match(inf), "match radius +Inf"},
		{"object at the origin", nil, match(5, Object{ID: 77}), "shipped object 77"},
		{"object NaN", nil, match(5, Object{ID: 78, X: nan, Y: 0.6, Z: 0.8}), "shipped object 78"},
		{"object infinite", nil, match(5, Object{ID: 79, X: inf}), "shipped object 79"},
		{"object off the sphere", nil, match(5, Object{ID: 80, X: 0.6, Y: 0.8, Z: 0.1}), "shipped object 80"},
		{"MagLo NaN", nil, mags(nan, 18), "MagLo NaN"},
		{"MagHi NaN", nil, mags(15, nan), "MagHi NaN"},
		{"MagLo -Inf", nil, mags(-inf, 18), "MagLo -Inf"},
		{"MagHi +Inf", nil, mags(15, inf), "MagHi +Inf"},
	}
	type site interface {
		Extract(ExtractRequest) (ExtractResponse, error)
		MatchCtx(context.Context, MatchRequest) (MatchResponse, error)
	}
	for _, tr := range []struct {
		name string
		site site
	}{{"in-process", InProc{f.sdss}}, {"TCP", cli}} {
		for _, c := range cases {
			done := make(chan error, 1)
			go func() {
				var err error
				if c.extract != nil {
					_, err = tr.site.Extract(*c.extract)
				} else {
					_, err = tr.site.MatchCtx(context.Background(), *c.match)
				}
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Errorf("%s, %s: err = %v, want one naming %q", tr.name, c.name, err, c.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s, %s: no answer within 10 s", tr.name, c.name)
			}
		}
		// The node still serves well-formed requests.
		if _, err := tr.site.MatchCtx(context.Background(), *match(5)); err != nil {
			t.Errorf("%s: a well-formed match after the malformed ones: %v", tr.name, err)
		}
	}
}

// TestProtocolMismatchRefusedBothWays: a LIFERAFT/2 peer, whose pairs
// carried flat positions this build's gob decoding would silently drop, is
// refused at the handshake whichever end it is: a client dialing it fails with
// the server's version in the error, and it is hung up on when it dials.
func TestProtocolMismatchRefusedBothWays(t *testing.T) {
	const old = "LIFERAFT/2"
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
			go func() {
				defer conn.Close()
				fmt.Fprintf(conn, "%s\n", old)
				io.Copy(io.Discard, conn)
			}()
		}
	}()
	cli := DialTimeout(ln.Addr().String(), 5*time.Second)
	defer cli.Close()
	if _, err := cli.Archive(); err == nil || !strings.Contains(err.Error(), `protocol mismatch: server speaks "`+old+`"`) {
		t.Errorf("dialing a %s server: err = %v, want a protocol mismatch naming it", old, err)
	}

	f := newFixture(t)
	srv, err := Serve(f.sdss, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReader(conn)
	if banner, err := r.ReadString('\n'); err != nil || banner != protoVersion+"\n" {
		t.Fatalf("server banner %q, %v", banner, err)
	}
	fmt.Fprintf(conn, "%s\n", old)
	gob.NewEncoder(conn).Encode(&rpcRequest{ID: 1, Kind: "archive"})
	switch _, err := r.ReadByte(); {
	case err == nil:
		t.Errorf("the server answered a %s client", old)
	case errors.Is(err, os.ErrDeadlineExceeded):
		t.Errorf("the server kept a %s client's connection open", old)
	}
}

func TestDialFailure(t *testing.T) {
	cli := Dial("127.0.0.1:1") // nothing listens there
	if _, err := cli.Archive(); err == nil {
		t.Error("dial to dead address should fail")
	}
}

func TestServerSurvivesGarbageClient(t *testing.T) {
	f := newFixture(t)
	srv, err := Serve(f.sdss, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A client that speaks the wrong protocol version is dropped.
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "HTTP/1.1\n")
	buf := make([]byte, 64)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	conn.Read(buf) // server banner
	_, err = conn.Read(buf)
	if err == nil {
		// One more read must observe the close.
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err = conn.Read(buf); err == nil {
			t.Error("server should drop protocol-mismatched clients")
		}
	}
	conn.Close()

	// A well-behaved client still works afterwards.
	cli := Dial(srv.Addr().String())
	defer cli.Close()
	if name, err := cli.Archive(); err != nil || name != "sdss" {
		t.Fatalf("healthy client broken after garbage client: %q, %v", name, err)
	}
}

func TestClientReconnectsAfterServerRestart(t *testing.T) {
	f := newFixture(t)
	srv, err := Serve(f.sdss, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()
	cli := Dial(addr)
	defer cli.Close()
	if _, err := cli.Archive(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// The broken connection must surface as an error...
	if _, err := cli.Archive(); err == nil {
		t.Fatal("request against a closed server should fail")
	}
	// ...and a new server on the same address must be reachable again
	// through the same client (lazy re-dial).
	srv2, err := Serve(f.sdss, addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	if name, err := cli.Archive(); err != nil || name != "sdss" {
		t.Fatalf("reconnect failed: %q, %v", name, err)
	}
}

func TestUnknownRPCKindRejected(t *testing.T) {
	f := newFixture(t)
	srv, err := Serve(f.sdss, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := Dial(srv.Addr().String())
	defer cli.Close()
	resp, err := cli.roundTrip(rpcRequest{Kind: "bogus"})
	if err == nil {
		t.Errorf("unknown kind should error, got %+v", resp)
	}
	// Missing payloads are application errors, not connection killers.
	if _, err := cli.roundTrip(rpcRequest{Kind: "extract"}); err == nil {
		t.Error("missing extract payload should error")
	}
	if _, err := cli.roundTrip(rpcRequest{Kind: "match"}); err == nil {
		t.Error("missing match payload should error")
	}
	if _, err := cli.Archive(); err != nil {
		t.Errorf("connection should survive: %v", err)
	}
}

func TestPortalEmptyExtraction(t *testing.T) {
	f := newFixture(t)
	// A region with guaranteed-zero shipped objects (selectivity tiny in
	// an empty pole region) yields zero rows, not an error.
	q := testQuery()
	q.RA, q.Dec, q.RadiusDeg = 0, 89.9, 0.01
	q.Selectivity = 0.0001
	rs, err := f.portal.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 0 {
		t.Errorf("expected no rows, got %d", len(rs.Rows))
	}
}

func TestObjectWireRoundTrip(t *testing.T) {
	o := catalog.Object{ID: 5, HTMID: 1 << 31, Pos: geom.FromRaDec(10, 20), Mag: 17.5}
	back := fromCatalog(o).toCatalog()
	if back != o {
		t.Errorf("wire round trip: %+v != %+v", back, o)
	}
}

// TestShardedNodeEquivalence runs the same cross-match through
// single-disk nodes and through nodes sharded across 3 disks: the sharded
// engine must return exactly the same match rows.
func TestShardedNodeEquivalence(t *testing.T) {
	f := newFixture(t)
	single, err := f.portal.ExecuteCtx(context.Background(), testQuery())
	if err != nil {
		t.Fatal(err)
	}

	clk := simclock.NewVirtual()
	mk := func(c *catalog.Catalog) *Node {
		n, err := NewNode(NodeConfig{
			Catalog: c, ObjectsPerBucket: 400, Alpha: 0.25, Shards: 3, Clock: clk,
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	sdss, twomass := mk(fedCats[0]), mk(fedCats[1])
	defer sdss.Close()
	defer twomass.Close()
	portal := NewPortal()
	portal.Register("sdss", InProc{sdss})
	portal.Register("twomass", InProc{twomass})
	sharded, err := portal.ExecuteCtx(context.Background(), testQuery())
	if err != nil {
		t.Fatal(err)
	}

	key := func(row Row) [2]uint64 {
		a, _ := row.Object("twomass")
		b, _ := row.Object("sdss")
		return [2]uint64{a.ID, b.ID}
	}
	collect := func(rs *ResultSet) map[[2]uint64]bool {
		out := make(map[[2]uint64]bool, len(rs.Rows))
		for _, row := range rs.Rows {
			out[key(row)] = true
		}
		return out
	}
	a, b := collect(single), collect(sharded)
	if len(a) == 0 {
		t.Fatal("single-disk portal found nothing")
	}
	if len(a) != len(b) {
		t.Fatalf("sharded portal found %d rows, single-disk %d", len(b), len(a))
	}
	for k := range a {
		if !b[k] {
			t.Fatalf("row %v missing from sharded result", k)
		}
	}
}

// TestFileBackedNodeNeedsRealClock: a node serving from a segment store does
// real I/O; the engine (not a copy of the check here) rejects running it on
// a virtual clock, and the same node starts on the real one.
func TestFileBackedNodeNeedsRealClock(t *testing.T) {
	cat, err := catalog.New(catalog.Config{Name: "sdss", N: 2000, Seed: 5, GenLevel: 3})
	if err != nil {
		t.Fatal(err)
	}
	part, err := bucket.NewPartition(cat, 250, 64)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := segment.Write(dir, part, segment.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	cfg := NodeConfig{Catalog: cat, ObjectsPerBucket: 250, ObjectBytes: 64, Alpha: 0.25, DataDir: dir}

	cfg.Clock = simclock.NewVirtual()
	if n, err := NewNode(cfg); err == nil {
		n.Close()
		t.Fatal("file-backed node on a virtual clock should fail")
	} else if !strings.Contains(err.Error(), "real clock") {
		t.Errorf("error %q should say the store needs the real clock", err)
	}

	cfg.Clock = nil
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}
