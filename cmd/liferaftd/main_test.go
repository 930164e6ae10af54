package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"liferaft/internal/federation"
	"liferaft/internal/server"
	"liferaft/internal/simclock"
	"liferaft/internal/skyql"
)

// defaults mirrors the flag defaults for the validation table test.
func defaultOptions() options {
	return options{
		archive: "sdss", addr: "127.0.0.1:7701", baseN: 200_000, baseSeed: 42,
		genLevel: 5, perBucket: 500, alpha: 0.25, cache: 20, shards: 1, virtual: true,
		sloP99: 2 * time.Second, traceSample: 1,
	}
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*options)
		ok     bool
	}{
		{"defaults", func(o *options) {}, true},
		{"alpha low", func(o *options) { o.alpha = -0.01 }, false},
		{"alpha high", func(o *options) { o.alpha = 1.01 }, false},
		{"alpha boundary 0", func(o *options) { o.alpha = 0 }, true},
		{"alpha boundary 1", func(o *options) { o.alpha = 1 }, true},
		{"bucket zero", func(o *options) { o.perBucket = 0 }, false},
		{"bucket negative", func(o *options) { o.perBucket = -5 }, false},
		{"cache zero", func(o *options) { o.cache = 0 }, false},
		{"shards zero", func(o *options) { o.shards = 0 }, false},
		{"shards negative", func(o *options) { o.shards = -2 }, false},
		{"objects zero", func(o *options) { o.baseN = 0 }, false},
		{"rate negative", func(o *options) { o.rate = -1 }, false},
		{"rate positive", func(o *options) { o.rate = 10 }, true},
		{"queue-depth negative", func(o *options) { o.queueDepth = -1 }, false},
		{"tenants good", func(o *options) { o.tenants = "vip:4,batch" }, true},
		{"tenants bad weight", func(o *options) { o.tenants = "vip:zero" }, false},
		{"tenants zero weight", func(o *options) { o.tenants = "vip:0" }, false},
		{"tenants empty name", func(o *options) { o.tenants = ":3" }, false},
		{"peers good", func(o *options) { o.peers = "twomass=127.0.0.1:7702" }, true},
		{"peers bad", func(o *options) { o.peers = "twomass" }, false},
		{"data-dir", func(o *options) { o.dataDir = "/tmp/lfseg" }, true},
		{"data-dir with stride", func(o *options) { o.dataDir = "/tmp/lfseg"; o.objectBytes = 256 }, true},
		{"object-bytes negative", func(o *options) { o.dataDir = "/tmp/lfseg"; o.objectBytes = -1 }, false},
		{"object-bytes without data-dir", func(o *options) { o.objectBytes = 256 }, false},
		{"slo-p99 zero", func(o *options) { o.sloP99 = 0 }, false},
		{"trace-sample zero", func(o *options) { o.traceSample = 0 }, false},
		{"trace-sample high", func(o *options) { o.traceSample = 1.5 }, false},
		{"trace-sample fractional", func(o *options) { o.traceSample = 0.01 }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := defaultOptions()
			tc.mutate(&o)
			err := o.validate()
			if tc.ok && err != nil {
				t.Errorf("validate() = %v, want ok", err)
			}
			if !tc.ok && err == nil {
				t.Error("validate() accepted a bad configuration")
			}
		})
	}
}

func TestParseTenants(t *testing.T) {
	ts, err := parseTenants("vip:4, batch ,slow:1")
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 3 || ts[0].Name != "vip" || ts[0].Weight != 4 ||
		ts[1].Name != "batch" || ts[1].Weight != 0 || ts[2].Weight != 1 {
		t.Errorf("tenants = %+v", ts)
	}
}

func TestServingConfigGating(t *testing.T) {
	o := defaultOptions()
	if cfg := o.servingConfig(nil, nil); cfg != nil {
		t.Errorf("default flags should not enable the serving layer (cfg=%v)", cfg)
	}
	o.httpAddr = "127.0.0.1:0"
	if cfg := o.servingConfig(nil, nil); cfg == nil {
		t.Error("-http should enable the serving layer")
	}
	o = defaultOptions()
	o.rate = 25
	if cfg := o.servingConfig(nil, nil); cfg == nil || cfg.DefaultRate != 25 {
		t.Errorf("-rate should enable the serving layer (cfg=%+v)", cfg)
	}
}

func TestBuildCatalogBase(t *testing.T) {
	cat, err := buildCatalog("sdss", 5000, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Name() != "sdss" || cat.Total() != 5000 {
		t.Errorf("base catalog: %s/%d", cat.Name(), cat.Total())
	}
}

func TestBuildCatalogDerived(t *testing.T) {
	cat, err := buildCatalog("twomass", 5000, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Name() != "twomass" {
		t.Errorf("name = %s", cat.Name())
	}
	// The derived fraction (0.8 for twomass) applies.
	frac := float64(cat.Total()) / 5000
	if frac < 0.7 || frac > 0.9 {
		t.Errorf("derived fraction = %v", frac)
	}
	// Determinism across daemons: a second build is identical.
	again, err := buildCatalog("twomass", 5000, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if again.Total() != cat.Total() {
		t.Error("derived catalog not deterministic across builds")
	}
}

func TestBuildCatalogUnknown(t *testing.T) {
	if _, err := buildCatalog("hubble", 100, 1, 3); err == nil {
		t.Error("unknown archive should fail")
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/gateway_rows.golden from this build's responses")

// TestGatewayRowsMatchRecordedBody posts queries through the real gateway
// and gatewayExec over three virtual-clock archives and compares each
// response's "rows" value, byte for byte, with the body the build before the
// one-pass row encoder produced (recorded with -update at that commit): two
// and three archives, a LIMIT below the row count and one above it, an
// extraction that finds nothing ([]) and a hop that matches nothing (null).
// Each body is also decoded the way a client does, into []federation.Row, and
// read back through Row.Object against the portal's in-process rows.
func TestGatewayRowsMatchRecordedBody(t *testing.T) {
	clk := simclock.NewVirtual()
	portal := federation.NewPortal()
	for _, name := range []string{"sdss", "twomass", "usnob"} {
		cat, err := buildCatalog(name, 30000, 7, 4)
		if err != nil {
			t.Fatal(err)
		}
		node, err := federation.NewNode(federation.NodeConfig{Catalog: cat, ObjectsPerBucket: 300, Alpha: 0.25, Shards: 2, Clock: clk})
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		portal.Register(name, federation.InProc{Node: node})
	}
	gw, err := server.NewGateway(server.GatewayConfig{Exec: gatewayExec(portal)})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`SELECT * FROM twomass t, sdss s WHERE XMATCH(t, s) < 4 AND REGION(CIRCLE, 150, 20, 6)`,
		`SELECT * FROM twomass t, sdss s, usnob u WHERE XMATCH(t, s, u) < 4 AND REGION(CIRCLE, 40, -35, 8) LIMIT 25`,
		`SELECT * FROM usnob u, twomass t WHERE XMATCH(u, t) < 3 AND REGION(CIRCLE, 300, 60, 5) LIMIT 1`,
		`SELECT * FROM twomass t, sdss s WHERE XMATCH(t, s) < 4 AND REGION(CIRCLE, 10, 89.9, 0.001)`,
		`SELECT * FROM twomass t, sdss s WHERE XMATCH(t, s) < 4 AND REGION(CIRCLE, 150, 20, 6) AND s.mag BETWEEN 90 AND 91`,
	}
	post := func(q string) (rowCount int, rows json.RawMessage) {
		t.Helper()
		body, _ := json.Marshal(map[string]string{"query": q})
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", q, rec.Code, rec.Body)
		}
		var resp struct {
			Result struct {
				Rows     json.RawMessage `json:"rows"`
				RowCount int             `json:"row_count"`
			} `json:"result"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Result.RowCount, resp.Result.Rows
	}
	var got bytes.Buffer
	for _, q := range queries {
		rowCount, rows := post(q)
		fmt.Fprintf(&got, "%d %s\n", rowCount, rows)

		// What a reader decodes from the body answers, archive by archive,
		// what the portal's own rows answer in process.
		var decoded []federation.Row
		if err := json.Unmarshal(rows, &decoded); err != nil {
			t.Fatal(err)
		}
		parsed, err := skyql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		fq, err := skyql.Compile(parsed, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := portal.ExecuteCtx(context.Background(), fq)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Rows) != rowCount || len(decoded) > rowCount || (parsed.Limit == 0 && len(decoded) != rowCount) {
			t.Fatalf("%s: %d rows in process, row_count %d, %d decoded", q, len(rs.Rows), rowCount, len(decoded))
		}
		for i, row := range decoded {
			for _, archive := range append([]string{"nowhere"}, fq.Archives...) {
				d, dok := row.Object(archive)
				p, pok := rs.Rows[i].Object(archive)
				if d != p || dok != pok {
					t.Fatalf("%s: row %d %s: decoded (%v, %v), in process (%v, %v)", q, i, archive, d, dok, p, pok)
				}
			}
		}
	}
	const golden = "testdata/gateway_rows.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d response lines, recorded %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Errorf("query %d: rows differ from the recorded body\n got %.300s\nwant %.300s", i, gotLines[i], wantLines[i])
		}
	}
	// A LIMIT above the row count changes nothing: the first recorded body.
	rowCount, rows := post(queries[0] + " LIMIT 100000")
	if line := fmt.Sprintf("%d %s", rowCount, rows); line != string(wantLines[0]) {
		t.Errorf("LIMIT above the row count: rows differ from the recorded body\n got %.300s\nwant %.300s", line, wantLines[0])
	}
}
