package liferaft_test

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"liferaft"
)

// TestPublicAPIEndToEnd drives the whole documented surface the way the
// quickstart does: catalogs, partition, trace, engine, metrics.
func TestPublicAPIEndToEnd(t *testing.T) {
	local, err := liferaft.NewCatalog(liferaft.CatalogConfig{
		Name: "sdss", N: 30_000, Seed: 1, GenLevel: 4, CacheTrixels: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	remote, err := liferaft.NewDerivedCatalog(local, liferaft.DerivedConfig{
		Name: "twomass", Seed: 2, Fraction: 0.8,
		JitterRad: liferaft.ArcsecToRad(1.5), CacheTrixels: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	part, err := liferaft.NewPartition(local, 300, 0)
	if err != nil {
		t.Fatal(err)
	}

	tcfg := liferaft.DefaultTraceConfig(3)
	tcfg.NumQueries = 20
	tcfg.MinSelectivity, tcfg.MaxSelectivity = 0.3, 1.0
	trace, err := liferaft.GenerateTrace(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []liferaft.Job
	var offs []time.Duration
	for i, q := range trace.Queries {
		jobs = append(jobs, liferaft.Job{
			ID:      q.ID,
			Objects: liferaft.MaterializeQuery(q, remote, tcfg.Seed),
			Pred:    q.Predicate(),
		})
		offs = append(offs, time.Duration(i)*200*time.Millisecond)
	}

	cfg, clk := liferaft.NewVirtualConfig(part, 0.25, true)
	if clk == nil {
		t.Fatal("clock missing")
	}
	results, stats, err := liferaft.Run(cfg, jobs, offs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) || stats.Completed != len(jobs) {
		t.Fatalf("completed %d of %d", len(results), len(jobs))
	}
	matches := 0
	resp := make([]float64, len(results))
	for i, r := range results {
		matches += r.Matches
		resp[i] = r.ResponseTime().Seconds()
	}
	if matches == 0 {
		t.Fatal("no cross-matches through the public API")
	}
	s := liferaft.Summarize(resp)
	if s.Count != int64(len(results)) || math.IsNaN(s.CoV) {
		t.Fatalf("summary malformed: %+v", s)
	}
}

// TestPublicAPIGeometry exercises the geometry and HTM aliases.
func TestPublicAPIGeometry(t *testing.T) {
	v := liferaft.FromRaDec(187.5, 12.3)
	ra, dec := liferaft.ToRaDec(v)
	if math.Abs(ra-187.5) > 1e-9 || math.Abs(dec-12.3) > 1e-9 {
		t.Fatalf("round trip = (%v, %v)", ra, dec)
	}
	id := liferaft.HTMLookup(v, 14)
	if !id.Contains(v) {
		t.Fatal("HTM lookup does not contain point")
	}
	cover := liferaft.CoverCap(liferaft.NewCap(v, liferaft.ArcsecToRad(5)), 14)
	if len(cover) == 0 {
		t.Fatal("empty cover")
	}
	found := false
	for _, r := range cover {
		if r.Contains(id) {
			found = true
		}
	}
	if !found {
		t.Fatal("cover misses the center trixel")
	}
}

// TestPublicAPIDiskCalibration verifies the exported disk model carries
// the paper's constants.
func TestPublicAPIDiskCalibration(t *testing.T) {
	m := liferaft.SkyQueryDisk()
	tb, tm := m.Calibrate(40 << 20)
	if math.Abs(tb.Seconds()-1.2) > 0.06 {
		t.Errorf("Tb = %v", tb)
	}
	if tm != 130*time.Microsecond {
		t.Errorf("Tm = %v", tm)
	}
}

// TestPublicAPISkewHelpers exercises the metrics aliases.
func TestPublicAPISkewHelpers(t *testing.T) {
	ws := []float64{8, 1, 1}
	cum := liferaft.CumulativeShare(ws)
	if cum[0] != 0.8 {
		t.Errorf("share = %v", cum)
	}
	if liferaft.RankForShare(ws, 0.5) != 1 {
		t.Error("rank")
	}
}

// TestPublicAPISharded exercises the sharded-engine surface: the Shards
// knob — the only one; placement is not a choice — the shard map, and the
// PerShard breakdown.
func TestPublicAPISharded(t *testing.T) {
	local, err := liferaft.NewCatalog(liferaft.CatalogConfig{
		Name: "sdss", N: 12_800, Seed: 11, GenLevel: 4, CacheTrixels: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	remote, err := liferaft.NewDerivedCatalog(local, liferaft.DerivedConfig{
		Name: "twomass", Seed: 12, Fraction: 0.8,
		JitterRad: liferaft.ArcsecToRad(1.5), CacheTrixels: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	part, err := liferaft.NewPartition(local, 400, 0) // 32 buckets
	if err != nil {
		t.Fatal(err)
	}
	m, err := liferaft.NewShardMap(part, 4)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for s := 0; s < m.Shards(); s++ {
		total += m.Buckets(s)
	}
	if total != part.NumBuckets() {
		t.Fatalf("shard map covers %d of %d buckets", total, part.NumBuckets())
	}
	for b := 0; b < part.NumBuckets(); b++ {
		if m.Owner(b) != b%4 {
			t.Fatalf("bucket %d belongs to shard %d, want %d", b, m.Owner(b), b%4)
		}
	}

	tcfg := liferaft.DefaultTraceConfig(13)
	tcfg.NumQueries = 24
	tcfg.HotFraction = 0
	tcfg.MinSelectivity, tcfg.MaxSelectivity = 0.3, 1.0
	trace, err := liferaft.GenerateTrace(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []liferaft.Job
	var offs []time.Duration
	for i, q := range trace.Queries {
		jobs = append(jobs, liferaft.Job{
			ID: q.ID, Objects: liferaft.MaterializeQuery(q, remote, tcfg.Seed), Pred: q.Predicate(),
		})
		offs = append(offs, time.Duration(i)*time.Millisecond)
	}
	var single liferaft.RunStats
	matches := map[uint64]int{}
	for _, shards := range []int{1, 2, 4} {
		cfg, _ := liferaft.NewVirtualConfig(part, 0.25, true)
		cfg.Shards = shards
		results, stats, err := liferaft.Run(cfg, jobs, offs)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(jobs) {
			t.Fatalf("shards=%d: %d of %d completed", shards, len(results), len(jobs))
		}
		if len(stats.PerShard) != shards {
			t.Fatalf("PerShard has %d entries, want %d", len(stats.PerShard), shards)
		}
		if shards == 1 {
			single = stats
			for _, r := range results {
				matches[r.QueryID] = r.Matches
			}
			continue
		}
		for _, r := range results {
			if r.Matches != matches[r.QueryID] {
				t.Errorf("shards=%d q%d: %d matches, single-disk %d", shards, r.QueryID, r.Matches, matches[r.QueryID])
			}
		}
		var ss liferaft.ShardStats = stats.PerShard[0]
		if ss.Buckets != part.NumBuckets()/shards { // 32 buckets dealt evenly
			t.Errorf("shards=%d: shard 0 owns %d buckets", shards, ss.Buckets)
		}
		if stats.Disk.Matches != single.Disk.Matches {
			t.Errorf("sharded run charged %d matches, single-disk %d",
				stats.Disk.Matches, single.Disk.Matches)
		}
		if stats.Makespan >= single.Makespan {
			t.Errorf("%d shards (%v) not faster than 1 (%v)", shards, stats.Makespan, single.Makespan)
		}
	}
}

// TestPublicServingAPI drives the exported multi-tenant serving surface:
// NewServer over a Live engine, admission, backpressure, cancellation,
// and per-tenant stats.
func TestPublicServingAPI(t *testing.T) {
	local, err := liferaft.NewCatalog(liferaft.CatalogConfig{
		Name: "sdss", N: 12_000, Seed: 5, GenLevel: 4, CacheTrixels: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	remote, err := liferaft.NewDerivedCatalog(local, liferaft.DerivedConfig{
		Name: "twomass", Seed: 6, Fraction: 0.8,
		JitterRad: liferaft.ArcsecToRad(1.5), CacheTrixels: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	part, err := liferaft.NewPartition(local, 400, 0)
	if err != nil {
		t.Fatal(err)
	}
	tcfg := liferaft.DefaultTraceConfig(7)
	tcfg.NumQueries = 8
	trace, err := liferaft.GenerateTrace(tcfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg, _ := liferaft.NewVirtualConfig(part, 0.25, false)
	cfg.Shards = 2
	eng, err := liferaft.NewLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv, err := liferaft.NewServer(eng, liferaft.ServerConfig{
		Tenants: []liferaft.TenantConfig{{Name: "vip", Weight: 4, Rate: -1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for i, q := range trace.Queries {
		job := liferaft.Job{
			ID: uint64(i + 1), Objects: liferaft.MaterializeQuery(q, remote, tcfg.Seed),
		}
		for j := range job.Objects {
			job.Objects[j].QueryID = job.ID
		}
		ch, err := srv.Submit(context.Background(), "vip", job)
		if err != nil {
			t.Fatal(err)
		}
		if r, ok := <-ch; !ok || r.Cancelled {
			t.Fatalf("query %d: result %+v ok=%v", job.ID, r, ok)
		}
	}
	var st liferaft.ServerStats = srv.Stats()
	if len(st.Tenants) != 1 {
		t.Fatalf("tenants = %+v", st.Tenants)
	}
	var ts liferaft.TenantStats = st.Tenants[0]
	if ts.Tenant != "vip" || ts.Completed != int64(len(trace.Queries)) || ts.Weight != 4 {
		t.Errorf("tenant stats = %+v", ts)
	}
	var sum liferaft.Summary = ts.RespTime
	if sum.Count != int64(len(trace.Queries)) {
		t.Errorf("resp summary count = %d", sum.Count)
	}

	// The overload error surfaces typed through the public alias: with
	// 1 023 tenants pre-registered, "a" takes the last slot of the
	// 1 024-tenant table and "b" finds it full.
	full := make([]liferaft.TenantConfig, 1023)
	for i := range full {
		full[i].Name = fmt.Sprintf("pre%04d", i)
	}
	srv2, err := liferaft.NewServer(eng, liferaft.ServerConfig{Tenants: full})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if _, err := srv2.Submit(context.Background(), "a", liferaft.Job{ID: 900}); err != nil {
		t.Fatal(err)
	}
	_, err = srv2.Submit(context.Background(), "b", liferaft.Job{ID: 901})
	var over *liferaft.OverloadError
	if !errors.As(err, &over) || over.Reason != liferaft.OverloadTenants {
		t.Errorf("err = %v, want OverloadTenants", err)
	}
}

// TestEveryExportIsUsed keeps the public surface to what is used: every
// name liferaft.go exports must be named, qualified by the package name,
// by a file under examples/ or cmd/, by README.md, or by a test in this
// directory. A name nothing names is API nobody has exercised; delete it
// rather than re-export it.
func TestEveryExportIsUsed(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "liferaft.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var exported []string
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			exported = append(exported, d.Name.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					exported = append(exported, spec.Name.Name)
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						exported = append(exported, n.Name)
					}
				}
			}
		}
	}

	var users strings.Builder
	read := func(path string) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		users.Write(b)
	}
	for _, dir := range []string{"examples", "cmd"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				read(path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	read("README.md")
	tests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range tests {
		read(path)
	}

	text := users.String()
	for _, name := range exported {
		if !ast.IsExported(name) {
			continue
		}
		if !regexp.MustCompile(`\bliferaft\.` + name + `\b`).MatchString(text) {
			t.Errorf("liferaft.go exports %s, but no example, command, README snippet or root test names it: delete it", name)
		}
	}
}
