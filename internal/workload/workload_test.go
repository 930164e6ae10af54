package workload

import (
	"math"
	"reflect"
	"testing"

	"liferaft/internal/bucket"
	"liferaft/internal/catalog"
	"liferaft/internal/geom"
	"liferaft/internal/stats"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultTraceConfig(1).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	base := DefaultTraceConfig(1)
	mutations := []func(*TraceConfig){
		func(c *TraceConfig) { c.NumQueries = 0 },
		func(c *TraceConfig) { c.Hotspots = -1 },
		func(c *TraceConfig) { c.HotFraction = 1.5 },
		func(c *TraceConfig) { c.Stickiness = -0.1 },
		func(c *TraceConfig) { c.MinRadiusDeg = 0 },
		func(c *TraceConfig) { c.MaxRadiusDeg = 0.1 },
		func(c *TraceConfig) { c.MinSelectivity = 0 },
		func(c *TraceConfig) { c.MaxSelectivity = 2 },
		func(c *TraceConfig) { c.MatchRadiusArcsec = 0 },
	}
	for i, mut := range mutations {
		cfg := base
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
		if _, err := Generate(cfg); err == nil {
			t.Errorf("Generate with mutation %d should fail", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultTraceConfig(99)
	cfg.NumQueries = 200
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate(cfg)
	if !reflect.DeepEqual(a.Queries, b.Queries) {
		t.Error("same seed produced different traces")
	}
	cfg2 := cfg
	cfg2.Seed = 100
	c, _ := Generate(cfg2)
	if reflect.DeepEqual(a.Queries, c.Queries) {
		t.Error("different seeds produced identical traces")
	}
}

func TestTraceShape(t *testing.T) {
	cfg := DefaultTraceConfig(7)
	cfg.NumQueries = 2000
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Queries) != 2000 || len(tr.Hotspots) != cfg.Hotspots {
		t.Fatalf("trace sizes: %d queries, %d hotspots", len(tr.Queries), len(tr.Hotspots))
	}
	hot := 0
	for i, q := range tr.Queries {
		if q.ID != uint64(i) {
			t.Fatalf("query %d has ID %d", i, q.ID)
		}
		if q.Hot {
			hot++
		}
		r := geom.Degrees(q.RadiusRad)
		if r < cfg.MinRadiusDeg-1e-9 || r > cfg.MaxRadiusDeg+1e-9 {
			t.Fatalf("query %d radius %v out of bounds", i, r)
		}
		if q.Selectivity < cfg.MinSelectivity-1e-12 || q.Selectivity > cfg.MaxSelectivity+1e-12 {
			t.Fatalf("query %d selectivity %v out of bounds", i, q.Selectivity)
		}
		if len(q.Archives) < 2 {
			t.Fatalf("query %d has %d archives", i, len(q.Archives))
		}
		if math.Abs(q.Center.Norm()-1) > 1e-9 {
			t.Fatalf("query %d center not unit", i)
		}
	}
	frac := float64(hot) / 2000
	if math.Abs(frac-cfg.HotFraction) > 0.05 {
		t.Errorf("hot fraction %v, want ~%v", frac, cfg.HotFraction)
	}
	if tr.Queries[0].String() == "" {
		t.Error("String empty")
	}
}

func TestPredicate(t *testing.T) {
	q := Query{}
	if q.Predicate() != nil {
		t.Error("no-window query should have nil predicate")
	}
	q.MagLo, q.MagHi = 15, 18
	p := q.Predicate()
	if p == nil {
		t.Fatal("windowed query should have predicate")
	}
	if !p(catalog.Object{Mag: 16}, catalog.Object{}) || p(catalog.Object{Mag: 19}, catalog.Object{}) {
		t.Error("predicate window wrong")
	}
}

func remoteCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c, err := catalog.New(catalog.Config{
		Name: "twomass", N: 300000, Seed: 31, GenLevel: 5, CacheTrixels: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMaterializeDeterministicAndFiltered(t *testing.T) {
	remote := remoteCatalog(t)
	q := Query{
		ID: 3, Center: geom.FromRaDec(50, 20), RadiusRad: geom.Radians(6),
		MatchRadiusRad: geom.ArcsecToRad(5), Selectivity: 0.2,
	}
	a := Materialize(q, remote, 17)
	b := Materialize(q, remote, 17)
	if !reflect.DeepEqual(a, b) {
		t.Error("materialization not deterministic")
	}
	if len(a) == 0 {
		t.Fatal("no workload objects")
	}
	cp := q.Cap()
	for _, w := range a {
		if w.QueryID != 3 {
			t.Fatal("wrong query ID")
		}
		if !cp.Contains(w.Obj.Pos) {
			t.Fatal("workload object outside query cap")
		}
		if w.Radius != q.MatchRadiusRad {
			t.Fatal("radius not propagated")
		}
	}
	// Selectivity controls the sampled fraction.
	inCap := len(remote.InCap(cp))
	got := float64(len(a)) / float64(inCap)
	if math.Abs(got-q.Selectivity) > 0.05 {
		t.Errorf("sampled fraction %v, want ~%v", got, q.Selectivity)
	}
	// Different trace seeds sample differently.
	c := Materialize(q, remote, 18)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave identical samples")
	}
}

func TestPoissonArrivals(t *testing.T) {
	offs := Poisson{RatePerSec: 0.5}.Offsets(4000, 5)
	if len(offs) != 4000 {
		t.Fatal("length")
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] < offs[i-1] {
			t.Fatal("offsets decrease")
		}
	}
	mean := offs[len(offs)-1].Seconds() / 4000
	if math.Abs(mean-2) > 0.2 {
		t.Errorf("mean interval %v s, want ~2", mean)
	}
}

func TestArrivalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("a non-positive Poisson rate should panic")
		}
	}()
	Poisson{}.Offsets(1, 0)
}

// TestTraceCalibration checks the generated trace against the published
// workload statistics that Figures 5 and 6 report, at CI scale:
//   - the ten most-queried buckets are touched by a large fraction of all
//     queries (paper: 61%), and
//   - a small fraction of buckets carries half the workload objects
//     (paper: 2% of buckets capture 50%).
func TestTraceCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration is slow")
	}
	remote := remoteCatalog(t)
	local, err := catalog.New(catalog.Config{
		Name: "sdss", N: 400000, Seed: 8, GenLevel: 5, CacheTrixels: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	part, err := bucket.NewPartition(local, 400, 0) // 1000 buckets
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTraceConfig(12)
	cfg.NumQueries = 500
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	queryTouches := make(map[int]map[uint64]bool) // bucket -> query set
	objCount := make([]float64, part.NumBuckets())
	for _, q := range tr.Queries {
		for _, w := range Materialize(q, remote, cfg.Seed) {
			for _, bi := range part.BucketsForRanges(w.Ranges()) {
				if queryTouches[bi] == nil {
					queryTouches[bi] = make(map[uint64]bool)
				}
				queryTouches[bi][q.ID] = true
				objCount[bi]++
			}
		}
	}

	// Figure 5 statistic: queries touching the top-10 buckets.
	type bq struct {
		bucket int
		n      int
	}
	var byQueries []bq
	for b, qs := range queryTouches {
		byQueries = append(byQueries, bq{b, len(qs)})
	}
	if len(byQueries) < 20 {
		t.Fatalf("only %d buckets touched; trace too narrow", len(byQueries))
	}
	for i := 0; i < len(byQueries); i++ {
		for j := i + 1; j < len(byQueries); j++ {
			if byQueries[j].n > byQueries[i].n {
				byQueries[i], byQueries[j] = byQueries[j], byQueries[i]
			}
		}
	}
	top10 := make(map[uint64]bool)
	for i := 0; i < 10 && i < len(byQueries); i++ {
		for q := range queryTouches[byQueries[i].bucket] {
			top10[q] = true
		}
	}
	frac := float64(len(top10)) / float64(len(tr.Queries))
	if frac < 0.45 {
		t.Errorf("top-10 buckets touched by %.0f%% of queries, want >=45%% (paper: 61%%)", 100*frac)
	}

	// Figure 6 statistic: share of workload in the top 2% of buckets.
	rank := stats.RankForShare(objCount, 0.5)
	fracBuckets := float64(rank) / float64(part.NumBuckets())
	if fracBuckets > 0.10 {
		t.Errorf("50%% of workload needs top %.1f%% of buckets, want <=10%% (paper: 2%%)", 100*fracBuckets)
	}
}
