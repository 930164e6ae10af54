package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"liferaft/internal/catalog"
	"liferaft/internal/geom"
	"liferaft/internal/htm"
	"liferaft/internal/server"
	"liferaft/internal/xmatch"
)

// plainRow is Row without the Rows encoder in reach: what encoding/json
// produced for a row set before Rows existed, kept as the reference.
type plainRow struct {
	Objects map[string]Object
}

func plain(rs Rows) []plainRow {
	if rs == nil {
		return nil
	}
	out := make([]plainRow, len(rs))
	for i, r := range rs {
		out[i] = plainRow{Objects: tuple(r)}
	}
	return out
}

// tuple is the map a row stands for: the one it was decoded into, or for a
// row the portal built, each of its archives' objects read through Object.
func tuple(r Row) map[string]Object {
	if r.set == nil {
		return r.Objects
	}
	m := make(map[string]Object, r.members())
	for _, name := range names(r) {
		m[name], _ = r.Object(name)
	}
	return m
}

// names lists the archives of the plan that built r; none for a decoded row.
func names(r Row) []string {
	if r.set == nil {
		return nil
	}
	return r.set.names
}

// portalRows runs a plan over scripted sites and returns the rows the portal
// built: views over its chains and pairs, not maps.
func portalRows(t *testing.T, archives []string, driving []Object, fan func(archive string, id uint64) int) Rows {
	t.Helper()
	p := NewPortal()
	for _, name := range archives {
		p.Register(name, &scriptedSite{name: name, objects: driving, fan: func(id uint64) int { return fan(name, id) }})
	}
	rs, err := p.ExecuteCtx(context.Background(), Query{ID: 1, MatchRadiusArcsec: 1, Archives: archives})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs.Rows {
		if r.Objects != nil {
			t.Fatal("the portal built a map for a row")
		}
	}
	return rs.Rows
}

// encodeBoth encodes v the way the gateway does (json.Encoder, inside a
// map), with HTML escaping as given.
func encodeBoth(t *testing.T, rows any, escapeHTML bool) ([]byte, error) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(escapeHTML)
	err := enc.Encode(map[string]any{"rows": rows, "row_count": 3})
	return buf.Bytes(), err
}

func TestRowsJSONEquivalence(t *testing.T) {
	obj := func(x, y, z, mag float64) Object {
		return Object{ID: 1<<64 - 1, HTMID: 1 << 31, X: x, Y: y, Z: z, Mag: mag}
	}
	sub := math.SmallestNonzeroFloat64
	cases := map[string]Rows{
		"nil set":   nil,
		"empty set": {},
		"nil map":   {{}, {Objects: map[string]Object{"a": {}}}, {}},
		"empty map": {{Objects: map[string]Object{}}},
		"floats": {
			{Objects: map[string]Object{"sdss": obj(0, math.Copysign(0, -1), 1, -1)}},
			{Objects: map[string]Object{"sdss": obj(1e-6, 9.999999e-7, 1e-7, -3.5e-9)}},
			{Objects: map[string]Object{"sdss": obj(1e21, 9.999999e20, 1.5e300, -1e21)}},
			{Objects: map[string]Object{"sdss": obj(sub, -sub, 2.2250738585072014e-308, math.MaxFloat64)}},
			{Objects: map[string]Object{"sdss": obj(0.1, 1.0/3, 123456789.125, 100)}},
			{Objects: map[string]Object{"sdss": obj(-0.5373900413513184, 0.8433779, 1e-5, 17.25)}},
		},
		"names": {{Objects: map[string]Object{
			"":                    {ID: 1},
			"plain":               {ID: 2},
			`quo"te\back`:         {ID: 3},
			"ctl\x00\x01\x1f\x7f": {ID: 4},
			"\b\f\n\r\t":          {ID: 5},
			"<sdss>&co":           {ID: 6},
			"sep\u2028\u2029x":    {ID: 7},
			"bad\xff\xc0utf8\xe2": {ID: 8},
			"日本語 ünïcode 🙂":       {ID: 9},
			"Z":                   {ID: 10},
			"a":                   {ID: 11},
			"B\x7fdel":            {ID: 12},
		}}},
	}
	rng := rand.New(rand.NewSource(8))
	var random Rows
	for i := 0; i < 300; i++ {
		m := make(map[string]Object)
		for k := rng.Intn(4); k >= 0; k-- {
			name := make([]byte, rng.Intn(6))
			rng.Read(name)
			var f [4]float64
			for j := range f {
				for {
					f[j] = math.Float64frombits(rng.Uint64())
					if !math.IsNaN(f[j]) && !math.IsInf(f[j], 0) {
						break
					}
				}
			}
			m[string(name)] = Object{ID: rng.Uint64(), HTMID: rng.Uint64() >> uint(rng.Intn(64)), X: f[0], Y: f[1], Z: f[2], Mag: f[3]}
		}
		random = append(random, Row{Objects: m})
	}
	cases["random"] = random

	// Rows as the portal builds them. The archive names need every escape
	// there is: JSON's, the HTML three, and a line separator.
	var driving []Object
	for _, id := range []uint64{3, 8, 9, 14, 20, 21, 33} {
		driving = append(driving, Object{ID: id, HTMID: 1 << 31, X: 0.25, Y: -1e-7, Z: float64(id), Mag: 17.5})
	}
	twice := func(string, uint64) int { return 2 }
	hostile := []string{"<twomass>", "sdss&co" + "\u2028" + `"`, "a"}
	views := map[string]Rows{
		"view: two archives":     portalRows(t, hostile[:2], driving, twice),
		"view: three archives":   portalRows(t, hostile, driving, func(_ string, id uint64) int { return int(id % 3) }),
		"view: empty extraction": portalRows(t, hostile[:2], nil, twice),
		"view: hop without pairs": portalRows(t, hostile, driving, func(archive string, _ uint64) int {
			if archive == hostile[1] {
				return 0
			}
			return 2
		}),
		"view: archive named twice": portalRows(t, []string{"drv", "b", "a", "b"}, driving, twice),
	}
	if got, _ := json.Marshal(views["view: empty extraction"]); string(got) != "[]" {
		t.Errorf("an empty extraction encodes %s, want []", got)
	}
	if got, _ := json.Marshal(views["view: hop without pairs"]); string(got) != "null" {
		t.Errorf("a hop without pairs encodes %s, want null", got)
	}
	for name, rows := range views {
		cases[name] = rows
		// A reader of the response gets maps; the accessor must answer the
		// same from either form.
		body, err := rows.AppendJSON(nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var decoded []Row
		if err := json.Unmarshal(body, &decoded); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(decoded) != len(rows) || (decoded == nil) != (rows == nil) {
			t.Fatalf("%s: %d rows decoded of %d", name, len(decoded), len(rows))
		}
		for i, r := range rows {
			for _, archive := range append([]string{"absent"}, names(r)...) {
				got, gotOK := decoded[i].Object(archive)
				want, wantOK := r.Object(archive)
				if got != want || gotOK != wantOK {
					t.Errorf("%s: row %d %q: decoded (%v, %v), in process (%v, %v)", name, i, archive, got, gotOK, want, wantOK)
				}
			}
		}
	}

	for name, rows := range cases {
		for _, escape := range []bool{true, false} {
			got, err := encodeBoth(t, rows, escape)
			if err != nil {
				t.Fatalf("%s: Rows: %v", name, err)
			}
			want, err := encodeBoth(t, plain(rows), escape)
			if err != nil {
				t.Fatalf("%s: reference: %v", name, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s (escapeHTML=%v): Rows encodes differently from encoding/json\n got %s\nwant %s", name, escape, got, want)
			}
		}
		// What the gateway appends in place is what json.Marshal returns.
		got, err := rows.AppendJSON([]byte("prefix"))
		want, _ := json.Marshal(plain(rows))
		if err != nil || !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Errorf("%s: AppendJSON differs from json.Marshal (err %v)\n got %s\nwant %s", name, err, got, want)
		}
		// A LIMIT slices the set — below the row count to a prefix, at or
		// above it to the set itself; the slice must still be a Rows.
		for _, limit := range []int{1, len(rows) - 1, len(rows), len(rows) + 5} {
			if limit < 0 {
				continue
			}
			limited, ref := rows, plain(rows)
			if len(rows) > limit {
				limited, ref = rows[:limit], ref[:limit]
			}
			got, _ := json.Marshal(limited)
			want, _ := json.Marshal(ref)
			if !bytes.Equal(got, want) {
				t.Errorf("%s: LIMIT %d encodes differently", name, limit)
			}
		}
		// One row on its own, and a plain slice of them.
		if len(rows) > 0 {
			got, _ := json.Marshal([]Row(rows))
			if !bytes.Equal(got, want) {
				t.Errorf("%s: []Row encodes differently from Rows", name)
			}
		}
	}

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field := 0; field < 4; field++ {
			o := Object{ID: 1}
			*[]*float64{&o.X, &o.Y, &o.Z, &o.Mag}[field] = bad
			rows := Rows{{Objects: map[string]Object{"ok": {}}}, {Objects: map[string]Object{"sdss": o}}}
			view := portalRows(t, []string{"drv", "sdss"}, []Object{o}, func(string, uint64) int { return 1 })
			for _, rs := range []Rows{rows, view} {
				_, err := json.Marshal(rs)
				var unsupported *json.UnsupportedValueError
				if !errors.As(err, &unsupported) {
					t.Errorf("field %d = %v: Rows error %v, want an UnsupportedValueError", field, bad, err)
				}
				if _, err := rs.AppendJSON(nil); !errors.As(err, &unsupported) {
					t.Errorf("field %d = %v: AppendJSON error %v, want an UnsupportedValueError", field, bad, err)
				}
				if _, err := json.Marshal(rs[len(rs)-1]); !errors.As(err, &unsupported) {
					t.Errorf("field %d = %v: Row error %v, want an UnsupportedValueError", field, bad, err)
				}
				if _, refErr := json.Marshal(plain(rs)); refErr == nil {
					t.Fatalf("reference encoder accepted %v", bad)
				}
			}
		}
	}
}

func benchRows(n int) Rows {
	rng := rand.New(rand.NewSource(5))
	rows := make(Rows, n)
	for i := range rows {
		m := make(map[string]Object, 2)
		for _, name := range []string{"twomass", "sdss"} {
			m[name] = Object{ID: rng.Uint64() >> 30, HTMID: 1<<31 + uint64(rng.Int63n(1<<30)),
				X: rng.Float64()*2 - 1, Y: rng.Float64()*2 - 1, Z: rng.Float64()*2 - 1, Mag: 14 + rng.Float64()*10}
		}
		rows[i].Objects = m
	}
	return rows
}

func BenchmarkRowsJSON(b *testing.B) {
	rows := benchRows(300)
	for name, v := range map[string]any{"rows": rows, "reflect": plain(rows)} {
		b.Run(name, func(b *testing.B) {
			var buf bytes.Buffer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := json.NewEncoder(&buf).Encode(v); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(buf.Len()))
		})
	}
}

// scriptedSite is a Transport whose answers are a pure function of the
// request, so the portal and the reference algorithm can both be run against
// it: Extract returns its fixed objects; Match pairs every shipped object
// with fan(ID) locals whose IDs fall in a small range (so the next frontier
// repeats IDs), interleaved across shipped objects rather than grouped.
type scriptedSite struct {
	name    string
	objects []Object
	fan     func(id uint64) int
	shipped [][]Object // one entry per Match call
}

func (s *scriptedSite) Archive() (string, error) { return s.name, nil }

func (s *scriptedSite) Extract(ExtractRequest) (ExtractResponse, error) {
	return ExtractResponse{Objects: s.objects}, nil
}

func (s *scriptedSite) Match(req MatchRequest) (MatchResponse, error) {
	s.shipped = append(s.shipped, append([]Object(nil), req.Objects...))
	var resp MatchResponse
	for round := 0; ; round++ {
		emitted := false
		for i := len(req.Objects) - 1; i >= 0; i-- { // against shipped order
			o := req.Objects[i]
			if round < s.fan(o.ID) {
				local := catalog.Object{ID: (o.ID*7 + uint64(round)) % 5, HTMID: htm.ID(o.ID), Pos: geom.Vec3{X: float64(round)}, Mag: o.Mag}
				resp.Pairs = append(resp.Pairs, xmatch.Pair{Local: local, Remote: o.toCatalog()})
				emitted = true
			}
		}
		if !emitted {
			return resp, nil
		}
	}
}

// referenceRows is the portal's join as it was before tuples became flat
// chains — a map per tuple copied at every hop, the frontier deduplicated
// through a map, pairs grouped through a map of slices — kept as the
// definition of which rows come back and in which order.
func referenceRows(t *testing.T, p *Portal, q Query) ([]Row, map[string]int) {
	t.Helper()
	site, err := p.site(q.Archives[0])
	if err != nil {
		t.Fatal(err)
	}
	ext, _ := site.Extract(ExtractRequest{})
	shippedCount := make(map[string]int)
	rows := make([]Row, len(ext.Objects))
	frontier := make([]Object, len(ext.Objects))
	for i, o := range ext.Objects {
		rows[i] = Row{Objects: map[string]Object{q.Archives[0]: o}}
		frontier[i] = o
	}
	for _, archive := range q.Archives[1:] {
		if len(rows) == 0 {
			break
		}
		site, err := p.site(archive)
		if err != nil {
			t.Fatal(err)
		}
		uniq := make(map[uint64]Object, len(frontier))
		for _, o := range frontier {
			uniq[o.ID] = o
		}
		shipped := make([]Object, 0, len(uniq))
		for _, o := range uniq {
			shipped = append(shipped, o)
		}
		sort.Slice(shipped, func(i, j int) bool { return shipped[i].ID < shipped[j].ID })
		shippedCount[archive] = len(shipped)
		resp, _ := site.Match(MatchRequest{Objects: shipped})
		byRemote := make(map[uint64][]Object)
		for _, pr := range resp.Pairs {
			byRemote[pr.Remote.ID] = append(byRemote[pr.Remote.ID], fromCatalog(pr.Local))
		}
		var nextRows []Row
		var nextFrontier []Object
		if n := len(resp.Pairs); n > 0 {
			nextRows, nextFrontier = make([]Row, 0, n), make([]Object, 0, n)
		}
		for i, row := range rows {
			for _, local := range byRemote[frontier[i].ID] {
				nr := Row{Objects: make(map[string]Object, len(row.Objects)+1)}
				for k, v := range row.Objects {
					nr.Objects[k] = v
				}
				nr.Objects[archive] = local
				nextRows = append(nextRows, nr)
				nextFrontier = append(nextFrontier, local)
			}
		}
		rows, frontier = nextRows, nextFrontier
	}
	return rows, shippedCount
}

func TestPortalRowsMatchMapAlgorithm(t *testing.T) {
	// Driving objects: unsorted, and ID 4 twice with different payloads
	// (the map kept the last; so must the sort).
	var driving []Object
	for _, id := range []uint64{9, 4, 17, 2, 4, 11, 30, 6} {
		driving = append(driving, Object{ID: id, Mag: float64(len(driving))})
	}
	fans := map[string]func(uint64) int{
		"some":  func(id uint64) int { return int(id % 3) }, // 0, 1 or 2 counterparts
		"every": func(id uint64) int { return 2 },
		"none":  func(uint64) int { return 0 },
	}
	plans := []struct {
		name     string
		driving  []Object
		archives []string
	}{
		{"two archives", driving, []string{"drv", "some"}},
		{"three archives", driving, []string{"drv", "some", "every"}},
		{"three archives, fan-out first", driving, []string{"drv", "every", "some"}},
		{"empty first hop", driving, []string{"drv", "none", "every"}},
		{"empty last hop", driving, []string{"drv", "every", "none"}},
		{"empty extraction", nil, []string{"drv", "every"}},
		{"archive named twice", driving, []string{"drv", "every", "drv2", "every"}},
		// In ascending ID order, as a catalog extracts: shipped in place.
		{"ascending extraction", []Object{{ID: 2, Mag: 1}, {ID: 4, Mag: 2}, {ID: 9, Mag: 3}, {ID: 11, Mag: 4}}, []string{"drv", "some", "every"}},
	}
	for _, plan := range plans {
		build := func() (*Portal, map[string]*scriptedSite) {
			p, sites := NewPortal(), make(map[string]*scriptedSite)
			for _, name := range plan.archives {
				s := &scriptedSite{name: name, objects: plan.driving, fan: fans[name]}
				if s.fan == nil {
					s.fan = fans["some"]
				}
				sites[name] = s
				p.Register(name, s)
			}
			return p, sites
		}
		q := Query{ID: 1, MatchRadiusArcsec: 1, Archives: plan.archives}
		refPortal, refSites := build()
		want, wantShipped := referenceRows(t, refPortal, q)
		portal, sites := build()
		rs, err := portal.ExecuteCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", plan.name, err)
		}
		if !reflect.DeepEqual(plain(rs.Rows), plain(want)) { // nil and empty are different answers
			t.Errorf("%s: rows differ from the map-based algorithm\n got %v\nwant %v", plan.name, plain(rs.Rows), want)
		}
		if !reflect.DeepEqual(rs.Shipped, wantShipped) {
			t.Errorf("%s: shipped %v, want %v", plan.name, rs.Shipped, wantShipped)
		}
		for name, s := range sites {
			if !reflect.DeepEqual(s.shipped, refSites[name].shipped) {
				t.Errorf("%s: %s was shipped %v, want %v", plan.name, name, s.shipped, refSites[name].shipped)
			}
		}
		// LIMIT is a prefix of the row set, encoded like the reference's.
		for _, limit := range []int{1, 3} {
			if len(want) <= limit {
				continue
			}
			got, _ := json.Marshal(rs.Rows[:limit])
			ref, _ := json.Marshal(want[:limit])
			if !bytes.Equal(got, ref) {
				t.Errorf("%s: LIMIT %d encodes %s, want %s", plan.name, limit, got, ref)
			}
		}
	}
}

// TestExecuteEncodeAllocBudget bounds what one materializing two-archive
// query allocates from portal to JSON on warm virtual-clock nodes. With
// 275 objects shipped and 275 rows back it takes about 40 allocations and
// 195 KB; with each pair converted to a wire pair and into a last-hop chain
// it took 265 KB, with pairs and objects re-copied between layers 66
// allocations and 360 KB, with a map per row 640, and with a cover slice per
// workload object, a map per tuple per hop and the reflective map encoder
// 4 662.
func TestExecuteEncodeAllocBudget(t *testing.T) {
	f := newFixture(t)
	q := testQuery()
	q.RadiusDeg, q.Selectivity = 12, 1
	var (
		buf bytes.Buffer
		rs  *ResultSet
	)
	run := func() {
		var err error
		if rs, err = f.portal.ExecuteCtx(context.Background(), q); err != nil {
			t.Fatal(err)
		}
		buf.Reset()
		if err := json.NewEncoder(&buf).Encode(map[string]any{"rows": rs.Rows, "shipped": rs.Shipped}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the bucket caches and the engines' scratch
	shipped, rows := rs.Shipped["sdss"], len(rs.Rows)
	if shipped < 100 || rows < 100 {
		t.Fatalf("fixture too small to mean anything: %d shipped, %d rows", shipped, rows)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := testing.AllocsPerRun(runs, run)
	runtime.ReadMemStats(&after)
	allocated := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
	// All of it is per query and per bucket service: a row is a view and
	// costs nothing, so one allocation per row or per shipped object breaks it.
	if budget := float64(shipped/2 + 150); got > budget {
		t.Errorf("%.0f allocs for %d shipped objects and %d rows, budget %.0f", got, shipped, rows, budget)
	}
	// And the bytes: a shipped object is copied into the extraction's wire
	// slice (48 B), a workload object (80) and its share of the query's one
	// pair array (126), which the node hands the portal as it is; its row is
	// a 24-byte view of that array and of the extraction, and the encoder
	// here takes about 300 per row. Each further copy of the pairs or the
	// objects between layers — a wire pair per pair (96), a last-hop chain
	// (96), a pair slice doubled up from nil, a merge, a per-shard object
	// slice, an extraction collected in a slice of its own — adds 50 to 330
	// B per object and breaks it.
	if budget := float64(shipped * 850); allocated > budget && !raceEnabled { // under the race detector sync.Pool drops what it is given
		t.Errorf("%.0f B allocated for %d shipped objects and %d rows, budget %.0f", allocated, shipped, rows, budget)
	}
	t.Logf("%.0f allocs, %.0f B, %d shipped, %d rows, %d response bytes", got, allocated, shipped, rows, buf.Len())
}

// TestExtractAllocBudget: a warm Node.Extract collects and samples in pooled
// scratch and allocates only the wire slice it returns, so a 12-degree
// region costs the same number of allocations as a 1-degree one, sampled or
// not; and the scratch is one extraction's at a time — concurrent
// extractions of different regions return what they return alone.
func TestExtractAllocBudget(t *testing.T) {
	f := newFixture(t)
	reqs := []ExtractRequest{
		{QueryID: 1, RA: 150, Dec: 20, RadiusDeg: 1, Selectivity: 1, Seed: 7},
		{QueryID: 2, RA: 150, Dec: 20, RadiusDeg: 12, Selectivity: 1, Seed: 7},
		{QueryID: 3, RA: 150, Dec: 20, RadiusDeg: 1, Selectivity: 0.5, Seed: 7},
		{QueryID: 4, RA: 150, Dec: 20, RadiusDeg: 12, Selectivity: 0.5, Seed: 7},
		{QueryID: 5, RA: 30, Dec: -40, RadiusDeg: 8, Selectivity: 0.7, Seed: 7},
	}
	alone := make([]ExtractResponse, len(reqs))
	for i, req := range reqs {
		var err error
		if alone[i], err = f.twomass.Extract(req); err != nil {
			t.Fatal(err)
		}
	}
	if small, big := len(alone[0].Objects), len(alone[1].Objects); small == 0 || big < 50*small {
		t.Fatalf("fixture: %d objects within 1 degree, %d within 12", small, big)
	}

	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				got, err := f.twomass.Extract(req)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, alone[i]) {
					t.Errorf("q%d, round %d: %d objects beside other extractions, %d alone", req.QueryID, round, len(got.Objects), len(alone[i].Objects))
					return
				}
			}
		}()
	}
	wg.Wait()

	if raceEnabled {
		return // race instrumentation allocates, and sync.Pool drops what it is given
	}
	var allocs [4]float64
	for i, req := range reqs[:4] {
		allocs[i] = testing.AllocsPerRun(50, func() {
			if _, err := f.twomass.Extract(req); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Logf("allocations per extraction: 1 degree %.0f, 12 degrees %.0f, sampled %.0f and %.0f", allocs[0], allocs[1], allocs[2], allocs[3])
	for i, n := range allocs {
		if n != allocs[0] {
			t.Errorf("q%d costs %.0f allocations, q1 %.0f: the count must not follow the region", reqs[i].QueryID, n, allocs[0])
		}
	}
}

// TestNodeMatchAllocBudget: a warm in-process Node.MatchCtx allocates per
// shipped object up to 64 B of the engine's queue entries and bucket lists
// (its workload objects come from a pool, and queues and query state are
// recycled by the engine), the query's one pair array, which it returns as
// it is (with the shard regions' slack, under 1.3 pairs' room per pair), and
// a few KB per query besides. At 275 objects and 275 pairs that is about
// 43 KB against a budget of 61.6. A workload object allocated per shipped
// object (80 B), a wire pair per pair (96 B), or any other copy of the pairs
// on the way out, breaks it.
func TestNodeMatchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	f := newFixture(t)
	req := MatchRequest{QueryID: 1, MatchRadiusArcsec: 5, Objects: shipped(t, f, 150, 12)}
	var resp MatchResponse
	run := func() {
		var err error
		if resp, err = f.sdss.MatchCtx(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the bucket caches and the engine's scratch
	objects, pairs := len(req.Objects), len(resp.Pairs)
	if objects < 100 || pairs < objects/2 {
		t.Fatalf("fixture too small to mean anything: %d shipped, %d pairs", objects, pairs)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	allocated := float64(after.TotalAlloc-before.TotalAlloc) / runs
	pairSize := float64(reflect.TypeOf(xmatch.Pair{}).Size())
	budget := 64*float64(objects) + 1.3*pairSize*float64(pairs) + 4096
	if allocated > budget {
		t.Errorf("%.0f B allocated for %d shipped objects and %d pairs, budget %.0f", allocated, objects, pairs, budget)
	}
	t.Logf("%.0f B for %d shipped objects and %d pairs of %.0f B (budget %.0f)", allocated, objects, pairs, pairSize, budget)
}

// TestRowSize: a row the portal builds is a view — its row set and two
// indexes beside the map a decoded row fills — so a result's rows cost 24 B
// each, not a copy of their objects.
func TestRowSize(t *testing.T) {
	if size := reflect.TypeOf(Row{}).Size(); size > 24 {
		t.Errorf("a Row is %d bytes, want at most 24", size)
	}
}

// fixedSite answers every request with slices built beforehand, so that what
// a query through it allocates is the portal's and the gateway's doing.
type fixedSite struct {
	objects []Object
	pairs   []xmatch.Pair
}

func (s fixedSite) Archive() (string, error) { return "fixed", nil }
func (s fixedSite) Extract(ExtractRequest) (ExtractResponse, error) {
	return ExtractResponse{Objects: s.objects}, nil
}
func (s fixedSite) Match(MatchRequest) (MatchResponse, error) {
	return MatchResponse{Pairs: s.pairs}, nil
}

// TestGatewayQueryAllocBudget: what one POST /v1/query allocates from the
// gateway's handler to the response recorder does not depend on how many
// rows come back. A 100-row and a 400-row result must cost the same to
// within ten allocations (the recorder's body grows by doubling); a map, a
// slice or a boxed value per row would show as hundreds.
func TestGatewayQueryAllocBudget(t *testing.T) {
	measure := func(rows int) float64 {
		site := fixedSite{objects: make([]Object, rows), pairs: make([]xmatch.Pair, rows)}
		for i := range site.objects {
			o := Object{ID: uint64(i + 1), HTMID: 1<<31 + uint64(i), X: 0.5, Y: -0.25, Z: 1e-7, Mag: 17.5}
			site.objects[i] = o
			local := o.toCatalog()
			local.ID, local.Mag = uint64(7*i), 20
			site.pairs[i] = xmatch.Pair{Local: local, Remote: o.toCatalog()}
		}
		portal := NewPortal()
		portal.Register("twomass", site)
		portal.Register("sdss", site)
		gw, err := server.NewGateway(server.GatewayConfig{
			Exec: func(ctx context.Context, tenant, _ string) (any, error) {
				rs, err := portal.ExecuteCtx(ctx, Query{ID: 1, MatchRadiusArcsec: 5, Archives: []string{"twomass", "sdss"}, Tenant: tenant})
				if err != nil {
					return nil, err
				}
				return map[string]any{
					"rows":        rs.Rows,
					"row_count":   len(rs.Rows),
					"hop_elapsed": rs.HopElapsed,
					"shipped":     rs.Shipped,
				}, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		var got int
		run := func() {
			rec := httptest.NewRecorder()
			gw.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(`{"query":"q"}`)))
			if rec.Code != http.StatusOK {
				t.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
			}
			got = bytes.Count(rec.Body.Bytes(), []byte(`{"Objects":`))
		}
		run() // sizes the pooled response buffer
		if got != rows {
			t.Fatalf("%d rows in the body, want %d", got, rows)
		}
		return testing.AllocsPerRun(20, run)
	}
	small, large := measure(100), measure(400)
	if d := large - small; d > 10 || d < -10 {
		t.Errorf("%.0f allocs for 100 rows, %.0f for 400: a result's rows must not cost allocations", small, large)
	}
	t.Logf("%.0f allocs for 100 rows, %.0f for 400", small, large)
}
