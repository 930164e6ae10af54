package main

import (
	"encoding/json"
	"fmt"
	"sync"

	"liferaft/internal/catalog"
	"liferaft/internal/federation"
	"liferaft/internal/geom"
	"liferaft/internal/xmatch"
)

// idPair is one result row reduced to (driving archive ID, sdss ID).
type idPair struct{ driver, sdss uint64 }

// expectedPairs computes a query's exact answer without the engine: every
// object of the driving archive inside the region is brute-force matched
// (xmatch.BruteForce, exact angular distance) against the sdss objects inside
// its own error circle widened to twice the match radius. Restricting the
// candidates per object instead of taking one cap around the whole region
// keeps a 30 degree cold_sweep query at thousands of distance tests instead
// of millions, and it depends on nothing the engine uses to find matches: no
// buckets, no level-14 ID ranges, no join strategy.
func expectedPairs(q query, driver, sdss *catalog.Catalog) map[idPair]struct{} {
	radius := geom.ArcsecToRad(matchRadiusArcsec)
	region := geom.NewCap(geom.FromRaDec(q.ra, q.dec), geom.Radians(q.radiusDeg))
	want := make(map[idPair]struct{})
	for _, o := range driver.InCap(region) {
		cands := sdss.InCap(geom.NewCap(o.Pos, 2*radius))
		wo := []xmatch.WorkloadObject{{QueryID: 1, Obj: o, Radius: radius}}
		for _, p := range xmatch.BruteForce(cands, wo, nil) {
			want[idPair{p.Remote.ID, p.Local.ID}] = struct{}{}
		}
	}
	return want
}

// checkResponse fully decodes one 200 body and compares it with the oracle.
// Without LIMIT the returned pair set must equal the expected one; with
// LIMIT the rows must be distinct expected pairs, min(limit, expected) of
// them, and row_count must still be the full count.
func checkResponse(k kept, driver, sdss *catalog.Catalog) error {
	var resp struct {
		Result struct {
			Rows     []federation.Row `json:"rows"`
			RowCount int              `json:"row_count"`
		} `json:"result"`
	}
	if err := json.Unmarshal(k.body, &resp); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	want := expectedPairs(k.q, driver, sdss)
	if resp.Result.RowCount != len(want) {
		return fmt.Errorf("row_count %d, oracle %d", resp.Result.RowCount, len(want))
	}
	wantRows := len(want)
	if k.q.limit > 0 && wantRows > k.q.limit {
		wantRows = k.q.limit
	}
	if len(resp.Result.Rows) != wantRows {
		return fmt.Errorf("%d rows, want %d", len(resp.Result.Rows), wantRows)
	}
	got := make(map[idPair]struct{}, len(resp.Result.Rows))
	for _, row := range resp.Result.Rows {
		d, okD := row.Objects[k.q.driver]
		s, okS := row.Objects["sdss"]
		if !okD || !okS {
			return fmt.Errorf("row lacks %s or sdss object", k.q.driver)
		}
		p := idPair{d.ID, s.ID}
		if _, ok := want[p]; !ok {
			return fmt.Errorf("pair (%d,%d) not in oracle", p.driver, p.sdss)
		}
		got[p] = struct{}{}
	}
	if len(got) != len(resp.Result.Rows) {
		return fmt.Errorf("duplicate rows: %d distinct of %d", len(got), len(resp.Result.Rows))
	}
	return nil
}

// runOracle checks every retained response of every stream and returns the
// number of mismatches with the first few messages.
func runOracle(st *stack, streams []*streamRun) (checked, mismatches int, msgs []string) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan kept)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				err := checkResponse(k, st.drivers[k.q.driver], st.sdss)
				mu.Lock()
				checked++
				if err != nil {
					mismatches++
					if len(msgs) < 5 {
						msgs = append(msgs, fmt.Sprintf("%s: %v", k.q.text, err))
					}
				}
				mu.Unlock()
			}
		}()
	}
	for _, sr := range streams {
		for _, k := range sr.kept {
			work <- k
		}
	}
	close(work)
	wg.Wait()
	return checked, mismatches, msgs
}
