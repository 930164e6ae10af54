// Command skyquery is the federation portal client: it plans a serial
// left-deep cross-match over the archives a SkyQL query names and prints
// the joined rows, the way SkyQuery's web portal drove the real federation.
// SkyQL is the SQL dialect SkyQuery exposed to astronomers; the XMATCH
// aliases give the plan order, the first driving the extraction:
//
//	skyquery -nodes sdss=127.0.0.1:7701,twomass=127.0.0.1:7702 -limit 10 -query '
//	    SELECT t.id, s.id FROM twomass t, sdss s
//	    WHERE XMATCH(t, s) < 5 AND REGION(CIRCLE, 150, 20, 4) AND SAMPLE(0.5)'
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"liferaft/internal/federation"
	"liferaft/internal/skyql"
	"liferaft/internal/trace"
)

func main() {
	nodes := flag.String("nodes", "", "comma-separated name=addr pairs for every archive")
	queryText := flag.String("query", "", "SkyQL query text (required)")
	limit := flag.Int("limit", 20, "max rows to print (a LIMIT in the query overrides it)")
	seed := flag.Int64("seed", 1, "subsampling seed")
	traced := flag.Bool("trace", false, "trace the query across every hop and print the span tree (remote nodes need tracing enabled)")
	flag.Parse()

	if err := run(*nodes, *queryText, *limit, *seed, *traced); err != nil {
		fmt.Fprintf(os.Stderr, "skyquery: %v\n", err)
		os.Exit(1)
	}
}

func run(nodes, queryText string, limit int, seed int64, traced bool) error {
	if nodes == "" {
		return fmt.Errorf("-nodes is required (e.g. sdss=127.0.0.1:7701,twomass=127.0.0.1:7702)")
	}
	if queryText == "" {
		return fmt.Errorf("-query is required (a SkyQL cross-match)")
	}
	parsed, err := skyql.Parse(queryText)
	if err != nil {
		return err
	}
	q, err := skyql.Compile(parsed, 1, seed)
	if err != nil {
		return err
	}
	if parsed.Limit > 0 {
		limit = parsed.Limit
	}
	portal := federation.NewPortal()
	for _, pair := range strings.Split(nodes, ",") {
		name, addr, ok := strings.Cut(pair, "=")
		if !ok {
			return fmt.Errorf("bad -nodes entry %q, want name=addr", pair)
		}
		cli := federation.Dial(addr)
		defer cli.Close()
		// Verify the daemon serves what we think it serves.
		served, err := cli.Archive()
		if err != nil {
			return fmt.Errorf("contacting %s at %s: %w", name, addr, err)
		}
		if served != name {
			return fmt.Errorf("node at %s serves %q, not %q", addr, served, name)
		}
		portal.Register(name, cli)
	}

	ctx := context.Background()
	var rec *trace.Recorder
	var tr *trace.Trace
	if traced {
		rec = trace.New(trace.Config{})
		tr = rec.Start("skyquery", q.ID)
		ctx = trace.NewContext(ctx, tr)
	}
	rs, err := portal.ExecuteCtx(ctx, q)
	if traced {
		// Print the tree even on failure: an error-annotated hop span
		// shows which archive the plan died at.
		printTrace(rec.Finish(tr))
	}
	if err != nil {
		return err
	}
	fmt.Printf("cross-match %s: %d rows\n", strings.Join(q.Archives, ","), len(rs.Rows))
	for _, a := range q.Archives[1:] {
		fmt.Printf("  %s: shipped %d objects, matched in %v\n", a, rs.Shipped[a], rs.HopElapsed[a])
	}
	names := q.Archives
	for i, row := range rs.Rows {
		if i >= limit {
			fmt.Printf("  ... %d more rows\n", len(rs.Rows)-limit)
			break
		}
		parts := make([]string, 0, len(names))
		for _, n := range names {
			if o, ok := row.Object(n); ok {
				parts = append(parts, fmt.Sprintf("%s:%d(mag %.1f)", n, o.ID, o.Mag))
			}
		}
		sort.Strings(parts)
		fmt.Printf("  row %3d: %s\n", i, strings.Join(parts, "  "))
	}
	return nil
}

// printTrace renders the capture as a tree: portal-side steps in start
// order, each hop's stitched node-side spans nested under it.
func printTrace(d trace.Data) {
	fmt.Printf("trace %s: %d spans, %.3fs\n", d.TraceID, len(d.Spans), d.ResponseSec)
	spans := append([]trace.Span(nil), d.Spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	byNode := make(map[string][]trace.Span)
	var top []trace.Span
	for _, sp := range spans {
		if sp.Node != "" && sp.Stage != trace.StageFedMatch && sp.Stage != trace.StageFedExtract {
			byNode[sp.Node] = append(byNode[sp.Node], sp)
			continue
		}
		top = append(top, sp)
	}
	pr := func(indent string, sp trace.Span) {
		line := fmt.Sprintf("%s%-18s +%9.3fms %10.3fms", indent, sp.Stage,
			sp.Start.Sub(d.Start).Seconds()*1e3, sp.End.Sub(sp.Start).Seconds()*1e3)
		if sp.Node != "" {
			line += "  @" + sp.Node
		}
		if sp.Attr != "" {
			line += "  " + sp.Attr
		}
		if sp.N != 0 {
			line += fmt.Sprintf("  n=%d", sp.N)
		}
		if sp.Key != 0 {
			line += fmt.Sprintf("  bucket=%d", sp.Key)
		}
		if sp.Score != 0 {
			line += fmt.Sprintf("  ut=%.4g", sp.Score)
		}
		if sp.Err != "" {
			line += "  err=" + sp.Err
		}
		fmt.Println(line)
	}
	for _, sp := range top {
		pr("  ", sp)
		if sp.Stage == trace.StageFedMatch {
			for _, c := range byNode[sp.Node] {
				pr("      ", c)
			}
		}
	}
	if d.CacheHits+d.CacheMisses > 0 {
		fmt.Printf("  cache: %d hits, %d misses\n", d.CacheHits, d.CacheMisses)
	}
	if d.Dropped > 0 {
		fmt.Printf("  (%d spans dropped past the %d-span slab)\n", d.Dropped, trace.MaxSpans)
	}
}
