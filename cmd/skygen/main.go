// Command skygen generates and inspects synthetic SkyQuery workload
// traces: the query streams the experiments replay (paper §5.1). With
// -stats it prints the trace's workload characterization — the statistics
// behind Figures 5 and 6. With -write-segments it builds the on-disk
// segment store (internal/segment) a file-backed engine serves real I/O
// from.
//
// Usage:
//
//	skygen [-n 2000] [-seed 42] [-stats] [-json]
//	skygen -write-segments DIR [-objects 120000] [-genlevel 4] [-bucket 400] [-object-bytes 4096] [-seed 42]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"liferaft/internal/bucket"
	"liferaft/internal/catalog"
	"liferaft/internal/exper"
	"liferaft/internal/geom"
	"liferaft/internal/segment"
	"liferaft/internal/workload"
)

func main() {
	n := flag.Int("n", 2000, "number of queries")
	seed := flag.Int64("seed", 42, "trace seed (and catalog seed for -write-segments)")
	stats := flag.Bool("stats", false, "print Figure 5/6 workload statistics (builds catalogs)")
	asJSON := flag.Bool("json", false, "emit the trace as JSON lines")
	segDir := flag.String("write-segments", "", "build a segment store for a file-backed engine under this directory and exit")
	objects := flag.Int("objects", 120_000, "catalog size for -write-segments")
	genLevel := flag.Int("genlevel", 4, "catalog materialization level for -write-segments")
	perBucket := flag.Int("bucket", 400, "objects per bucket for -write-segments")
	objectBytes := flag.Int64("object-bytes", 0, "on-disk bytes per object for -write-segments (0 = the paper's 4096)")
	flag.Parse()

	if *segDir != "" {
		if err := writeSegments(*segDir, *objects, *seed, *genLevel, *perBucket, *objectBytes); err != nil {
			fmt.Fprintf(os.Stderr, "skygen: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*n, *seed, *stats, *asJSON); err != nil {
		fmt.Fprintf(os.Stderr, "skygen: %v\n", err)
		os.Exit(1)
	}
}

// writeSegments synthesizes the base survey and materializes its
// partition into a segment directory — the build path a file-backed
// liferaftd run reads from. The same flags
// (objects, seed, genlevel, bucket, object-bytes) must be used by the
// engine that opens the store; the manifest records them and open-time
// validation rejects a mismatch.
func writeSegments(dir string, objects int, seed int64, genLevel, perBucket int, objectBytes int64) error {
	cat, err := catalog.New(catalog.Config{
		Name: "sdss", N: objects, Seed: seed, GenLevel: genLevel, CacheTrixels: true,
	})
	if err != nil {
		return err
	}
	part, err := bucket.NewPartition(cat, perBucket, objectBytes)
	if err != nil {
		return err
	}
	// Ensure, not Write: a directory already holding a completed store
	// is opened and validated, never clobbered — rebuilding over a
	// store another process may be serving (or one built with other
	// flags) must be an explicit `rm`, not a flag typo.
	start := time.Now()
	set, st, err := segment.Ensure(dir, part, segment.WriteOptions{})
	if err != nil {
		return err
	}
	set.Close()
	if st.Segments == 0 {
		fmt.Printf("%s already holds a matching segment store; nothing to do\n", dir)
		return nil
	}
	elapsed := time.Since(start)
	fmt.Printf("wrote %d segments under %s: %d buckets, %d objects, %.1f MB in %v (%.1f MB/s)\n",
		st.Segments, dir, st.Buckets, st.Objects, float64(st.Bytes)/1e6,
		elapsed.Round(time.Millisecond), float64(st.Bytes)/1e6/elapsed.Seconds())
	return nil
}

func run(n int, seed int64, stats, asJSON bool) error {
	cfg := workload.DefaultTraceConfig(seed)
	cfg.NumQueries = n
	trace, err := workload.Generate(cfg)
	if err != nil {
		return err
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		for _, q := range trace.Queries {
			ra, dec := geom.ToRaDec(q.Center)
			row := map[string]any{
				"id": q.ID, "ra": ra, "dec": dec,
				"radius_deg":   geom.Degrees(q.RadiusRad),
				"match_arcsec": geom.RadToArcsec(q.MatchRadiusRad),
				"selectivity":  q.Selectivity,
				"hot":          q.Hot,
				"archives":     q.Archives,
			}
			if q.MagLo != 0 || q.MagHi != 0 {
				row["mag_lo"], row["mag_hi"] = q.MagLo, q.MagHi
			}
			if err := enc.Encode(row); err != nil {
				return err
			}
		}
		return nil
	}
	fmt.Printf("trace: %d queries, %d hotspots, seed %d\n", len(trace.Queries), len(trace.Hotspots), seed)
	hot := 0
	for _, q := range trace.Queries {
		if q.Hot {
			hot++
		}
	}
	fmt.Printf("hot-region queries: %d (%.0f%%)\n", hot, 100*float64(hot)/float64(len(trace.Queries)))
	for i, q := range trace.Queries[:min(5, len(trace.Queries))] {
		fmt.Printf("  %d: %v\n", i, q)
	}
	if !stats {
		fmt.Println("(run with -stats for the Figure 5/6 workload characterization)")
		return nil
	}
	scale := exper.CI()
	scale.NumQueries = n
	scale.Seed = seed
	env, err := exper.NewEnv(scale)
	if err != nil {
		return err
	}
	exper.Fig5(env).Fprint(os.Stdout)
	exper.Fig6(env).Fprint(os.Stdout)
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
