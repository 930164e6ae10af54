// Persist: build an on-disk segment store for a synthetic sky, then run
// the same cross-match trace twice — once against the analytic disk
// model on the virtual clock (the paper-reproduction configuration) and
// once against the segment files with real I/O — and show that the two
// backends return identical matches while only the second one actually
// moves bytes.
//
//	go run ./examples/persist
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"liferaft"
)

func main() {
	local, err := liferaft.NewCatalog(liferaft.CatalogConfig{
		Name: "sdss", N: 60_000, Seed: 7, GenLevel: 4, CacheTrixels: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	remote, err := liferaft.NewDerivedCatalog(local, liferaft.DerivedConfig{
		Name: "twomass", Seed: 8, Fraction: 0.8,
		JitterRad: liferaft.ArcsecToRad(1.5), CacheTrixels: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	// A 256-byte on-disk stride keeps this demo's store at ~15 MB; the
	// paper's geometry would use the default 4 KiB SDSS row.
	part, err := liferaft.NewPartition(local, 300, 256)
	if err != nil {
		log.Fatal(err)
	}

	dir := filepath.Join(os.TempDir(), "liferaft-persist-demo")
	start := time.Now()
	set, wst, err := liferaft.EnsureSegments(dir, part, liferaft.SegmentWriteOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if wst.Segments > 0 {
		fmt.Printf("built segment store under %s: %d segments, %.1f MB in %v\n",
			dir, wst.Segments, float64(wst.Bytes)/1e6, time.Since(start).Round(time.Millisecond))
	} else {
		fmt.Printf("reusing segment store under %s\n", dir)
	}

	// A burst of overlapping queries, materialized once and replayed
	// through both backends.
	var jobs []liferaft.Job
	for i, r := range []struct{ ra, dec, radius float64 }{
		{150, 20, 6}, {152, 21, 5}, {150, 19, 4}, {205, 25, 5}, {203, 24, 6},
	} {
		q := liferaft.Query{
			ID:             uint64(i),
			Center:         liferaft.FromRaDec(r.ra, r.dec),
			RadiusRad:      liferaft.Radians(r.radius),
			MatchRadiusRad: liferaft.ArcsecToRad(5),
			Selectivity:    0.5,
		}
		jobs = append(jobs, liferaft.Job{ID: q.ID, Objects: liferaft.MaterializeQuery(q, remote, 1)})
	}
	offsets := make([]time.Duration, len(jobs)) // all at once

	simCfg, _ := liferaft.NewVirtualConfig(part, 0.25, true)
	simRes, simStats, err := liferaft.Run(simCfg, jobs, offsets)
	if err != nil {
		log.Fatal(err)
	}

	fileCfg, err := liferaft.NewFileBackedConfigFrom(part, 0.25, true, set)
	if err != nil {
		log.Fatal(err)
	}
	defer fileCfg.Store.Close()
	fileRes, fileStats, err := liferaft.Run(fileCfg, jobs, offsets)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-8s %12s %12s %12s\n", "backend", "matches", "seq reads", "MB moved")
	sum := func(rs []liferaft.Result) (m int) {
		for _, r := range rs {
			m += r.Matches
		}
		return
	}
	fmt.Printf("%-8s %12d %12d %12.1f  (modeled: %v of virtual disk time)\n",
		"sim", sum(simRes), simStats.Disk.SeqReads, float64(simStats.Disk.SeqBytes)/1e6, simStats.Disk.BusyTime.Round(time.Millisecond))
	fmt.Printf("%-8s %12d %12d %12.1f  (measured: %v of real wall time)\n",
		"file", sum(fileRes), fileStats.Disk.SeqReads, float64(fileStats.Disk.SeqBytes)/1e6, fileStats.Makespan.Round(time.Millisecond))
	if sum(simRes) != sum(fileRes) {
		log.Fatal("BACKENDS DIVERGED — this is a bug")
	}
	fmt.Println("\nidentical matches from both backends; only the file backend touched the disk")
}
