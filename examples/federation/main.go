// Federation: an in-process three-archive SkyQuery federation. The portal
// plans a serial left-deep cross-match (twomass ⋈ sdss ⋈ usnob), ships
// intermediate object lists from site to site, and each site's LifeRaft
// engine batches whatever concurrent work it sees.
//
//	go run ./examples/federation
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

	"liferaft"
)

func main() {
	// One base survey, two re-observations: three correlated archives.
	base, err := liferaft.NewCatalog(liferaft.CatalogConfig{
		Name: "sdss", N: 80_000, Seed: 21, GenLevel: 4, CacheTrixels: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	twomass, err := liferaft.NewDerivedCatalog(base, liferaft.DerivedConfig{
		Name: "twomass", Seed: 22, Fraction: 0.7,
		JitterRad: liferaft.ArcsecToRad(1), CacheTrixels: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	usnob, err := liferaft.NewDerivedCatalog(base, liferaft.DerivedConfig{
		Name: "usnob", Seed: 23, Fraction: 0.6,
		JitterRad: liferaft.ArcsecToRad(1), CacheTrixels: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Each archive is an independent node with its own LifeRaft engine;
	// the shared virtual clock makes modeled I/O cost instantaneous.
	clk := liferaft.NewVirtualClock()
	portal := liferaft.NewFedPortal()
	for _, cat := range []*liferaft.Catalog{base, twomass, usnob} {
		node, err := liferaft.NewFedNode(liferaft.FedNodeConfig{
			Catalog: cat, ObjectsPerBucket: 400, Alpha: 0.25, Clock: clk,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer node.Close()
		portal.Register(cat.Name(), liferaft.FedInProc{Node: node})
	}
	fmt.Printf("federation: %v\n", portal.Archives())

	// Several users cross-match different regions concurrently; each
	// node batches the overlapping work.
	var wg sync.WaitGroup
	type outcome struct {
		rows int
		err  error
	}
	outcomes := make([]outcome, 4)
	for i := range outcomes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rs, err := portal.ExecuteCtx(context.Background(), liferaft.FedQuery{
				ID: uint64(i + 1), RA: 140 + float64(5*i), Dec: 15, RadiusDeg: 5,
				MatchRadiusArcsec: 5, Selectivity: 0.4,
				Archives: []string{"twomass", "sdss", "usnob"},
				Seed:     int64(i),
			})
			if err != nil {
				outcomes[i] = outcome{err: err}
				return
			}
			outcomes[i] = outcome{rows: len(rs.Rows)}
			if i == 0 {
				for a, n := range rs.Shipped {
					fmt.Printf("  query 1 shipped %d objects to %s\n", n, a)
				}
			}
		}(i)
	}
	wg.Wait()
	for i, o := range outcomes {
		if o.err != nil {
			log.Fatalf("query %d: %v", i+1, o.err)
		}
		fmt.Printf("query %d: %d three-way matched rows\n", i+1, o.rows)
	}
	fmt.Println("\nevery row is an object observed by all three instruments within 5 arcsec")
}
