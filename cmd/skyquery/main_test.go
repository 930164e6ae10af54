package main

import (
	"strings"
	"testing"

	"liferaft/internal/catalog"
	"liferaft/internal/federation"
	"liferaft/internal/simclock"
)

// TestRunEndToEnd drives the portal client against real TCP nodes.
func TestRunEndToEnd(t *testing.T) {
	base, err := catalog.New(catalog.Config{
		Name: "sdss", N: 20000, Seed: 1, GenLevel: 4, CacheTrixels: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	der, err := catalog.NewDerived(base, catalog.DerivedConfig{
		Name: "twomass", Seed: 2, Fraction: 0.8, JitterRad: 1e-5, CacheTrixels: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	clk := simclock.NewVirtual()
	mk := func(c *catalog.Catalog) (*federation.Node, *federation.Server) {
		n, err := federation.NewNode(federation.NodeConfig{
			Catalog: c, ObjectsPerBucket: 400, Alpha: 0.25, Clock: clk,
		})
		if err != nil {
			t.Fatal(err)
		}
		s, err := federation.Serve(n, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close(); n.Close() })
		return n, s
	}
	_, sdssSrv := mk(base)
	_, tmSrv := mk(der)
	nodes := "sdss=" + sdssSrv.Addr().String() + ",twomass=" + tmSrv.Addr().String()

	// A traced plan with a sample, printed to -limit.
	q := `SELECT * FROM twomass t, sdss s
	      WHERE XMATCH(t, s) < 5 AND REGION(CIRCLE, 150, 20, 8) AND SAMPLE(0.8)`
	if err := run(nodes, q, 5, 1, true); err != nil {
		t.Fatalf("traced query: %v", err)
	}
	// A LIMIT in the query overrides -limit.
	q = `SELECT t.id, s.id FROM twomass t, sdss s
	     WHERE XMATCH(t, s) < 5 AND REGION(CIRCLE, 150, 20, 8) AND SAMPLE(0.8) LIMIT 3`
	if err := run(nodes, q, 5, 1, false); err != nil {
		t.Fatalf("query with LIMIT: %v", err)
	}
	// Bad SkyQL propagates.
	if err := run(nodes, "SELECT nonsense", 5, 1, false); err == nil {
		t.Error("bad SkyQL should fail")
	}
}

func TestRunValidation(t *testing.T) {
	const q = `SELECT * FROM twomass t, sdss s WHERE XMATCH(t, s) < 5 AND REGION(CIRCLE, 150, 20, 1)`
	if err := run("", q, 5, 1, false); err == nil {
		t.Error("missing -nodes should fail")
	}
	if err := run("sdss=127.0.0.1:1", "", 5, 1, false); err == nil ||
		!strings.Contains(err.Error(), "-query") {
		t.Errorf("missing -query error = %v", err)
	}
	if err := run("badpair", q, 5, 1, false); err == nil ||
		!strings.Contains(err.Error(), "name=addr") {
		t.Errorf("bad pair error = %v", err)
	}
	if err := run("sdss=127.0.0.1:1", q, 5, 1, false); err == nil {
		t.Error("dead node should fail")
	}
}
