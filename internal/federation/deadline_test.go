package federation

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"liferaft/internal/core"
	"liferaft/internal/metric"
)

// TestDeadlineCrossesEveryHop: a query's context reaches every hop of a
// portal plan, so a caller that gives up takes its query out of the
// workload queues it was waiting in. Each row ends the context where one
// hand-off has to carry it and holds the plan to returning that context's
// error within a second.
//
// The matched-archive rows end the context while the cross-match is parked
// in a held node's engine, and the node must then count the query
// cancelled with nothing of it in flight. In process the context crosses
// ExecuteCtx → InProc.MatchCtx → Node.MatchCtx, then Server.Submit →
// dispatch → Live.SubmitCtx on a node with a serving layer and
// Live.SubmitCtx directly on one without; Live.SubmitCtx's AfterFunc
// cancels the query. Over TCP it crosses ExecuteCtx → Client.MatchCtx →
// roundTripCtx, whose cancel frame reaches serverConn.cancelRequest, which
// ends the context serve handed to Node.MatchCtx.
//
// The driving-archive row is a silent TCP peer: the context's deadline
// must end the extraction (ExecuteCtx → Client.ExtractCtx), not the
// client's own, longer timeout.
func TestDeadlineCrossesEveryHop(t *testing.T) {
	inProc := func(h held) Transport { return InProc{h.node} }
	overTCP := func(h held) Transport { return h.cli }
	for _, row := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"matched archive in process", func(t *testing.T) { parkedMatch(t, servingHeld(t), inProc) }},
		{"matched archive in process, no serving layer", func(t *testing.T) { parkedMatch(t, plainHeld(t), inProc) }},
		{"matched archive over TCP", func(t *testing.T) { parkedMatch(t, servingHeld(t), overTCP) }},
		{"driving archive over TCP", silentExtraction},
	} {
		t.Run(row.name, row.run)
	}
}

// held is a served real-clock sdss node whose engine a large in-process
// match keeps busy until release, a client to it, and what a row sees of
// the plan's cross-match there.
type held struct {
	node      *Node
	cli       *Client
	release   func()
	parked    func() bool // the cross-match is in the engine
	withdrawn func() bool // the node counts it cancelled, none of it in flight
}

// servingHeld is busyNode's node, behind a serving layer: the plan's
// cross-match runs as tenant "remote", whose statistics show it.
func servingHeld(t *testing.T) held {
	node, _, cli, _, release := busyNode(t)
	return held{node: node, cli: cli, release: release,
		parked: func() bool { return tenantStats(node, "remote").InFlight == 1 },
		withdrawn: func() bool {
			ts := tenantStats(node, "remote")
			return ts.Cancelled == 1 && ts.InFlight == 0
		},
	}
}

// plainHeld is a node without a serving layer; its engine metrics show the
// queries submitted to it and how they resolved.
func plainHeld(t *testing.T) held {
	newFixture(t) // builds fedCats
	reg := metric.NewRegistry()
	node, err := NewNode(NodeConfig{Catalog: fedCats[0], ObjectsPerBucket: 400, Alpha: 0.25, Metrics: core.NewEngineMetrics(reg)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	scraped := func(line string) func() bool {
		return func() bool {
			var out strings.Builder
			reg.WriteText(&out)
			return strings.Contains(out.String(), "\n"+line+"\n")
		}
	}
	_, cli, _, release := holdBusy(t, node, scraped("liferaft_engine_fanout_shards_count 1"))
	return held{node: node, cli: cli, release: release,
		parked:    scraped("liferaft_engine_fanout_shards_count 2"),
		withdrawn: scraped(`liferaft_engine_queries_total{outcome="cancelled"} 1`),
	}
}

// parkedMatch runs a two-archive plan whose matched archive is h's node,
// reached through site, and cancels the plan's context once the
// cross-match is in that node's engine.
func parkedMatch(t *testing.T, h held, site func(held) Transport) {
	f := newFixture(t)
	p := NewPortal()
	p.Register("twomass", InProc{f.twomass})
	p.Register("sdss", site(h))
	q := Query{ID: 2, RA: 150, Dec: 20, RadiusDeg: 6, MatchRadiusArcsec: 5,
		Archives: []string{"twomass", "sdss"}, Selectivity: 1, Seed: 3, Tenant: "remote"}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := p.ExecuteCtx(ctx, q)
		done <- err
	}()
	eventually(t, "the cross-match is in the engine", h.parked)
	cancel()
	awaitPlan(t, done, ctx.Err())
	eventually(t, "the node withdrew the cross-match", h.withdrawn)
	h.release()
}

// silentExtraction runs a plan whose driving archive accepts connections
// and never speaks, under a context deadline far shorter than the client's
// timeout.
func silentExtraction(t *testing.T) {
	cli := DialTimeout(silentPeer(t), 3*time.Second)
	defer cli.Close()
	f := newFixture(t)
	p := NewPortal()
	p.Register("twomass", cli)
	p.Register("sdss", InProc{f.sdss})

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := p.ExecuteCtx(ctx, testQuery())
		done <- err
	}()
	<-ctx.Done()
	awaitPlan(t, done, context.DeadlineExceeded)
}

// awaitPlan holds a plan whose context just ended to returning want within
// a second.
func awaitPlan(t *testing.T, done <-chan error, want error) {
	t.Helper()
	select {
	case err := <-done:
		if !errors.Is(err, want) {
			t.Fatalf("plan returned %v after its context ended, want %v", err, want)
		}
	case <-time.After(time.Second):
		t.Fatal("plan still running a second after its context ended")
	}
}
