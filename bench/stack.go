package main

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"liferaft/internal/bucket"
	"liferaft/internal/catalog"
	"liferaft/internal/core"
	"liferaft/internal/federation"
	"liferaft/internal/geom"
	"liferaft/internal/htm"
	"liferaft/internal/metric"
	"liferaft/internal/segment"
	"liferaft/internal/server"
	"liferaft/internal/simclock"
	"liferaft/internal/skyql"
	"liferaft/internal/trace"
)

// fixture is the geometry every workload shares. The defaults reproduce
//
//	liferaftd -archive sdss -objects 800000 -seed 42 -genlevel 5 -bucket 4000 \
//	    -object-bytes 512 -data-dir <dir> -shards 2 -cache 20 -alpha 0.25 \
//	    -http <addr> -peers twomass=<addr>,rosat=<addr> [-tenants ...]
//
// 200 buckets x 2 MB on disk against a RAM tier of 2 x 20 buckets, so the
// store is five times the cache.
type fixture struct {
	objects     int
	baseSeed    int64
	genLevel    int
	perBucket   int
	objectBytes int64
	shards      int
	cache       int
	alpha       float64
	sloP99      time.Duration
}

var fullFixture = fixture{
	objects: 800_000, baseSeed: 42, genLevel: 5, perBucket: 4000, objectBytes: 512,
	shards: 2, cache: 20, alpha: 0.25, sloP99: 2 * time.Second,
}

// derivedParams fixes the driving archives: twomass is dense (as in
// liferaftd), rosat is thinned to 0.5 % so that a 15-30 degree region ships
// only a few objects per sdss bucket.
var derivedParams = []struct {
	name       string
	seedOffset int64
	fraction   float64
}{
	{"twomass", 1, 0.8},
	{"rosat", 5, 0.005},
}

// stack is the daemon's serving stack assembled in one process:
// server.Gateway -> skyql -> federation.Portal -> federation.Node (serving
// layer, recorder at sample 1, engine metrics) -> 2-shard core.Live ->
// file-backed segment store with MaterializeResults on.
type stack struct {
	dir     string
	sdss    *catalog.Catalog
	drivers map[string]*catalog.Catalog

	reg *metric.Registry // the sdss node's registry (engine + serving)
	rec *trace.Recorder  // the gateway's recorder
	gw  *server.Gateway

	probe     *probe             // nil unless built for a traced run
	fedClient *federation.Client // fed_hop only: the one TCP client to sdss

	closers []func() error
}

// servingConfig is liferaftd's options.servingConfig with -http set: the
// serving layer is always on, rates adaptive (AIMD) against the 2 s SLO.
func servingConfig(fx fixture, tenants []server.TenantConfig, reg *metric.Registry) *server.Config {
	return &server.Config{
		DefaultRate: 0,
		QueueDepth:  0,
		Tenants:     tenants,
		RateMode:    server.RateAdaptive,
		SLOP99:      fx.sloP99,
		Registry:    reg,
	}
}

// parseTenants parses liferaftd's -tenants value ("name:weight,...").
func parseTenants(s string) ([]server.TenantConfig, error) {
	if s == "" {
		return nil, nil
	}
	var out []server.TenantConfig
	for _, part := range strings.Split(s, ",") {
		name, weightStr, _ := strings.Cut(part, ":")
		w, err := strconv.Atoi(weightStr)
		if err != nil || w < 1 || name == "" {
			return nil, fmt.Errorf("bad tenant %q", part)
		}
		out = append(out, server.TenantConfig{Name: name, Weight: w})
	}
	return out, nil
}

// gatewayExec is a verbatim copy of cmd/liferaftd's unexported gatewayExec;
// TestGatewayExecParity fails when the two bodies differ, so the benchmark
// cannot silently stop measuring what the daemon runs.
func gatewayExec(portal *federation.Portal) func(ctx context.Context, tenant, query string) (any, error) {
	var nextID atomic.Uint64
	return func(ctx context.Context, tenant, query string) (any, error) {
		q, err := skyql.Parse(query)
		if err != nil {
			return nil, &server.BadRequestError{Err: err}
		}
		fq, err := skyql.Compile(q, nextID.Add(1), 0)
		if err != nil {
			return nil, &server.BadRequestError{Err: err}
		}
		fq.Tenant = tenant
		rs, err := portal.ExecuteCtx(ctx, fq)
		if err != nil {
			return nil, err
		}
		rows := rs.Rows
		if q.Limit > 0 && len(rows) > q.Limit {
			rows = rows[:q.Limit]
		}
		return map[string]any{
			"rows":        rows,
			"row_count":   len(rs.Rows),
			"hop_elapsed": rs.HopElapsed,
			"shipped":     rs.Shipped,
		}, nil
	}
}

// buildStack synthesizes the catalogs, writes and opens the segment store
// under a fresh directory below tmpRoot, starts the nodes and returns the
// ready gateway. With traced set, the gateway runs the span-recording copy of
// gatewayExec over decorated transports (see probe); otherwise it runs
// exactly what liferaftd wires.
func buildStack(fx fixture, w workloadSpec, tmpRoot string, traced bool) (_ *stack, err error) {
	s := &stack{drivers: make(map[string]*catalog.Catalog)}
	defer func() {
		if err != nil {
			s.Close()
		}
	}()
	if s.dir, err = os.MkdirTemp(tmpRoot, "store-"); err != nil {
		return nil, err
	}
	s.closers = append(s.closers, func() error { return os.RemoveAll(s.dir) })

	s.sdss, err = catalog.New(catalog.Config{
		Name: "sdss", N: fx.objects, Seed: fx.baseSeed, GenLevel: fx.genLevel, CacheTrixels: true,
	})
	if err != nil {
		return nil, err
	}
	part, err := bucket.NewPartition(s.sdss, fx.perBucket, fx.objectBytes)
	if err != nil {
		return nil, err
	}
	if _, err := segment.Write(s.dir, part, segment.WriteOptions{}); err != nil {
		return nil, err
	}

	tenants, err := parseTenants(w.tenants)
	if err != nil {
		return nil, err
	}
	s.reg = metric.NewRegistry()
	sdssRec := trace.New(trace.Config{SlowThreshold: fx.sloP99, Sample: 1})
	node, err := federation.NewNode(federation.NodeConfig{
		Catalog: s.sdss, ObjectsPerBucket: fx.perBucket,
		Alpha: fx.alpha, CacheBuckets: fx.cache, Shards: fx.shards, Clock: simclock.Real{},
		Serving: servingConfig(fx, tenants, s.reg), DataDir: s.dir, ObjectBytes: fx.objectBytes,
		Metrics: core.NewEngineMetrics(s.reg), Tracer: sdssRec,
	})
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, node.Close)

	if traced {
		s.probe = newProbe()
	}
	portal := federation.NewPortal()
	var sdssT federation.Transport = federation.InProc{Node: node}
	s.rec = sdssRec
	if w.fedHop {
		// Two daemons: sdss serves the gob transport and keeps its own
		// recorder; the gateway daemon registers it as liferaftd -peers
		// does, through one federation.Dial client (one TCP connection).
		srv, err := federation.Serve(node, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s.closers = append(s.closers, srv.Close)
		cli := federation.Dial(srv.Addr().String())
		s.closers = append(s.closers, cli.Close)
		sdssT, s.fedClient = cli, cli
		s.rec = trace.New(trace.Config{SlowThreshold: fx.sloP99, Sample: 1})
	}
	portal.Register("sdss", s.probe.wrap(sdssT, w.fedHop))

	// The driving archives only serve Extract: in-process nodes on a
	// virtual clock, fully materialized during set-up so that no query
	// pays for lazy catalog synthesis.
	for _, p := range derivedParams {
		cat, err := catalog.NewDerived(s.sdss, catalog.DerivedConfig{
			Name: p.name, Seed: fx.baseSeed + p.seedOffset, Fraction: p.fraction,
			JitterRad: geom.ArcsecToRad(1.5), CacheTrixels: true,
		})
		if err != nil {
			return nil, err
		}
		for pos := uint64(0); pos < htm.NumTrixels(fx.genLevel); pos++ {
			cat.TrixelObjects(pos)
		}
		n, err := federation.NewNode(federation.NodeConfig{
			Catalog: cat, ObjectsPerBucket: fx.perBucket, Alpha: fx.alpha,
			CacheBuckets: fx.cache, Clock: simclock.NewVirtual(),
		})
		if err != nil {
			return nil, err
		}
		s.closers = append(s.closers, n.Close)
		s.drivers[p.name] = cat
		portal.Register(p.name, s.probe.wrap(federation.InProc{Node: n}, false))
	}

	exec := gatewayExec(portal)
	if traced {
		exec = s.probe.gatewayExec(portal)
	}
	s.gw, err = server.NewGateway(server.GatewayConfig{
		Exec:     exec,
		Server:   node.Serving(),
		Registry: s.reg,
		Tracer:   s.rec,
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Close stops the nodes and removes the store, newest resource first.
func (s *stack) Close() error {
	var first error
	for i := len(s.closers) - 1; i >= 0; i-- {
		if err := s.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	s.closers = nil
	return first
}
