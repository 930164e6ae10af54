// Command liferaftd serves one archive node of a LifeRaft federation over
// TCP — and, with -http, over an HTTP+JSON gateway that accepts SkyQL.
// Every daemon synthesizes its catalog deterministically from the shared
// base survey parameters, so independently started daemons hold correlated
// archives (the same sky re-observed), exactly what cross-matching needs.
//
// A three-archive federation on one machine:
//
//	liferaftd -archive sdss    -addr 127.0.0.1:7701 &
//	liferaftd -archive twomass -addr 127.0.0.1:7702 &
//	liferaftd -archive usnob   -addr 127.0.0.1:7703 &
//	skyquery -nodes sdss=127.0.0.1:7701,twomass=127.0.0.1:7702,usnob=127.0.0.1:7703 -query '
//	    SELECT * FROM twomass t, sdss s, usnob u
//	    WHERE XMATCH(t, s, u) < 5 AND REGION(CIRCLE, 150, 20, 4) AND SAMPLE(0.5)'
//
// Multi-tenant serving: -rate, -queue-depth, and -tenants put an admission
// control + fair queueing layer in front of the engine; -http additionally
// opens the gateway (POST /v1/query, GET /v1/stats, GET /metrics,
// GET /healthz), which executes SkyQL against this node and any -peers.
// Admission rates are self-tuning: an AIMD controller cuts backlogged
// tenants' rates when the engine's p99 breaches -slo-p99 and regrows them
// on headroom, up to -rate. Every daemon exposes its full metric set in
// Prometheus text format on /metrics (see docs/OPERATIONS.md):
//
//	liferaftd -archive sdss -addr 127.0.0.1:7701 \
//	    -http 127.0.0.1:8080 -rate 50 -queue-depth 32 -tenants vip:4 \
//	    -peers twomass=127.0.0.1:7702,usnob=127.0.0.1:7703
//	curl -s 127.0.0.1:8080/v1/query -d '{"tenant":"vip","query":
//	  "SELECT * FROM sdss s, twomass t WHERE XMATCH(s,t) < 5 AND REGION(CIRCLE J2000 150 20 4)"}'
//
// Persistent storage: -data-dir serves this node's buckets from an
// on-disk segment store (built there on first start; see
// internal/segment) with real I/O on the real clock, instead of the
// analytic disk model. -object-bytes shrinks the per-object stride for
// small installations:
//
//	liferaftd -archive sdss -addr 127.0.0.1:7701 \
//	    -data-dir /var/lib/liferaft/sdss -object-bytes 512
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"liferaft/internal/bucket"
	"liferaft/internal/catalog"
	"liferaft/internal/core"
	"liferaft/internal/federation"
	"liferaft/internal/geom"
	"liferaft/internal/metric"
	"liferaft/internal/segment"
	"liferaft/internal/server"
	"liferaft/internal/simclock"
	"liferaft/internal/skyql"
	"liferaft/internal/trace"
)

// options collects every flag, so validation is testable as one unit.
type options struct {
	archive     string
	addr        string
	baseN       int
	baseSeed    int64
	genLevel    int
	perBucket   int
	alpha       float64
	cache       int
	shards      int
	virtual     bool
	httpAddr    string
	debugAddr   string
	tenants     string
	rate        float64
	sloP99      time.Duration
	queueDepth  int
	peers       string
	dataDir     string
	objectBytes int64
	traceSample float64
}

func main() {
	var o options
	flag.StringVar(&o.archive, "archive", "sdss", "archive to serve: sdss (base) or any derived name (twomass, usnob, ...)")
	flag.StringVar(&o.addr, "addr", "127.0.0.1:7701", "gob TCP listen address")
	flag.IntVar(&o.baseN, "objects", 200_000, "base survey size in objects")
	flag.Int64Var(&o.baseSeed, "seed", 42, "base survey seed (must match across the federation)")
	flag.IntVar(&o.genLevel, "genlevel", 5, "catalog materialization level")
	flag.IntVar(&o.perBucket, "bucket", 500, "objects per bucket")
	flag.Float64Var(&o.alpha, "alpha", 0.25, "LifeRaft age bias in [0,1]")
	flag.IntVar(&o.cache, "cache", 20, "bucket cache capacity")
	flag.IntVar(&o.shards, "shards", 1, "disk/worker shards for this node's engine (1 = one shard of the same engine)")
	flag.BoolVar(&o.virtual, "virtual-clock", true, "charge modeled I/O cost to a virtual clock (instant) instead of sleeping")
	flag.StringVar(&o.httpAddr, "http", "", "HTTP gateway listen address (empty = disabled)")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "debug listen address serving /debug/traces and /debug/pprof (empty = disabled)")
	flag.StringVar(&o.tenants, "tenants", "", "pre-registered tenants as name:weight pairs, e.g. vip:4,batch:1")
	flag.Float64Var(&o.rate, "rate", 0, "per-tenant admission rate in queries/sec and the AIMD regrowth ceiling (0 = unlimited until the controller cuts)")
	flag.DurationVar(&o.sloP99, "slo-p99", 2*time.Second, "target p99 response time driving the adaptive rate controller")
	flag.IntVar(&o.queueDepth, "queue-depth", 0, "per-tenant pending-queue bound (0 = serving-layer default)")
	flag.StringVar(&o.peers, "peers", "", "peer archives for gateway cross-matches as name=addr pairs")
	flag.StringVar(&o.dataDir, "data-dir", "", "serve buckets from the segment store under this directory (real I/O; built on first start, implies -virtual-clock=false)")
	flag.Int64Var(&o.objectBytes, "object-bytes", 0, "on-disk bytes per object for -data-dir (0 = the paper's 4096)")
	flag.Float64Var(&o.traceSample, "trace-sample", 1, "fraction of traces published (trace_id echo, recent ring, exemplars) in (0,1]; slow queries are always captured")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "liferaftd: %v\n", err)
		os.Exit(1)
	}
}

// validate rejects misconfigurations at startup with a clear error instead
// of misbehaving hours into a run.
func (o options) validate() error {
	if !(o.alpha >= 0 && o.alpha <= 1) { // NaN too
		return fmt.Errorf("-alpha %v out of [0,1]", o.alpha)
	}
	if o.perBucket <= 0 {
		return fmt.Errorf("-bucket %d must be positive", o.perBucket)
	}
	if o.cache <= 0 {
		return fmt.Errorf("-cache %d must be positive", o.cache)
	}
	if o.shards <= 0 {
		return fmt.Errorf("-shards %d must be positive", o.shards)
	}
	if o.baseN <= 0 {
		return fmt.Errorf("-objects %d must be positive", o.baseN)
	}
	if o.rate < 0 {
		return fmt.Errorf("-rate %v must be non-negative", o.rate)
	}
	if o.sloP99 <= 0 {
		return fmt.Errorf("-slo-p99 %v must be positive", o.sloP99)
	}
	if o.queueDepth < 0 {
		return fmt.Errorf("-queue-depth %d must be non-negative", o.queueDepth)
	}
	if o.objectBytes < 0 {
		return fmt.Errorf("-object-bytes %d must be non-negative", o.objectBytes)
	}
	if o.objectBytes != 0 && o.dataDir == "" {
		return fmt.Errorf("-object-bytes only makes sense with -data-dir")
	}
	if o.traceSample <= 0 || o.traceSample > 1 {
		return fmt.Errorf("-trace-sample %v out of (0,1]", o.traceSample)
	}
	if _, err := parseTenants(o.tenants); err != nil {
		return err
	}
	if _, err := parsePeers(o.peers); err != nil {
		return err
	}
	return nil
}

// parseTenants parses "name:weight,name:weight" (weight optional).
func parseTenants(s string) ([]server.TenantConfig, error) {
	if s == "" {
		return nil, nil
	}
	var out []server.TenantConfig
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weightStr, hasWeight := strings.Cut(part, ":")
		if name == "" {
			return nil, fmt.Errorf("-tenants: empty tenant name in %q", s)
		}
		tc := server.TenantConfig{Name: name}
		if hasWeight {
			w, err := strconv.Atoi(weightStr)
			if err != nil || w < 1 {
				return nil, fmt.Errorf("-tenants: bad weight %q for tenant %q", weightStr, name)
			}
			tc.Weight = w
		}
		out = append(out, tc)
	}
	return out, nil
}

// parsePeers parses "name=addr,name=addr".
func parsePeers(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, addr, ok := strings.Cut(part, "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("-peers: %q is not name=addr", part)
		}
		out[name] = addr
	}
	return out, nil
}

// servingConfig builds the admission-control config when any serving flag
// is set; nil keeps the node transparent (the pre-serving behaviour).
// tenants is the already-parsed -tenants value.
func (o options) servingConfig(tenants []server.TenantConfig, reg *metric.Registry) *server.Config {
	if o.httpAddr == "" && o.rate == 0 && o.queueDepth == 0 && len(tenants) == 0 {
		return nil
	}
	return &server.Config{
		DefaultRate: o.rate,
		QueueDepth:  o.queueDepth,
		Tenants:     tenants,
		SLOP99:      o.sloP99,
		Registry:    reg,
	}
}

// derivedParams fixes the per-archive derivation so that every daemon in a
// federation agrees on each archive's content.
var derivedParams = map[string]struct {
	seedOffset int64
	fraction   float64
}{
	"twomass": {1, 0.8},
	"usnob":   {2, 0.7},
	"first":   {3, 0.3},
	"galex":   {4, 0.4},
	"rosat":   {5, 0.1},
}

func buildCatalog(archive string, baseN int, baseSeed int64, genLevel int) (*catalog.Catalog, error) {
	base, err := catalog.New(catalog.Config{
		Name: "sdss", N: baseN, Seed: baseSeed, GenLevel: genLevel, CacheTrixels: true,
	})
	if err != nil {
		return nil, err
	}
	if archive == "sdss" {
		return base, nil
	}
	p, ok := derivedParams[archive]
	if !ok {
		return nil, fmt.Errorf("unknown archive %q (sdss, twomass, usnob, first, galex, rosat)", archive)
	}
	return catalog.NewDerived(base, catalog.DerivedConfig{
		Name: archive, Seed: baseSeed + p.seedOffset, Fraction: p.fraction,
		JitterRad: geom.ArcsecToRad(1.5), CacheTrixels: true,
	})
}

// shutdownGrace bounds how long SIGTERM waits for in-flight HTTP requests
// on the gateway and the debug server together before the process exits.
const shutdownGrace = 15 * time.Second

// gatewayExec builds the /v1/query executor: parse SkyQL, compile to a
// federation plan, and execute it against the portal under the caller's
// tenant and deadline.
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

func run(o options) error {
	if err := o.validate(); err != nil {
		return err
	}
	// validate() already vetted both strings; parse once and reuse.
	tenants, err := parseTenants(o.tenants)
	if err != nil {
		return err
	}
	peers, err := parsePeers(o.peers)
	if err != nil {
		return err
	}
	reg := metric.NewRegistry()
	metric.RegisterProcess(reg)
	serving := o.servingConfig(tenants, reg)
	fmt.Printf("synthesizing archive %q (%d base objects, seed %d)...\n", o.archive, o.baseN, o.baseSeed)
	cat, err := buildCatalog(o.archive, o.baseN, o.baseSeed, o.genLevel)
	if err != nil {
		return err
	}
	var clk simclock.Clock = simclock.Real{}
	if o.virtual && o.dataDir == "" {
		clk = simclock.NewVirtual()
	}
	if o.dataDir != "" {
		// Build the segment store if it is missing before the node
		// opens (and validates) it — daemons synthesize their catalog
		// deterministically, so the store is reproducible from the
		// same flags. An existing store is left for the node's own
		// open-and-verify pass, not verified twice.
		if _, err := os.Stat(filepath.Join(o.dataDir, segment.ManifestName)); os.IsNotExist(err) {
			part, err := bucket.NewPartition(cat, o.perBucket, o.objectBytes)
			if err != nil {
				return err
			}
			start := time.Now()
			wst, err := segment.Write(o.dataDir, part, segment.WriteOptions{})
			if err != nil {
				return err
			}
			fmt.Printf("built segment store under %s: %d segments, %.1f MB in %v\n",
				o.dataDir, wst.Segments, float64(wst.Bytes)/1e6, time.Since(start).Round(time.Millisecond))
		} else if err != nil {
			return err
		} else {
			fmt.Printf("opening segment store under %s\n", o.dataDir)
		}
	}
	// One recorder serves the node, the gateway, and the debug server:
	// requests traced at the gateway and continuations started by remote
	// portals land in the same rings. Slow-query capture keys to the same
	// threshold the AIMD controller defends (-slo-p99).
	rec := trace.New(trace.Config{Now: clk.Now, SlowThreshold: o.sloP99, Sample: o.traceSample})
	node, err := federation.NewNode(federation.NodeConfig{
		Catalog: cat, ObjectsPerBucket: o.perBucket,
		Alpha: o.alpha, CacheBuckets: o.cache, Shards: o.shards, Clock: clk,
		Serving: serving, DataDir: o.dataDir, ObjectBytes: o.objectBytes,
		Metrics: core.NewEngineMetrics(reg), Tracer: rec,
	})
	if err != nil {
		return err
	}
	defer node.Close()
	srv, err := federation.Serve(node, o.addr)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("archive %q serving %d objects on %s (alpha=%.2f, shards=%d, admission=%v)\n",
		o.archive, cat.Total(), srv.Addr(), o.alpha, o.shards, serving != nil)

	var httpSrv *http.Server
	if o.httpAddr != "" {
		portal := federation.NewPortal()
		portal.Register(o.archive, federation.InProc{Node: node})
		var hops *federation.HopMetrics
		if len(peers) > 0 {
			hops = federation.NewHopMetrics(reg)
		}
		for name, addr := range peers {
			cli := federation.Dial(addr)
			cli.Instrument(hops, name)
			// Closed on the way out: the reader exits, and the peer
			// withdraws the matches still in flight on the connection.
			defer cli.Close()
			portal.Register(name, cli)
		}
		gw, err := server.NewGateway(server.GatewayConfig{
			Exec:     gatewayExec(portal),
			Server:   node.Serving(),
			Registry: reg,
			Tracer:   rec,
		})
		if err != nil {
			return err
		}
		// The gateway is internet-facing: bound every read/write so a
		// slow or stalled HTTP client cannot pin goroutines without
		// bound, matching the gob transport's stalled-peer hardening.
		httpSrv = &http.Server{
			Addr:              o.httpAddr,
			Handler:           gw,
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      10 * time.Minute, // long-running queries stream their rows
			IdleTimeout:       2 * time.Minute,
		}
		go func() {
			if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "liferaftd: http: %v\n", err)
			}
		}()
		fmt.Printf("HTTP gateway on %s (/v1/query, /v1/stats, /metrics, /healthz)\n", o.httpAddr)
	}

	var dbgSrv *http.Server
	if o.debugAddr != "" {
		mux := http.NewServeMux()
		th := rec.Handler()
		mux.Handle("/debug/traces", th)
		mux.Handle("/debug/traces/", th)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dbgSrv = &http.Server{
			Addr: o.debugAddr, Handler: mux,
			// Profiles stream for as long as asked (?seconds=N); only
			// bound the header read.
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := dbgSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "liferaftd: debug: %v\n", err)
			}
		}()
		fmt.Printf("debug server on %s (/debug/traces, /debug/pprof)\n", o.debugAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	// One deadline for both servers: without it a single stalled client
	// (the gateway's WriteTimeout is ten minutes) pins the exit.
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	for _, s := range []*http.Server{httpSrv, dbgSrv} {
		if s == nil {
			continue
		}
		if err := s.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "liferaftd: shutdown %s: %v\n", s.Addr, err)
		}
	}
	return nil
}
