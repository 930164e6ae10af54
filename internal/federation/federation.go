// Package federation reproduces the SkyQuery execution environment the
// paper targets (§1, §3; Malik et al., CIDR 2003): a portal accepts a
// cross-match query naming several archives, produces a serial left-deep
// join plan, and ships intermediate object lists from archive to archive
// until all are cross-matched. Each archive node runs its own LifeRaft
// engine and batches the cross-match workloads of concurrent queries
// independently (§6: "Our solution allows individual sites in a cluster or
// federation to batch queries independently").
//
// Two transports are provided: in-process (for tests, experiments, and
// embedding) and TCP with gob encoding (cmd/liferaftd, cmd/skyquery), which
// multiplexes one connection per peer so that a remote archive, too, sees
// the concurrent queries it is to batch.
package federation

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"liferaft/internal/bucket"
	"liferaft/internal/catalog"
	"liferaft/internal/core"
	"liferaft/internal/geom"
	"liferaft/internal/htm"
	"liferaft/internal/server"
	"liferaft/internal/simclock"
	"liferaft/internal/trace"
	"liferaft/internal/xmatch"
)

// Object is the wire form of a catalog object shipped between sites.
type Object struct {
	ID    uint64
	HTMID uint64
	X, Y  float64
	Z     float64
	Mag   float64
}

func fromCatalog(o catalog.Object) Object {
	return Object{ID: o.ID, HTMID: uint64(o.HTMID), X: o.Pos.X, Y: o.Pos.Y, Z: o.Pos.Z, Mag: o.Mag}
}

func (o Object) toCatalog() catalog.Object {
	return catalog.Object{ID: o.ID, HTMID: htm.ID(o.HTMID), Pos: geom.Vec3{X: o.X, Y: o.Y, Z: o.Z}, Mag: o.Mag}
}

// ExtractRequest asks an archive for its objects within a region — the
// first step of the plan, run at the driving archive.
type ExtractRequest struct {
	QueryID     uint64
	RA, Dec     float64 // degrees
	RadiusDeg   float64
	Selectivity float64 // fraction of region objects shipped, (0,1]
	Seed        int64   // subsampling seed
}

// ExtractResponse returns the region objects.
type ExtractResponse struct {
	Objects []Object
}

// MatchRequest ships an intermediate object list to an archive for
// cross-matching against its local catalog through its LifeRaft engine.
type MatchRequest struct {
	QueryID           uint64
	MatchRadiusArcsec float64
	// MagLo/MagHi optionally filter local counterparts; both zero means
	// no predicate.
	MagLo, MagHi float64
	Objects      []Object
	// Tenant identifies the client for the node's admission control;
	// empty means the default tenant. Ignored by nodes without a serving
	// layer (NodeConfig.Serving).
	Tenant string
	// TraceID, when non-zero, asks the node to record the cross-match
	// into a continuation of the caller's trace (NodeConfig.Tracer) and
	// return the spans in MatchResponse.Spans. Zero disables tracing for
	// the hop. Old peers ignore the field (gob skips unknown fields), so
	// the addition is wire-compatible.
	TraceID uint64
}

// MatchResponse returns the matches found at the archive.
type MatchResponse struct {
	// Pairs is the archive engine's answer as it found it: one (local,
	// shipped) match per element, Remote being the shipped object. An
	// in-process node hands over the query's own pair array, which the
	// caller then owns; nothing is copied on the way out.
	Pairs []xmatch.Pair
	// Elapsed is the node-side processing time (virtual or real,
	// depending on the node's clock).
	Elapsed time.Duration
	// Spans carries the node-side trace continuation when the request
	// asked for one (MatchRequest.TraceID): span times are nanosecond
	// offsets from the hop's start on the node's clock, so the caller can
	// stitch them onto its own time base (trace.Trace.Stitch) without the
	// two clocks sharing an epoch.
	Spans []trace.WireSpan
}

// Transport reaches one archive.
type Transport interface {
	// Archive returns the archive name served.
	Archive() (string, error)
	// Extract runs a region extraction.
	Extract(req ExtractRequest) (ExtractResponse, error)
	// Match runs a cross-match.
	Match(req MatchRequest) (MatchResponse, error)
}

// NodeConfig configures an archive node.
type NodeConfig struct {
	// Catalog is the node's local archive.
	Catalog *catalog.Catalog
	// ObjectsPerBucket partitions the archive (paper: 10,000).
	ObjectsPerBucket int
	// Alpha and CacheBuckets are the policy knobs of the node's LifeRaft
	// engine; NewNode builds its store, disk and clock.
	Alpha        float64
	CacheBuckets int
	// Shards runs the node's engine across K independent disk/worker
	// shards (see core.Config.Shards); 0 or 1 is one shard of the same
	// engine. Each site in a federation shards independently, exactly
	// as each site batches independently.
	Shards int
	// Clock is the node's time source: virtual clocks make node-side
	// cost charging instantaneous (tests, experiments); nil means the
	// real clock (deployments).
	Clock simclock.Clock
	// Serving, when non-nil, puts a multi-tenant serving layer —
	// per-tenant rate limits, deficit-round-robin fair queueing, and
	// bounded queues with backpressure — between the transports and the
	// engine (see internal/server). MatchRequest.Tenant selects the
	// tenant; rejected queries surface *server.OverloadError.
	Serving *server.Config
	// DataDir, when non-empty, serves this node's buckets from the
	// segment store under it (built beforehand; see segment.Ensure and
	// skygen -write-segments) instead of the analytic disk model. The
	// engine then does real I/O on the real clock, so Clock must be nil
	// or the real clock: NewNode refuses a virtual one.
	DataDir string
	// ObjectBytes is the on-disk size per object for the node's
	// partition (0 = the paper's 4 KiB). A file-backed node's segment
	// store must have been written with the same value.
	ObjectBytes int64
	// Metrics, when non-nil, instruments the node's engine on that
	// registry (pick latency, cache hit/miss, store reads, per-shard);
	// pair it with Serving.Registry to cover the request path end to
	// end. One EngineMetrics must not be shared across nodes — each node
	// needs its own registry.
	Metrics *core.EngineMetrics
	// Tracer, when non-nil, lets remote callers continue their traces on
	// this node: a MatchRequest with a TraceID gets a node-side trace
	// continuation whose spans return in MatchResponse.Spans (and land in
	// this node's own /debug/traces rings under the caller's trace ID).
	Tracer *trace.Recorder
}

// Node is one archive site: a catalog, its bucket partition, and a live
// LifeRaft engine batching concurrent cross-match requests — optionally
// behind a multi-tenant serving layer.
type Node struct {
	name    string
	cat     *catalog.Catalog
	part    *bucket.Partition
	store   *bucket.Store // closed on Close (releases a file backend)
	engine  *core.Live
	serving *server.Server  // nil without NodeConfig.Serving
	tracer  *trace.Recorder // nil without NodeConfig.Tracer

	mu     sync.Mutex
	nextID uint64
}

// NewNode builds and starts an archive node.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Catalog == nil {
		return nil, fmt.Errorf("federation: NodeConfig.Catalog is required")
	}
	if cfg.ObjectsPerBucket <= 0 {
		return nil, fmt.Errorf("federation: ObjectsPerBucket must be positive")
	}
	part, err := bucket.NewPartition(cfg.Catalog, cfg.ObjectsPerBucket, cfg.ObjectBytes)
	if err != nil {
		return nil, err
	}
	clk := cfg.Clock
	if clk == nil {
		clk = simclock.Real{}
	}
	var ecfg core.Config
	if cfg.DataDir == "" {
		ecfg = core.NewOn(part, cfg.Alpha, true, clk)
	} else if _, virtual := clk.(*simclock.Virtual); virtual {
		return nil, fmt.Errorf("federation: a DataDir node does real I/O and must run on the real clock, not a virtual one")
	} else if ecfg, err = core.NewFileBacked(part, cfg.Alpha, true, cfg.DataDir); err != nil {
		return nil, err
	}
	if cfg.CacheBuckets > 0 {
		ecfg.CacheBuckets = cfg.CacheBuckets
	}
	ecfg.Shards = cfg.Shards
	ecfg.Metrics = cfg.Metrics
	eng, err := core.NewLive(ecfg)
	if err != nil {
		ecfg.Store.Close()
		return nil, err
	}
	n := &Node{name: cfg.Catalog.Name(), cat: cfg.Catalog, part: part, store: ecfg.Store, engine: eng, tracer: cfg.Tracer}
	if cfg.Serving != nil {
		srv, err := server.New(eng, *cfg.Serving)
		if err != nil {
			eng.Close()
			ecfg.Store.Close()
			return nil, err
		}
		n.serving = srv
	}
	return n, nil
}

// Close drains the serving layer (if any), shuts the node's engine down
// after draining, then releases the store (a file-backed node's segment
// handles).
func (n *Node) Close() error {
	var err error
	if n.serving != nil {
		err = n.serving.Close()
	}
	if cerr := n.engine.Close(); err == nil {
		err = cerr
	}
	if cerr := n.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// Serving returns the node's serving layer, nil for nodes built without
// one (the HTTP gateway backs /v1/stats with it).
func (n *Node) Serving() *server.Server { return n.serving }

// Name returns the archive name.
func (n *Node) Name() string { return n.name }

// extractScratch recycles the catalog objects an extraction collects before
// it knows how many survive the sample: they are converted to wire objects
// and never leave Extract.
var extractScratch = sync.Pool{New: func() any { return new([]catalog.Object) }}

// Extract implements the driving-archive region scan.
func (n *Node) Extract(req ExtractRequest) (ExtractResponse, error) {
	if !(req.Selectivity > 0 && req.Selectivity <= 1) {
		return ExtractResponse{}, fmt.Errorf("federation: selectivity %v out of (0,1]", req.Selectivity)
	}
	if !positiveFinite(req.RadiusDeg) {
		return ExtractResponse{}, fmt.Errorf("federation: radius %v is not a positive finite number of degrees", req.RadiusDeg)
	}
	if math.IsNaN(req.RA) || math.IsInf(req.RA, 0) || math.IsNaN(req.Dec) || math.IsInf(req.Dec, 0) {
		return ExtractResponse{}, fmt.Errorf("federation: region centre (%v, %v) is not finite", req.RA, req.Dec)
	}
	cap := geom.NewCap(geom.FromRaDec(req.RA, req.Dec), geom.Radians(req.RadiusDeg))
	// Collect and sample in pooled scratch, this call's own until it is
	// put back; the one allocation is the wire slice, at exactly its size.
	scratch := extractScratch.Get().(*[]catalog.Object)
	defer extractScratch.Put(scratch)
	in := n.cat.AppendInCap((*scratch)[:0], cap)
	*scratch = in[:0]
	if req.Selectivity < 1 {
		in = slices.DeleteFunc(in, func(o catalog.Object) bool {
			return !catalog.Keep(req.Seed, req.QueryID, o.ID, req.Selectivity)
		})
	}
	var out []Object
	if len(in) > 0 { // an empty extraction stays nil, as gob delivers it
		out = make([]Object, len(in))
	}
	for i, o := range in {
		out[i] = fromCatalog(o)
	}
	return ExtractResponse{Objects: out}, nil
}

// MatchCtx implements the cross-match step: the shipped objects become a
// LifeRaft job; the node's engine batches it with other in-flight queries.
// When ctx expires before the cross-match completes, the query is
// withdrawn all the way into the engine's workload queues (abandoned work
// stops consuming schedule slots) and ctx.Err() is returned. On a node
// with a serving layer, the request passes admission control first:
// rejected queries surface *server.OverloadError without ever reaching
// the engine.
func (n *Node) MatchCtx(ctx context.Context, req MatchRequest) (MatchResponse, error) {
	if !positiveFinite(req.MatchRadiusArcsec) {
		return MatchResponse{}, fmt.Errorf("federation: match radius %v is not a positive finite number of arcseconds", req.MatchRadiusArcsec)
	}
	if err := checkMagWindow(req.MagLo, req.MagHi); err != nil {
		return MatchResponse{}, err
	}
	// Fail fast on a dead context: on a virtual clock the engine could
	// otherwise complete the whole job before a cancel reaches it.
	if err := ctx.Err(); err != nil {
		return MatchResponse{}, fmt.Errorf("federation: node %s: query %d: %w", n.name, req.QueryID, err)
	}
	radius := geom.ArcsecToRad(req.MatchRadiusArcsec)
	// A trace reaches this node one of two ways: an in-process caller
	// carries it in ctx (its spans record straight into the caller's
	// trace), while a remote caller names it by ID and gets a node-side
	// continuation on this node's own recorder — finished here so the hop
	// lands in this node's forensics rings under the caller's trace ID,
	// with its spans shipped back in MatchResponse.Spans for stitching.
	tr := trace.FromContext(ctx)
	remote := false
	if tr == nil && req.TraceID != 0 && n.tracer != nil {
		tr = n.tracer.StartRemote(trace.ID(req.TraceID), req.Tenant, req.QueryID)
		if tr != nil {
			remote = true
			ctx = trace.NewContext(ctx, tr)
			defer n.tracer.Finish(tr)
		}
	}
	// Engine job IDs are node-local: remote query IDs from different
	// portals may collide.
	n.mu.Lock()
	n.nextID++
	jobID := n.nextID
	n.mu.Unlock()

	// The workload objects are pooled: the engine reads them until every
	// shard has admitted the job, and the serving layer relays a result
	// only after the engine delivers it, so once the channel has delivered
	// nothing reads them any more.
	wp := workloadPool.Get().(*[]xmatch.WorkloadObject)
	wos := slices.Grow((*wp)[:0], len(req.Objects))[:len(req.Objects)]
	*wp = wos
	for i, o := range req.Objects {
		// A peer's object is checked before its error circle is covered: a
		// position that is no point of the sphere has no cover to find.
		obj := o.toCatalog()
		if !obj.Pos.IsUnit() {
			workloadPool.Put(wp)
			return MatchResponse{}, fmt.Errorf("federation: node %s: shipped object %d: position %v is not a finite unit vector", n.name, o.ID, obj.Pos)
		}
		wos[i] = xmatch.NewWorkloadObject(jobID, obj, radius)
	}
	var pred xmatch.Predicate
	if req.MagLo != 0 || req.MagHi != 0 {
		pred = xmatch.MagnitudeWindow(req.MagLo, req.MagHi)
	}
	job := core.Job{ID: jobID, Objects: wos, Pred: pred, Trace: tr}
	start := time.Now()
	var (
		ch  <-chan core.Result
		err error
	)
	if n.serving != nil {
		tenant := req.Tenant
		if tenant == "" {
			tenant = "default"
		}
		ch, err = n.serving.Submit(ctx, tenant, job)
	} else {
		ch, err = n.engine.SubmitCtx(ctx, job)
	}
	if err != nil {
		workloadPool.Put(wp) // a refused job was queued nowhere
		return MatchResponse{}, fmt.Errorf("federation: node %s: %w", n.name, err)
	}
	res, ok := <-ch
	if !ok {
		// A closing engine may not have let go of the objects: leave them
		// to the collector.
		return MatchResponse{}, fmt.Errorf("federation: node %s dropped query", n.name)
	}
	workloadPool.Put(wp)
	if res.Cancelled {
		if err := ctx.Err(); err != nil {
			return MatchResponse{}, fmt.Errorf("federation: node %s: query %d: %w", n.name, req.QueryID, err)
		}
		return MatchResponse{}, fmt.Errorf("federation: node %s: query %d cancelled", n.name, req.QueryID)
	}
	resp := MatchResponse{Pairs: res.Pairs, Elapsed: time.Since(start)}
	if remote {
		resp.Spans = tr.Wire()
	}
	return resp, nil
}

// workloadPool recycles the workload objects MatchCtx builds for the engine.
var workloadPool = sync.Pool{New: func() any { return new([]xmatch.WorkloadObject) }}

// positiveFinite reports whether x is a usable radius: above zero, below
// infinity, and not NaN.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// checkMagWindow refuses a magnitude bound that is not a finite number: a
// NaN bound fails every comparison, so the window would silently match
// nothing.
func checkMagWindow(lo, hi float64) error {
	if math.IsNaN(lo) || math.IsInf(lo, 0) {
		return fmt.Errorf("federation: magnitude bound MagLo %v is not a finite number", lo)
	}
	if math.IsNaN(hi) || math.IsInf(hi, 0) {
		return fmt.Errorf("federation: magnitude bound MagHi %v is not a finite number", hi)
	}
	return nil
}

// Query is a federation cross-match query as the portal accepts it.
type Query struct {
	ID                uint64
	RA, Dec           float64 // region center, degrees
	RadiusDeg         float64
	MatchRadiusArcsec float64
	// Archives lists the archives to cross-match; the first is the
	// driving archive of the left-deep plan.
	Archives []string
	// Selectivity is the shipped fraction at the driving archive.
	Selectivity float64
	// MagLo/MagHi optionally constrain every matched archive's objects.
	MagLo, MagHi float64
	// Seed drives deterministic subsampling.
	Seed int64
	// Tenant identifies the submitting client to each archive's
	// admission control (empty = default tenant).
	Tenant string
}

// ResultSet is the portal's answer.
type ResultSet struct {
	Rows Rows
	// HopElapsed records per-archive processing time in plan order.
	HopElapsed map[string]time.Duration
	// Shipped records how many objects were sent to each archive.
	Shipped map[string]int
}

// Portal plans and executes federation queries.
type Portal struct {
	mu    sync.Mutex
	sites map[string]Transport
}

// NewPortal returns an empty portal.
func NewPortal() *Portal { return &Portal{sites: make(map[string]Transport)} }

// Register adds an archive transport. Registering a name twice replaces
// the previous transport.
func (p *Portal) Register(name string, t Transport) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sites[name] = t
}

// Archives returns the registered archive names, sorted.
func (p *Portal) Archives() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.sites))
	for n := range p.sites {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (p *Portal) site(name string) (Transport, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.sites[name]
	if !ok {
		return nil, fmt.Errorf("federation: unknown archive %q", name)
	}
	return t, nil
}

// ContextTransport is the optional extension of Transport for carrying a
// deadline/cancellation context across a cross-match hop; InProc and the
// TCP Client implement it. ExecuteCtx uses it when present and falls back
// to the plain Match otherwise.
type ContextTransport interface {
	MatchCtx(ctx context.Context, req MatchRequest) (MatchResponse, error)
}

// contextExtractor is a site whose extraction waits under a context: the
// TCP Client. ExecuteCtx uses it when present, as it uses MatchCtx; an
// in-process extraction does not wait on anything.
type contextExtractor interface {
	ExtractCtx(ctx context.Context, req ExtractRequest) (ExtractResponse, error)
}

// ExecuteCtx runs the serial left-deep plan: extract at the driving
// archive, then cross-match the surviving tuple frontier at each
// subsequent archive, shipping intermediate results site to site (paper
// §3: "intermediate join results are shipped from database to database
// until all archives are cross-matched"). The caller's context is
// threaded through every hop: when ctx expires, the in-flight hop's query
// is cancelled at its archive (dropping its remaining workload objects
// from that node's queues) and the plan aborts.
func (p *Portal) ExecuteCtx(ctx context.Context, q Query) (*ResultSet, error) {
	if len(q.Archives) < 2 {
		return nil, fmt.Errorf("federation: cross-match needs >= 2 archives, got %d", len(q.Archives))
	}
	if !positiveFinite(q.MatchRadiusArcsec) {
		return nil, fmt.Errorf("federation: match radius %v is not a positive finite number of arcseconds", q.MatchRadiusArcsec)
	}
	if err := checkMagWindow(q.MagLo, q.MagHi); err != nil {
		return nil, err
	}
	// The caller's trace (if any) rides in ctx: the extraction and every
	// hop get a portal-side span, and each hop's node-side spans are
	// stitched in, so one capture shows the whole left-deep plan.
	tr := trace.FromContext(ctx)
	driving := q.Archives[0]
	site, err := p.site(driving)
	if err != nil {
		return nil, err
	}
	stepStart := tr.Now()
	ereq := ExtractRequest{
		QueryID: q.ID, RA: q.RA, Dec: q.Dec, RadiusDeg: q.RadiusDeg,
		Selectivity: q.Selectivity, Seed: q.Seed,
	}
	var ext ExtractResponse
	if ce, ok := site.(contextExtractor); ok {
		ext, err = ce.ExtractCtx(ctx, ereq)
	} else {
		ext, err = site.Extract(ereq)
	}
	if err != nil {
		tr.Add(trace.Span{Stage: trace.StageFedExtract, Node: driving,
			Start: stepStart, End: tr.Now(), Err: err.Error()})
		return nil, fmt.Errorf("federation: extract at %s: %w", driving, err)
	}
	tr.Add(trace.Span{Stage: trace.StageFedExtract, Node: driving,
		Start: stepStart, End: tr.Now(), N: int64(len(ext.Objects))})

	rs := &ResultSet{HopElapsed: map[string]time.Duration{}, Shipped: map[string]int{}}
	// Live tuples are flat object chains: tuple t is chains[t*width :
	// (t+1)*width], one object per archive joined so far in plan order. Its
	// last object is the tuple's frontier — what the next archive must
	// match against. An intermediate hop builds the next hop's chains; the
	// last builds none, and each row is a view of a tuple and a pair.
	width := 1
	chains := ext.Objects
	if chains == nil {
		chains = []Object{} // an empty extraction answers [], a hop without pairs null
	}
	var scratch []Object // backs a frontier that has to be copied to ship, reused across hops

	for hop, archive := range q.Archives[1:] {
		if len(chains) == 0 {
			if chains != nil {
				rs.Rows = Rows{}
			}
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("federation: plan aborted before %s: %w", archive, err)
		}
		site, err := p.site(archive)
		if err != nil {
			return nil, err
		}
		// Ship the frontier sorted by object ID, one object per ID. An
		// extraction in ascending ID order, which is how a catalog lists a
		// region, is that already and ships in place. Otherwise: taken last
		// tuple first and sorted stably, the copy of an ID that survives is
		// the last tuple's, should copies ever differ.
		shipped := chains
		if width > 1 || !ascendingIDs(chains) {
			shipped = scratch[:0]
			for t := len(chains) - 1; t >= 0; t -= width {
				shipped = append(shipped, chains[t])
			}
			slices.SortStableFunc(shipped, func(a, b Object) int { return cmp.Compare(a.ID, b.ID) })
			shipped = slices.CompactFunc(shipped, func(a, b Object) bool { return a.ID == b.ID })
			scratch = shipped
		}
		rs.Shipped[archive] = len(shipped)

		mreq := MatchRequest{
			QueryID: q.ID, MatchRadiusArcsec: q.MatchRadiusArcsec,
			MagLo: q.MagLo, MagHi: q.MagHi, Objects: shipped, Tenant: q.Tenant,
			TraceID: uint64(tr.ID()),
		}
		stepStart = tr.Now()
		var resp MatchResponse
		if ct, ok := site.(ContextTransport); ok {
			resp, err = ct.MatchCtx(ctx, mreq)
		} else {
			resp, err = site.Match(mreq)
		}
		if err != nil {
			// A failed hop — a silent peer, a timeout, an overloaded node —
			// annotates the trace instead of dropping it: the capture shows
			// which archive the plan died at and after how long.
			tr.Add(trace.Span{Stage: trace.StageFedMatch, Node: archive,
				Start: stepStart, End: tr.Now(), N: int64(len(shipped)), Err: err.Error()})
			return nil, fmt.Errorf("federation: match at %s: %w", archive, err)
		}
		tr.Add(trace.Span{Stage: trace.StageFedMatch, Node: archive,
			Start: stepStart, End: tr.Now(), N: int64(len(shipped))})
		// A TCP hop returns the node-side continuation as offsets from the
		// hop start; rebase them onto this trace's clock. An in-process hop
		// recorded straight into tr (Spans is empty).
		tr.Stitch(archive, stepStart, resp.Spans)
		rs.HopElapsed[archive] = resp.Elapsed

		// Join: each tuple whose frontier object matched extends by the
		// local counterpart(s), in pair order; tuples without matches are
		// dropped. order lists the pairs grouped by shipped object. At
		// least one tuple per pair survives; no pairs leaves next, or at
		// the last hop the rows, nil.
		pairs := resp.Pairs
		order := make([]int32, len(pairs))
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortFunc(order, func(a, b int32) int {
			if c := cmp.Compare(pairs[a].Remote.ID, pairs[b].Remote.ID); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		last := hop == len(q.Archives)-2
		var (
			next []Object
			set  *rowSet
		)
		switch {
		case len(pairs) == 0:
		case last:
			set = newRowSet(q.Archives, chains, width, pairs)
			rs.Rows = make(Rows, 0, len(pairs))
		default:
			next = make([]Object, 0, len(pairs)*(width+1))
		}
		for t := 0; t < len(chains)/width; t++ {
			chain := chains[t*width : (t+1)*width]
			id := chain[width-1].ID
			k, _ := slices.BinarySearchFunc(order, id, func(i int32, id uint64) int {
				return cmp.Compare(pairs[i].Remote.ID, id)
			})
			for ; k < len(order) && pairs[order[k]].Remote.ID == id; k++ {
				if last {
					rs.Rows = append(rs.Rows, Row{set: set, t: int32(t), k: order[k]})
					continue
				}
				next = append(next, chain...)
				next = append(next, fromCatalog(pairs[order[k]].Local))
			}
		}
		chains, width = next, width+1
	}
	return rs, nil
}

// ascendingIDs reports whether every object's ID is below its successor's.
func ascendingIDs(objs []Object) bool {
	for i := 1; i < len(objs); i++ {
		if objs[i-1].ID >= objs[i].ID {
			return false
		}
	}
	return true
}
