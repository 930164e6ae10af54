package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"liferaft/internal/shard"
	"liferaft/internal/simclock"
)

// Live runs the LifeRaft scheduler as a long-lived service: queries are
// submitted concurrently and results delivered on per-query channels.
//
// Live is the front end of K = max(1, Config.Shards) shard workers. It owns
// the shard map, the fan-out, the merge, and the lifecycle (the one closed
// check); each worker owns one forked clock, disk, store, and bucket cache
// and runs the scheduling loop exclusively over its own workload queues,
// picking and reading one bucket at a time as the paper's architecture
// prescribes ("buckets are read from disk by scheduler one at a time", §3).
// On a real clock what a pick executes need not stay on one arm: a scan
// service whose queue fills two parts of servicePartUnits is cut into
// parts, and a sibling worker with nothing of its own to do joins some of
// them, charging their match time to its own disk, until its own inbox has
// work again. The owner waits for every part, so a service still ends once,
// with the pairs it would have had alone.
// SubmitCtx counts the query's workload objects by the shards owning the
// buckets they overlap and never blocks on in-progress bucket services. It
// copies none of them: every touched shard is handed the caller's
// Job.Objects, read-only, and queues what falls in its own buckets; a
// materializing query's pairs go into one array SubmitCtx allocates from those
// counts, each shard appending to its own region of it (fanIn). The worker
// that finishes the query's last shard sums the counters, closes the gaps
// between the regions and resolves the caller's channel. SetAlpha and
// Cancel broadcast to every shard. One shard is the paper's single-disk
// engine.
//
// Live is the deployment form a federation node uses (see the federation
// package), and the one engine driver: Run replays a trace through it,
// pushing each shard's share onto that shard's arrival queue instead of
// its inbox. On a virtual clock no service is split, so a replay is
// deterministic at every K.
type Live struct {
	clock       simclock.Clock
	smap        *shard.Map
	materialize bool     // the Store materializes: queries get a pair array
	cfgs        []Config // forked per-shard configs; Close releases their stores
	workers     []*shardWorker

	// Merged query counts, bumped by the worker resolving a query. Atomics,
	// not mu: a worker must never wait on a lock SubmitCtx holds while sending
	// to that worker's inbox.
	completed atomic.Int64
	cancelled atomic.Int64
	obs       frontObs // zero without Config.Metrics

	closeOnce sync.Once
	mu        sync.Mutex
	closed    bool
	stats     RunStats
	statsOK   bool
}

// shardWorker is one shard's scheduling goroutine: its inbox, its arrival
// queue, its shutdown handshake, and the statistics it leaves behind (valid
// once done closes).
type shardWorker struct {
	inbox chan submission
	// arrivals is a trace replay's share of work for this shard (Run), each
	// submission due at its arrival instant and admitted at it; filled
	// before the worker starts and empty on a serving engine.
	arrivals simclock.EventQueue[submission]
	closing  chan struct{}
	done     chan struct{}
	stats    RunStats

	// offers wakes this worker from an idle wait when a sibling has split
	// a service (one channel for the whole engine; nil at K = 1 and on a
	// virtual clock), and siblings are the records it then looks for parts
	// in.
	offers   <-chan struct{}
	siblings []*forkJoin
}

type submission struct {
	job Job
	// m is where the worker delivers its shard's result for the query.
	m *merge
	// setAlpha, when non-nil, is a control message instead of a query:
	// the scheduling loop updates its age bias (the §4 adaptive knob).
	setAlpha *float64
	// cancel, when non-nil, is a control message withdrawing an in-flight
	// query: its remaining workload objects are dropped from the queues
	// and its waiter receives a Result with Cancelled set. The inbox is
	// FIFO, so a cancel always follows the submission it refers to.
	cancel *uint64
}

// merge is one in-flight query's fan-in. Each shard the query fanned out
// to delivers into its own part; the worker delivering the last one merges
// them (fanIn.result) and resolves the caller's channel. No goroutine relays
// a result.
type merge struct {
	fanIn
	l    *Live
	out  chan Result
	left atomic.Int32
	// stop releases the context.AfterFunc registration that cancels the
	// query when its context expires; nil for uncancellable contexts.
	stop func() bool
}

// deliver files shard s's result for the query.
func (m *merge) deliver(s int, r Result) {
	m.parts[s].res = r
	if m.left.Add(-1) > 0 {
		return
	}
	if m.stop != nil {
		m.stop()
	}
	res := m.result()
	m.l.resolved(res.Cancelled)
	m.out <- res
	close(m.out)
}

// resolved counts one whole query leaving the engine.
func (l *Live) resolved(cancelled bool) {
	n, exported := &l.completed, l.obs.completed
	if cancelled {
		n, exported = &l.cancelled, l.obs.cancelled
	}
	n.Add(1)
	if exported != nil {
		exported.Inc()
	}
}

// Clock returns the engine's time source: the clock of its Config's
// Store's disk.
func (l *Live) Clock() simclock.Clock { return l.clock }

// ErrClosed is returned by SubmitCtx after Close.
var ErrClosed = errors.New("core: live engine closed")

// NewLive starts a live engine: one scheduling goroutine per shard. The
// returned engine must be Closed to release them.
func NewLive(cfg Config) (*Live, error) {
	l, scheds, err := newLive(cfg)
	if err != nil {
		return nil, err
	}
	l.start(scheds)
	return l, nil
}

// newLive builds an engine whose workers are not yet running; start runs
// them on scheds. Until then the caller owns the forked stores
// (closeForked(l.cfgs)).
//
// On a virtual clock no service is split: a sibling's part claim races the
// owner in wall time, which no replay reproduces, so the workers get no
// siblings and every shard keeps a schedule of its own.
func newLive(cfg Config) (*Live, []*scheduler, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	m, err := shard.NewMap(cfg.Store.Partition(), cfg.Shards)
	if err != nil {
		return nil, nil, err
	}
	cfgs, err := forkConfigs(cfg, m)
	if err != nil {
		return nil, nil, err
	}
	scheds := make([]*scheduler, len(cfgs))
	for s, sc := range cfgs {
		if scheds[s], err = newScheduler(sc); err != nil {
			closeForked(cfgs)
			return nil, nil, err
		}
	}
	l := &Live{clock: cfg.clock(), smap: m, materialize: cfg.Store.Materializing(), cfgs: cfgs}
	if cfg.Metrics != nil {
		l.obs = cfg.Metrics.front()
	}
	_, virtual := l.clock.(*simclock.Virtual)
	l.workers = newWorkers(scheds, !virtual)
	return l, scheds, nil
}

// start runs one scheduling goroutine per worker.
func (l *Live) start(scheds []*scheduler) {
	for s, w := range l.workers {
		go w.loop(l.cfgs[s], scheds[s], l.clock)
	}
}

// newWorkers returns one worker per scheduler, not yet running. With split
// it makes siblings of them: every scheduler can wake the others' workers,
// and every worker knows the others' fork-join records.
func newWorkers(scheds []*scheduler, split bool) []*shardWorker {
	var offers chan struct{}
	if split && len(scheds) > 1 {
		// One wake-up for each worker that could be idle while another
		// splits a service.
		offers = make(chan struct{}, len(scheds)-1)
	}
	workers := make([]*shardWorker, len(scheds))
	for s, sched := range scheds {
		w := &shardWorker{
			// Deep enough that a burst of submissions lands without the
			// front end waiting out the shard's current bucket service.
			inbox:   make(chan submission, 1024),
			closing: make(chan struct{}),
			done:    make(chan struct{}),
			offers:  offers,
		}
		sched.offers = offers
		for o, other := range scheds {
			if offers != nil && o != s {
				w.siblings = append(w.siblings, &other.fj)
			}
		}
		workers[s] = w
	}
	return workers
}

// newMerge lays job out over the engine's shards (newFanIn) and reports how
// many it touches.
func (l *Live) newMerge(job Job) (*merge, int) {
	m := &merge{l: l, out: make(chan Result, 1)}
	var width int
	m.fanIn, width = newFanIn(l.smap.Fanout(job.Objects), l.materialize)
	m.left.Store(int32(width))
	return m, width
}

// SubmitCtx enqueues a query. The returned channel delivers exactly one
// Result when the query completes, then closes. When ctx expires before
// the query completes, the query is cancelled — its remaining workload
// objects are dropped from the queues so an abandoned query stops
// consuming workload slots — and the channel delivers a Result with
// Cancelled set (carrying the partial work done before the cancel). If
// the engine is closing by then, the query drains to its uncancelled
// result instead.
func (l *Live) SubmitCtx(ctx context.Context, job Job) (<-chan Result, error) {
	m, width := l.newMerge(job)

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, ErrClosed
	}
	if l.obs.fanout != nil {
		l.obs.fanout.Observe(float64(width))
	}
	if width == 0 {
		// No bucket overlaps anywhere: complete immediately.
		l.resolved(false)
		l.mu.Unlock()
		now := l.clock.Now()
		m.out <- Result{QueryID: job.ID, Arrived: now, Completed: now}
		close(m.out)
		return m.out, nil
	}
	if ctx.Done() != nil {
		// Registered before the fan-out so the resolving worker sees stop;
		// the cancel itself needs l.mu, so it still lands behind the
		// submissions below in every inbox.
		id := job.ID
		m.stop = context.AfterFunc(ctx, func() { l.Cancel(id) })
	}
	for s := range m.parts {
		if m.parts[s].share == 0 {
			continue
		}
		//lifevet:allow lockdiscipline -- the sends deliberately happen inside l.mu: the closed check and the fan-out must be one atomic step against Close, and every worker drains its inbox until closing, so each send bounds in one shard step
		l.workers[s].inbox <- submission{job: m.job(job, s), m: m}
	}
	l.mu.Unlock()
	return m.out, nil
}

// Cancel withdraws an in-flight query by ID: its remaining workload
// objects are dropped from the queues and its result channel delivers a
// Result with Cancelled set. Cancelling an unknown or already completed
// query is a no-op. The cancel is broadcast to every shard; shards that
// already finished their part (or never had one) ignore it, and the merged
// result is marked Cancelled if any shard cancelled.
func (l *Live) Cancel(id uint64) error {
	return l.broadcast(submission{cancel: &id})
}

// SetAlpha changes the engine's age bias for all subsequent scheduling
// decisions (clamped to [0, 1]; NaN is refused, since it would make every
// Eq. 2 score NaN). This is the knob the paper's §4 adaptive tuning turns
// as workload saturation changes (Tuner.Alpha of a SaturationEstimator's
// Rate; examples/saturation shows the loop).
func (l *Live) SetAlpha(alpha float64) error {
	if math.IsNaN(alpha) {
		return fmt.Errorf("core: alpha %v is not a number", alpha)
	}
	alpha = min(max(alpha, 0), 1)
	return l.broadcast(submission{setAlpha: &alpha})
}

// broadcast sends a control message to every shard, atomically against
// Close and in the same order relative to other broadcasts on every shard.
func (l *Live) broadcast(ctl submission) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	for _, w := range l.workers {
		//lifevet:allow lockdiscipline -- same atomic closed-check-and-enqueue pattern as SubmitCtx: each worker drains its inbox until closing
		w.inbox <- ctl
	}
	return nil
}

// Close stops accepting queries, waits for all submitted queries to
// complete, shuts the scheduling loops down, and snapshots the merged
// statistics. It is idempotent.
func (l *Live) Close() error {
	l.closeOnce.Do(func() {
		l.mu.Lock()
		l.closed = true
		l.mu.Unlock()
		for _, w := range l.workers {
			close(w.closing)
		}
		for _, w := range l.workers {
			<-w.done
		}
		// Every worker drained before exiting, so every merge resolved.
		stats := mergeShardStats(l.smap, func(s int) (RunStats, int) {
			st := l.workers[s].stats
			return st, st.Completed
		})
		stats.Completed = int(l.completed.Load())
		stats.Cancelled = int(l.cancelled.Load())
		closeForked(l.cfgs)
		l.mu.Lock()
		l.stats, l.statsOK = stats, true
		l.mu.Unlock()
	})
	return nil
}

// Stats returns the run statistics accumulated up to Close. It is only
// valid after Close returns.
func (l *Live) Stats() (RunStats, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats, l.statsOK
}

// help runs parts of sibling shards' split services on this worker's own
// arm — s's clock and disk — for as long as any are unclaimed and its own
// inbox stays empty, and reports whether it ran one. Called only with no
// work pending on s, so its own shard waits one part at most.
func (w *shardWorker) help(s *scheduler) (helped bool) {
	for _, fj := range w.siblings {
		for len(w.inbox) == 0 {
			i, ok := fj.claim()
			if !ok {
				break
			}
			fj.run(i, s.cfg.clock(), s.cfg.Store.Disk())
			helped = true
			if s.obs != nil {
				s.obs.partsHelp.Inc()
			}
		}
	}
	if helped {
		s.observeLedger()
	}
	return helped
}

// loop is one shard's scheduling loop: it owns s exclusively. parent is
// the clock the shard's clock was forked from.
func (w *shardWorker) loop(cfg Config, s *scheduler, parent simclock.Clock) {
	defer close(w.done)
	clk := cfg.clock()
	start := clk.Now()
	waiters := make(map[uint64]*merge)
	completed := 0

	deliver := func(rs []Result) {
		for _, r := range rs {
			if !r.Cancelled {
				completed++
				if s.obs != nil {
					s.obs.completed.Inc()
				}
			}
			if m := waiters[r.QueryID]; m != nil {
				m.deliver(cfg.shardIndex, r)
				delete(waiters, r.QueryID)
			}
		}
		if s.obs != nil && len(rs) > 0 {
			if el := clk.Now().Sub(start).Seconds(); el > 0 {
				s.obs.vqps.Set(float64(completed) / el)
			}
		}
	}
	admit := func(sub submission, at time.Time) {
		if sub.setAlpha != nil {
			s.cfg.Alpha = *sub.setAlpha
			return
		}
		if sub.cancel != nil {
			if r := s.cancel(*sub.cancel, at); r != nil {
				deliver([]Result{*r})
			}
			return
		}
		waiters[sub.job.ID] = sub.m
		if r := s.admit(sub.job, at); r != nil {
			deliver([]Result{*r})
		}
	}
	drainInbox := func() {
		for {
			select {
			case sub := <-w.inbox:
				admit(sub, clk.Now())
			default:
				return
			}
		}
	}

	closing := false
	for {
		// step reads the clock here, before any admission below charges
		// spill writes to it.
		now := clk.Now()
		for _, ev := range w.arrivals.PopUntil(now) {
			admit(ev.Value, ev.At)
		}
		drainInbox()
		if !s.pendingWork() {
			if at, ok := w.arrivals.PeekTime(); ok {
				// Idle until the replay's next arrival.
				clk.Sleep(at.Sub(now))
				continue
			}
			if closing {
				// Definitive drain check: nothing pending and the
				// inbox is empty after the closing signal.
				select {
				case sub := <-w.inbox:
					admit(sub, clk.Now())
					continue
				default:
				}
				break
			}
			if w.help(s) {
				continue
			}
			select {
			case sub := <-w.inbox:
				admit(sub, clk.Now())
			case <-w.offers:
				// A sibling split a service: look again.
			case <-w.closing:
				closing = true
			}
			continue
		}
		// step's slice aliases scheduler scratch (valid until the next
		// step); deliver copies the Results out before then.
		done, _ := s.step(now)
		// A virtual parent clock tracks the furthest shard clock, so
		// observers of Clock() — the serving layer's admission stamps, a
		// saturation estimator — never read an instant before a
		// completion they have already been handed.
		simclock.Join(parent, clk.Now())
		deliver(done)
		if !closing {
			select {
			case <-w.closing:
				closing = true
			default:
			}
		}
	}
	w.stats = s.finalize(clk.Now().Sub(start), completed)
}
