// Package disk models the secondary-storage behaviour that drives every
// scheduling decision in LifeRaft. The paper's evaluation ran against SQL
// Server on 15 sets of mirrored disks and derived two empirical constants:
// Tb = 1.2 s to read a 40 MB bucket sequentially and Tm = 0.13 ms to
// cross-match one object in memory. This package reproduces those
// constants from an analytic seek/rotation/transfer model, and exposes the
// sequential-versus-random cost asymmetry that the hybrid join strategy
// (paper §3.4) and the workload throughput metric (Eq. 1) depend on.
//
// The blend of greedy throughput and arrival-order age that the scheduler
// charges these costs for is inspired by the VSCAN(R) disk-head scheduler
// (Geist & Daniel, TOCS 1987; paper §3.3), which scores a request by a
// convex combination of seek distance and wait time as LifeRaft's aged
// workload throughput metric blends contention and age. That head
// scheduler is cited, not implemented: this package holds only the cost
// model the engine charges.
//
// # What a charge means on a clock
//
// A Disk charges each modeled cost to its clock by sleeping. On a virtual
// clock a sleep of c advances time by exactly c. On a real clock a sleep
// overruns — time.Sleep on Linux wakes on a timer tick of about a
// millisecond, so a 0.13 ms charge slept on its own lasts ≈1.1 ms — and
// a process that sleeps every charge separately pays far more wall time
// than the model says. A Disk therefore keeps an account per arm: every
// charge is a debt of c, a sleep is issued only for what is still owed
// after credit, the sleep is timed on the Disk's own clock, and whatever
// it overran is carried as credit against the next charges. A caller that
// has already spent measured time doing the work a charge stands for (the
// engine's join, against MatchObjectsAfter) hands that time in as credit
// against that one charge. Credit comes only from time spent inside Sleep
// or inside such measured work, never from idle time, and is spent never
// across idle time: an arm idle for more than a timer tick drops it. So
// over any busy run of charges the arm is busy for their modeled sum to
// within one timer tick: the model is paid once, neither skipped nor
// padded. The account belongs to the Disk — one per shard, through Fork —
// and Ledger reports it.
package disk

import (
	"fmt"
	"sync"
	"time"

	"liferaft/internal/simclock"
)

// Model is an analytic disk cost model. All costs are deterministic; the
// simulator charges them to a Clock.
type Model struct {
	// AvgSeek is the average cost of a long (random) head repositioning.
	AvgSeek time.Duration
	// ShortSeek is the cost of a near-track repositioning, charged for
	// index probes issued in sorted (HTM ID) order, which land near the
	// previous probe.
	ShortSeek time.Duration
	// RotLatency is the average rotational latency for a random access.
	RotLatency time.Duration
	// ShortRot is the residual rotational latency for sorted probes.
	ShortRot time.Duration
	// SeqMBps is the effective sequential transfer rate of the array
	// (striping included), in MB/s.
	SeqMBps float64
	// PageSize is the number of bytes fetched by one index probe.
	PageSize int64
	// MatchCost is the in-memory cost of cross-matching one object
	// (the paper's Tm).
	MatchCost time.Duration
}

// SkyQuery returns the model calibrated to the paper's measured
// environment: a 40 MB bucket reads in Tb = 1.2 s, one object matches in
// Tm = 0.13 ms, and a sorted index probe costs ~4 ms so that the hybrid
// join break-even point falls at a workload-queue-to-bucket ratio of ~3 %
// for 10,000-object buckets (paper Figure 2).
func SkyQuery() Model {
	return Model{
		AvgSeek:    8 * time.Millisecond,
		ShortSeek:  2 * time.Millisecond,
		RotLatency: 4 * time.Millisecond,
		ShortRot:   1700 * time.Microsecond,
		SeqMBps:    33.67,
		PageSize:   8 << 10,
		MatchCost:  130 * time.Microsecond,
	}
}

// maxCost caps any single modelled cost: a cost model must slow the
// simulation down, never wrap int64 nanoseconds into a negative credit.
const maxCost = time.Duration(1<<63 - 1)

// scale returns n * unit saturating at maxCost instead of overflowing:
// the clamp happens in the count domain, before the multiply, so a
// pathological request (or a miscalibrated model) charges "forever",
// not a negative duration that would run the simulated clock backwards.
func scale(n int64, unit time.Duration) time.Duration {
	if n <= 0 || unit <= 0 {
		return 0
	}
	if n > int64(maxCost/unit) {
		return maxCost
	}
	return time.Duration(n) * unit
}

// transfer returns the time to move n bytes at the sequential rate.
func (m Model) transfer(n int64) time.Duration {
	if n <= 0 {
		return 0
	}
	sec := float64(n) / (m.SeqMBps * 1e6)
	// A zero or garbage rate makes sec ±Inf/NaN; both fail the < test
	// and saturate rather than converting to a platform-defined int64.
	if !(sec < maxCost.Seconds()) {
		return maxCost
	}
	return time.Duration(sec * float64(time.Second))
}

// SequentialRead returns the cost of reading n contiguous bytes: one full
// repositioning followed by streaming transfer.
func (m Model) SequentialRead(n int64) time.Duration {
	if n <= 0 {
		return 0
	}
	return m.AvgSeek + m.RotLatency + m.transfer(n)
}

// RandomRead returns the cost of one isolated random page read.
func (m Model) RandomRead() time.Duration {
	return m.AvgSeek + m.RotLatency + m.transfer(m.PageSize)
}

// SortedProbe returns the cost of one index probe issued in sorted order
// (short seek plus residual rotation plus one page transfer). LifeRaft
// sorts each workload queue by HTM ID before an indexed join, so probes
// walk the index in key order.
func (m Model) SortedProbe() time.Duration {
	return m.ShortSeek + m.ShortRot + m.transfer(m.PageSize)
}

// Match returns the in-memory cost of cross-matching n objects (n * Tm).
func (m Model) Match(n int) time.Duration {
	return scale(int64(n), m.MatchCost)
}

// Calibrate empirically derives the paper's constants from the model, the
// way the authors derived theirs from measurements: Tb is the sequential
// read time of one bucket of the given byte size and Tm is the per-object
// match cost.
func (m Model) Calibrate(bucketBytes int64) (Tb, Tm time.Duration) {
	return m.SequentialRead(bucketBytes), m.MatchCost
}

// Stats counts the I/O issued against a Disk.
type Stats struct {
	SeqReads    int64 // sequential bucket reads
	SeqBytes    int64
	Probes      int64 // sorted index probes
	RandomReads int64 // isolated random page reads
	Matches     int64 // in-memory object matches charged
	BusyTime    time.Duration
}

// Add returns the element-wise sum of two stats snapshots, used to merge
// the per-shard disks of a sharded run into one aggregate. BusyTime sums
// — it is total arm-busy work across disks, not wall time.
func (s Stats) Add(o Stats) Stats {
	s.SeqReads += o.SeqReads
	s.SeqBytes += o.SeqBytes
	s.Probes += o.Probes
	s.RandomReads += o.RandomReads
	s.Matches += o.Matches
	s.BusyTime += o.BusyTime
	return s
}

// Ledger is a Disk's account with its clock (see the package comment).
// While no charge is in flight Slept + Credited − Charged − Expired =
// Credit, and Credit and Expired are zero on a clock whose Sleep is exact.
type Ledger struct {
	Charged  time.Duration // modeled costs charged to the clock
	Slept    time.Duration // time spent inside clock.Sleep paying them, by the clock's own reckoning
	Credited time.Duration // caller-measured work accepted in place of sleeping
	Credit   time.Duration // sleep overrun not yet set against a charge
	Expired  time.Duration // credit dropped because the arm went idle before a charge used it
}

// timerTick is how late Linux wakes a sleeper, and how long an arm may
// idle between charges before its credit expires.
const timerTick = time.Millisecond

// Disk charges model costs to a clock and accumulates statistics. It is
// safe for concurrent use.
type Disk struct {
	model Model
	clock simclock.Clock

	mu      sync.Mutex
	stats   Stats
	ledger  Ledger
	lastEnd time.Time // when the arm's last charge (its sleep or measured work) ended
}

// New returns a Disk charging costs from model to clock.
func New(model Model, clock simclock.Clock) *Disk {
	if clock == nil {
		clock = simclock.Real{}
	}
	return &Disk{model: model, clock: clock}
}

// Model returns the disk's cost model.
func (d *Disk) Model() Model { return d.model }

// Clock returns the clock the disk charges its costs to.
func (d *Disk) Clock() simclock.Clock { return d.clock }

// Fork returns a new Disk with the same cost model charging to clk, with
// fresh statistics. The sharded engine forks one disk per shard from the
// configured template so each shard models an independent disk arm, with
// its own clock account.
func (d *Disk) Fork(clk simclock.Clock) *Disk { return New(d.model, clk) }

// ReadSequential charges the cost of sequentially reading n bytes.
func (d *Disk) ReadSequential(n int64) time.Duration {
	c := d.model.SequentialRead(n)
	d.charge(c, 0)
	d.mu.Lock()
	d.stats.SeqReads++
	d.stats.SeqBytes += n
	d.mu.Unlock()
	return c
}

// ReadProbes charges the cost of n sorted index probes.
func (d *Disk) ReadProbes(n int) time.Duration {
	c := scale(int64(n), d.model.SortedProbe())
	d.charge(c, 0)
	d.mu.Lock()
	d.stats.Probes += int64(n)
	d.mu.Unlock()
	return c
}

// AccountSequential records a real sequential read of n bytes that took
// elapsed wall time: the statistics advance exactly as ReadSequential's
// would, but nothing is charged to the clock — the time already passed
// while the I/O blocked. The file-backed bucket store reports each
// service of a bucket the cache did not hold this way, as one read of the
// whole bucket whatever granules it moved, and a fill on a cache hit not
// at all, so RunStats.Disk is the model's account on both backends; the
// bytes actually moved go to the store observer.
func (d *Disk) AccountSequential(n int64, elapsed time.Duration) {
	d.mu.Lock()
	d.stats.SeqReads++
	d.stats.SeqBytes += n
	d.stats.BusyTime += elapsed
	d.mu.Unlock()
}

// ReadRandom charges the cost of n isolated random page reads — the
// access pattern of SkyQuery's pre-LifeRaft, index-only cross-match, where
// repeated unsorted index traversals touch scattered pages.
func (d *Disk) ReadRandom(n int) time.Duration {
	c := scale(int64(n), d.model.RandomRead())
	d.charge(c, 0)
	d.mu.Lock()
	d.stats.RandomReads += int64(n)
	d.mu.Unlock()
	return c
}

// MatchObjects charges the in-memory match cost for n objects (n × Tm).
func (d *Disk) MatchObjects(n int) time.Duration { return d.MatchObjectsAfter(n, 0) }

// MatchObjectsAfter charges the match cost for n objects to a caller that
// has just spent `spent` of this disk's clock actually matching them: Tm
// models that work, so the measured part of it is credited against this
// charge (up to the whole charge, never beyond it) and only the rest is
// slept. On a virtual clock computing takes no time, spent is zero and
// this is MatchObjects.
func (d *Disk) MatchObjectsAfter(n int, spent time.Duration) time.Duration {
	c := d.model.Match(n)
	d.charge(c, spent)
	d.mu.Lock()
	d.stats.Matches += int64(n)
	d.mu.Unlock()
	return c
}

// charge books a modeled cost of c, of which the caller has already
// worked off `worked`, and sleeps what the arm then still owes: c less
// worked less the credit earlier sleeps left by overrunning. The sleep is
// timed by the disk's clock and its overrun becomes the next charges'
// credit, unless the arm idles for more than a tick between the last
// charge's end and this one's work. The lock is not held across the
// sleep; a concurrent charger takes whatever credit is on the account at
// that moment and sleeps for its own remainder.
func (d *Disk) charge(c, worked time.Duration) {
	if c <= 0 {
		return
	}
	worked = max(worked, 0)
	now := d.clock.Now()
	d.mu.Lock()
	if d.ledger.Credit > 0 && now.Add(-worked).Sub(d.lastEnd) > timerTick {
		d.ledger.Expired += d.ledger.Credit
		d.ledger.Credit = 0
	}
	worked = min(worked, c)
	d.stats.BusyTime += c
	d.ledger.Charged += c
	d.ledger.Credited += worked
	owed := c - worked - d.ledger.Credit
	d.ledger.Credit = max(-owed, 0)
	d.lastEnd = now
	d.mu.Unlock()
	if owed <= 0 {
		return
	}
	slept := simclock.Slept(d.clock, owed)
	d.mu.Lock()
	d.ledger.Slept += slept
	d.ledger.Credit += max(slept-owed, 0)
	d.lastEnd = now.Add(slept)
	d.mu.Unlock()
}

// Ledger returns a snapshot of the disk's clock account.
func (d *Disk) Ledger() Ledger {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ledger
}

// Stats returns a snapshot of the accumulated statistics.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// String summarizes the stats.
func (s Stats) String() string {
	return fmt.Sprintf("seq=%d (%.1f MB) probes=%d matches=%d busy=%v",
		s.SeqReads, float64(s.SeqBytes)/1e6, s.Probes, s.Matches, s.BusyTime)
}
