package disk

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"liferaft/internal/simclock"
)

const tick = time.Millisecond

// checkLedger asserts the account's identity and the bounds on credit:
// never negative, never more than one sleep can overrun.
func checkLedger(t *testing.T, d *Disk) Ledger {
	t.Helper()
	l := d.Ledger()
	if l.Credit < 0 || l.Credit >= tick {
		t.Fatalf("credit %v outside [0, %v): %+v", l.Credit, tick, l)
	}
	if l.Slept+l.Credited-l.Charged != l.Credit {
		t.Fatalf("slept + credited − charged = %v, credit %v: %+v", l.Slept+l.Credited-l.Charged, l.Credit, l)
	}
	return l
}

// A thousand one-object charges on a clock that wakes every sleeper on
// the next millisecond cost the modeled 130 ms, not a thousand ticks.
func TestTickClockChargePaysModelOnce(t *testing.T) {
	clk := simclock.NewVirtualTick(tick)
	d := New(SkyQuery(), clk)
	for i := 0; i < 1000; i++ {
		d.MatchObjects(1)
		checkLedger(t, d)
	}
	want := 1000 * SkyQuery().MatchCost
	got := clk.Now().Sub(simclock.Epoch)
	if got < want || got >= want+tick {
		t.Errorf("1000 × MatchObjects(1) advanced the clock %v, want [%v, %v)", got, want, want+tick)
	}
	if l := d.Ledger(); l.Charged != want || l.Slept != got || d.Stats().BusyTime != want {
		t.Errorf("ledger %+v, busy %v: want charged = busy = %v, slept = %v", l, d.Stats().BusyTime, want, got)
	}
}

// Charges of every kind and size, handed-in compute and idle gaps: after
// every call the clock has moved by what was charged less what was worked
// off, to within one tick, and idle time earns nothing.
func TestChargeMixedSizesTrackElapsed(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	clk := simclock.NewVirtualTick(tick)
	d := New(SkyQuery(), clk)
	var idle, maxCredit time.Duration
	for i := 0; i < 5000; i++ {
		switch rng.Intn(6) {
		case 0:
			d.ReadSequential(rng.Int63n(4 << 20))
		case 1:
			d.ReadProbes(rng.Intn(4))
		case 2:
			d.MatchObjects(rng.Intn(30))
		case 3:
			// Compute worth anything from nothing to twice the charge.
			n := rng.Intn(30)
			before := d.Ledger()
			spent := time.Duration(rng.Int63n(int64(2*d.Model().Match(n)) + 1))
			d.MatchObjectsAfter(n, spent)
			after := d.Ledger()
			if got, want := after.Credited-before.Credited, min(spent, d.Model().Match(n)); got != want {
				t.Fatalf("call %d: %v of compute against a charge of %v credited %v, want %v", i, spent, d.Model().Match(n), got, want)
			}
		case 4:
			d.MatchObjectsAfter(rng.Intn(30), -time.Second) // a clock that stepped back earns nothing
		case 5:
			before := d.Ledger()
			gap := time.Duration(rng.Int63n(int64(5 * tick)))
			clk.Advance(gap)
			idle += gap
			if d.Ledger() != before {
				t.Fatalf("call %d: an idle gap of %v changed the account: %+v → %+v", i, gap, before, d.Ledger())
			}
		}
		l := checkLedger(t, d)
		maxCredit = max(maxCredit, l.Credit)
		busy := clk.Now().Sub(simclock.Epoch) - idle
		if diff := busy - (l.Charged - l.Credited); diff < 0 || diff >= tick {
			t.Fatalf("call %d: clock busy %v, charged %v − credited %v: off by %v", i, busy, l.Charged, l.Credited, diff)
		}
	}
	if maxCredit == 0 {
		t.Error("no sleep ever overran: the tick clock is not exercising credit")
	}
}

// Compute credit pays for its own charge only: a join that outlasted its
// modeled cost leaves nothing on the account for later charges.
func TestMatchObjectsAfterCreditIsCappedAtTheCharge(t *testing.T) {
	clk := simclock.NewVirtualTick(tick)
	d := New(SkyQuery(), clk)
	c := d.MatchObjectsAfter(10, time.Hour)
	if l := d.Ledger(); l != (Ledger{Charged: c, Credited: c}) || !clk.Now().Equal(simclock.Epoch) {
		t.Fatalf("fully worked-off charge: ledger %+v, clock +%v; want charged = credited = %v and no sleep", l, clk.Now().Sub(simclock.Epoch), c)
	}
	if st := d.Stats(); st.Matches != 10 || st.BusyTime != c {
		t.Errorf("stats %+v, want 10 matches and busy %v", st, c)
	}
	// Half worked off: the other half is slept, to the next tick.
	d.MatchObjectsAfter(10, c/2)
	if l := d.Ledger(); l.Slept != tick || l.Credit != tick-c/2 {
		t.Errorf("half-worked charge of %v: slept %v credit %v, want %v and %v", c, l.Slept, l.Credit, tick, tick-c/2)
	}
}

// On an exact clock there is never credit, and the clock advances by
// exactly what was charged: alone, forked, and shared by concurrent
// chargers (two goroutines per disk, two disks per clock).
func TestChargeVirtualClockCreditStaysZero(t *testing.T) {
	mixed := func(t *testing.T, d *Disk, rng *rand.Rand, n int) (sum time.Duration) {
		for i := 0; i < n; i++ {
			switch rng.Intn(3) {
			case 0:
				sum += d.ReadSequential(rng.Int63n(4 << 20))
			case 1:
				sum += d.ReadProbes(rng.Intn(4))
			case 2:
				sum += d.MatchObjects(rng.Intn(30))
			}
			if c := d.Ledger().Credit; c != 0 {
				t.Errorf("credit %v on a virtual clock", c)
				return sum
			}
		}
		return sum
	}
	t.Run("plain", func(t *testing.T) {
		clk := simclock.NewVirtual()
		d := New(SkyQuery(), clk)
		sum := mixed(t, d, rand.New(rand.NewSource(1)), 2000)
		if got := clk.Now().Sub(simclock.Epoch); got != sum || d.Ledger().Slept != sum {
			t.Errorf("clock advanced %v, slept %v, charged %v", got, d.Ledger().Slept, sum)
		}
	})
	t.Run("forked", func(t *testing.T) {
		parent := simclock.NewVirtual()
		parent.Advance(time.Hour)
		clk := simclock.Fork(parent)
		d := New(SkyQuery(), parent).Fork(clk)
		sum := mixed(t, d, rand.New(rand.NewSource(2)), 2000)
		if got := clk.Now().Sub(parent.Now()); got != sum {
			t.Errorf("forked clock advanced %v, charged %v", got, sum)
		}
	})
	t.Run("shared", func(t *testing.T) {
		clk := simclock.NewVirtual()
		disks := []*Disk{New(SkyQuery(), clk), New(SkyQuery(), clk)}
		sums := make([]time.Duration, 4)
		var wg sync.WaitGroup
		for g := range sums {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sums[g] = mixed(t, disks[g%2], rand.New(rand.NewSource(int64(g))), 1000)
			}()
		}
		wg.Wait()
		var sum time.Duration
		for _, s := range sums {
			sum += s
		}
		if got := clk.Now().Sub(simclock.Epoch); got != sum {
			t.Errorf("shared clock advanced %v, charged %v", got, sum)
		}
		for i, d := range disks {
			if l := d.Ledger(); l.Credit != 0 || l.Slept != l.Charged || l.Charged != sums[i]+sums[i+2] {
				t.Errorf("disk %d: ledger %+v, charged by its goroutines %v", i, l, sums[i]+sums[i+2])
			}
		}
	})
}

// The real clock overruns every sleep; the account must turn that into
// shorter later sleeps without ever letting the arm off early.
func TestChargeRealClockNeverUnderpays(t *testing.T) {
	d := New(SkyQuery(), simclock.Real{})
	start := time.Now()
	for i := 0; i < 100; i++ {
		d.MatchObjects(1)
	}
	elapsed := time.Since(start)
	l := d.Ledger()
	if l.Charged != 100*SkyQuery().MatchCost || elapsed < l.Charged {
		t.Errorf("100 charges took %v, model says %v", elapsed, l.Charged)
	}
	if l.Credit < 0 || l.Slept+l.Credited-l.Charged != l.Credit || l.Slept > elapsed {
		t.Errorf("ledger %+v after %v", l, elapsed)
	}
}
