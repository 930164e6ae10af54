package disk

import (
	"math"
	"testing"
	"time"

	"liferaft/internal/simclock"
)

func TestCalibrationMatchesPaper(t *testing.T) {
	// The paper derived Tb = 1.2 s for a 40 MB bucket and Tm = 0.13 ms.
	m := SkyQuery()
	tb, tm := m.Calibrate(40 << 20)
	if err := math.Abs(tb.Seconds() - 1.2); err > 0.06 {
		t.Errorf("Tb = %v, want ~1.2s", tb)
	}
	if tm != 130*time.Microsecond {
		t.Errorf("Tm = %v, want 0.13ms", tm)
	}
}

func TestSortedProbeNearBreakEven(t *testing.T) {
	// The hybrid join break-even (Fig 2) is at a queue of ~3% of a
	// 10,000-object bucket: 300 probes should cost about one bucket scan.
	m := SkyQuery()
	probes := 300 * m.SortedProbe()
	scan := m.SequentialRead(40 << 20)
	ratio := float64(probes) / float64(scan)
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("300 probes / bucket scan = %.2f, want ~1 (break-even at 3%%)", ratio)
	}
}

func TestCostMonotonicity(t *testing.T) {
	m := SkyQuery()
	if m.SequentialRead(1<<20) >= m.SequentialRead(2<<20) {
		t.Error("sequential cost should grow with bytes")
	}
	if m.SequentialRead(0) != 0 || m.SequentialRead(-5) != 0 {
		t.Error("non-positive reads are free")
	}
	if m.SortedProbe() >= m.RandomRead() {
		t.Error("sorted probe must be cheaper than a random read")
	}
	if m.Match(0) != 0 {
		t.Error("matching zero objects is free")
	}
	if m.Match(10) != 10*m.MatchCost {
		t.Error("Match is linear")
	}
}

// TestCostSaturatesInsteadOfWrapping: pathological counts used to
// overflow the int64-nanosecond multiply into a negative cost, running
// the simulated clock backwards (a negative credit). Every modelled cost
// must saturate at maxCost and stay non-negative.
func TestCostSaturatesInsteadOfWrapping(t *testing.T) {
	m := SkyQuery()
	huge := int(math.MaxInt64 / int64(time.Microsecond)) // n*MatchCost wraps
	if got := m.Match(huge); got != maxCost {
		t.Errorf("Match(huge) = %v, want saturated maxCost", got)
	}
	if got := m.Match(huge); got < 0 {
		t.Errorf("Match(huge) = %v, negative cost", got)
	}
	// A zero transfer rate makes the float blow up to +Inf: saturate,
	// don't convert Inf to a platform-defined int64.
	broken := m
	broken.SeqMBps = 0
	if got := broken.transfer(1 << 20); got != maxCost {
		t.Errorf("transfer with zero rate = %v, want saturated maxCost", got)
	}
	if got := m.transfer(math.MaxInt64); got != maxCost || got < 0 {
		t.Errorf("transfer(MaxInt64) = %v, want saturated maxCost", got)
	}
	if got := scale(-1, time.Second); got != 0 {
		t.Errorf("scale(-1) = %v, want 0", got)
	}
}

func TestDiskChargesVirtualClock(t *testing.T) {
	clk := simclock.NewVirtual()
	d := New(SkyQuery(), clk)
	start := clk.Now()
	c1 := d.ReadSequential(40 << 20)
	c2 := d.ReadProbes(10)
	c3 := d.MatchObjects(100)
	elapsed := clk.Now().Sub(start)
	if elapsed != c1+c2+c3 {
		t.Errorf("clock advanced %v, want %v", elapsed, c1+c2+c3)
	}
	st := d.Stats()
	if st.SeqReads != 1 || st.SeqBytes != 40<<20 || st.Probes != 10 || st.Matches != 100 {
		t.Errorf("stats = %+v", st)
	}
	if st.BusyTime != elapsed {
		t.Errorf("busy = %v, want %v", st.BusyTime, elapsed)
	}
	if st.String() == "" {
		t.Error("Stats String empty")
	}
	if d.Model() != SkyQuery() {
		t.Error("Model accessor")
	}
}

func TestDiskNilClockDefaultsToReal(t *testing.T) {
	d := New(SkyQuery(), nil)
	if d.ReadSequential(0) != 0 {
		t.Error("zero read should be free")
	}
}
