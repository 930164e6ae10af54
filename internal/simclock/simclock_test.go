package simclock

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestRealClock(t *testing.T) {
	var c Clock = Real{}
	a := c.Now()
	c.Sleep(time.Millisecond)
	b := c.Now()
	if !b.After(a) {
		t.Error("real clock did not advance")
	}
	c.Sleep(-time.Hour) // must not block
}

func TestVirtualAdvance(t *testing.T) {
	v := NewVirtual()
	if !v.Now().Equal(Epoch) {
		t.Errorf("start = %v, want Epoch", v.Now())
	}
	v.Sleep(3 * time.Second)
	if got := v.Now().Sub(Epoch); got != 3*time.Second {
		t.Errorf("after Sleep: %v", got)
	}
	v.Advance(-time.Hour) // no-op
	if got := v.Now().Sub(Epoch); got != 3*time.Second {
		t.Errorf("negative Advance moved clock: %v", got)
	}
	v.AdvanceTo(Epoch.Add(10 * time.Second))
	if got := v.Now().Sub(Epoch); got != 10*time.Second {
		t.Errorf("AdvanceTo: %v", got)
	}
	v.AdvanceTo(Epoch) // backwards: no-op
	if got := v.Now().Sub(Epoch); got != 10*time.Second {
		t.Errorf("backwards AdvanceTo moved clock: %v", got)
	}
}

func TestVirtualConcurrency(t *testing.T) {
	v := NewVirtual()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				v.Advance(time.Microsecond)
				_ = v.Now()
			}
		}()
	}
	wg.Wait()
	if got := v.Now().Sub(Epoch); got != 16*1000*time.Microsecond {
		t.Errorf("concurrent advances lost: %v", got)
	}
}

func TestEventQueueOrdering(t *testing.T) {
	var q EventQueue[int]
	rng := rand.New(rand.NewSource(3))
	times := make([]time.Duration, 100)
	for i := range times {
		times[i] = time.Duration(rng.Intn(1000)) * time.Millisecond
		q.Push(Epoch.Add(times[i]), i)
	}
	if q.Len() != 100 {
		t.Fatalf("Len = %d", q.Len())
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	var prev time.Time
	for i := 0; i < 100; i++ {
		ev, ok := q.Pop()
		if !ok {
			t.Fatal("queue exhausted early")
		}
		if ev.At.Before(prev) {
			t.Fatalf("out of order: %v before %v", ev.At, prev)
		}
		prev = ev.At
	}
	if _, ok := q.Pop(); ok {
		t.Error("Pop on empty queue should fail")
	}
	if _, ok := q.PeekTime(); ok {
		t.Error("PeekTime on empty queue should fail")
	}
}

func TestEventQueueFIFOTieBreak(t *testing.T) {
	var q EventQueue[string]
	at := Epoch.Add(time.Second)
	q.Push(at, "first")
	q.Push(at, "second")
	q.Push(at, "third")
	want := []string{"first", "second", "third"}
	for _, w := range want {
		ev, _ := q.Pop()
		if ev.Value != w {
			t.Errorf("got %q, want %q", ev.Value, w)
		}
	}
}

func TestPopUntil(t *testing.T) {
	var q EventQueue[int]
	for i := 0; i < 10; i++ {
		q.Push(Epoch.Add(time.Duration(i)*time.Second), i)
	}
	got := q.PopUntil(Epoch.Add(4 * time.Second))
	if len(got) != 5 {
		t.Fatalf("PopUntil returned %d events, want 5", len(got))
	}
	for i, ev := range got {
		if ev.Value != i {
			t.Errorf("event %d = %d", i, ev.Value)
		}
	}
	if q.Len() != 5 {
		t.Errorf("remaining = %d", q.Len())
	}
	if got := q.PopUntil(Epoch); len(got) != 0 {
		t.Error("PopUntil before all events should return nothing")
	}
	at, ok := q.PeekTime()
	if !ok || !at.Equal(Epoch.Add(5*time.Second)) {
		t.Errorf("PeekTime = %v, %v", at, ok)
	}
}

func TestVirtualTickClockSleepWakesOnTheNextTick(t *testing.T) {
	v := NewVirtualTick(time.Millisecond)
	for _, c := range []struct{ sleep, want time.Duration }{
		{130 * time.Microsecond, time.Millisecond},      // overruns to the first tick
		{time.Millisecond, 2 * time.Millisecond},        // on a boundary already: exact
		{1001 * time.Microsecond, 4 * time.Millisecond}, // just past one
		{0, 4 * time.Millisecond},
	} {
		v.Sleep(c.sleep)
		if got := v.Now().Sub(Epoch); got != c.want {
			t.Errorf("after Sleep(%v): %v, want %v", c.sleep, got, c.want)
		}
	}
	v.Advance(300 * time.Microsecond) // idle time is exact
	if got := v.Now().Sub(Epoch); got != 4300*time.Microsecond {
		t.Errorf("after Advance: %v", got)
	}
	f, ok := Fork(v).(*Virtual)
	if !ok || f == v {
		t.Fatal("Fork of a tick clock must be a fresh Virtual")
	}
	f.Sleep(time.Microsecond)
	if got := f.Now().Sub(Epoch); got != 5*time.Millisecond {
		t.Errorf("forked tick clock woke at %v, want the 5 ms tick", got)
	}
	if got := v.Now().Sub(Epoch); got != 4300*time.Microsecond {
		t.Errorf("fork advanced its parent to %v", got)
	}
}

// lateClock is a non-Virtual clock that wakes a fixed time late.
type lateClock struct {
	Virtual
	late time.Duration
}

func (c *lateClock) Sleep(d time.Duration) { c.Advance(d + c.late) }

func TestSleptReportsTheClocksOwnElapsed(t *testing.T) {
	if got := Slept(NewVirtual(), time.Second); got != time.Second {
		t.Errorf("exact clock: slept %v", got)
	}
	if got := Slept(NewVirtualTick(time.Millisecond), 130*time.Microsecond); got != time.Millisecond {
		t.Errorf("tick clock: slept %v, want 1ms", got)
	}
	c := &lateClock{Virtual: Virtual{now: Epoch}, late: 70 * time.Microsecond}
	if got := Slept(c, time.Millisecond); got != 1070*time.Microsecond {
		t.Errorf("late clock: slept %v, want 1.07ms", got)
	}
	if got := Slept(c, -time.Second); got != 0 || !c.Now().Equal(Epoch.Add(1070*time.Microsecond)) {
		t.Errorf("negative sleep: slept %v, clock at +%v", got, c.Now().Sub(Epoch))
	}
	// Sleepers sharing one Virtual do not see each other's advances.
	v := NewVirtual()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if got := Slept(v, time.Microsecond); got != time.Microsecond {
					t.Errorf("shared exact clock: slept %v", got)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := v.Now().Sub(Epoch); got != 4000*time.Microsecond {
		t.Errorf("shared clock advanced %v", got)
	}
}
