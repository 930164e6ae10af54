// Package simclock abstracts time for the LifeRaft engine. Experiments
// replay hours of simulated schedule in milliseconds of wall-clock time by
// running the engine against a virtual clock whose Sleep advances a
// counter instead of blocking; production deployments use the real clock.
// All scheduling decisions (age computation, arrival replay, cost
// charging) go through this interface, so the two modes make identical
// decisions.
package simclock

import (
	"container/heap"
	"sync"
	"time"
)

// Clock supplies the current time and the ability to wait. Implementations
// must be safe for concurrent use.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// Sleep blocks (really or virtually) for d. Negative or zero
	// durations return immediately.
	Sleep(d time.Duration)
}

// Real is the wall clock.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// Epoch is the default start instant for virtual clocks. Its particular
// value is irrelevant; only durations matter.
var Epoch = time.Date(2009, time.January, 4, 0, 0, 0, 0, time.UTC) // CIDR 2009

// Virtual is a discrete-event clock: Sleep advances time instantly. It is
// safe for concurrent use, though the LifeRaft engine drives it from a
// single scheduling goroutine.
type Virtual struct {
	mu  sync.Mutex
	now time.Time
	// tick > 0 makes Sleep overrun to the next multiple of tick since
	// Epoch (NewVirtualTick); 0 is the exact clock.
	tick time.Duration
}

// NewVirtual returns a virtual clock starting at Epoch.
func NewVirtual() *Virtual { return &Virtual{now: Epoch} }

// NewVirtualTick returns a virtual clock starting at Epoch whose Sleep
// wakes late, on the next multiple of tick — the way time.Sleep does on a
// kernel that wakes sleepers on a millisecond timer — without sleeping
// for real. Advance stays exact: it is idle time passing, not a sleep.
// Code that paces itself by sleeping is tested against this clock.
func NewVirtualTick(tick time.Duration) *Virtual { return &Virtual{now: Epoch, tick: tick} }

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Sleep implements Clock by advancing the virtual time by d (and on to
// the next tick, for a NewVirtualTick clock).
func (v *Virtual) Sleep(d time.Duration) { v.sleep(d) }

// sleep is Sleep returning how far this call moved the clock. Measured
// under the lock, it excludes what concurrent sleepers on the same clock
// added meanwhile.
func (v *Virtual) sleep(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	wake := v.now.Add(d)
	if v.tick > 0 {
		if r := wake.Sub(Epoch) % v.tick; r != 0 {
			wake = wake.Add(v.tick - r)
		}
	}
	d = wake.Sub(v.now)
	v.now = wake
	return d
}

// Advance moves the clock forward by d (no-op for d <= 0).
func (v *Virtual) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	v.now = v.now.Add(d)
	v.mu.Unlock()
}

// AdvanceTo moves the clock forward to t. Moving backwards is a no-op:
// virtual time is monotonic.
func (v *Virtual) AdvanceTo(t time.Time) {
	v.mu.Lock()
	if t.After(v.now) {
		v.now = t
	}
	v.mu.Unlock()
}

// Fork returns a clock that advances independently of c but starts at the
// same instant. For a *Virtual clock it returns a fresh Virtual at c's
// current time — the per-shard clock-charging discipline of the sharded
// engine, where K shards each charge modeled I/O to their own clock so
// concurrent shards do not serialize on one modeled disk. Any other clock
// (the real clock in particular) is returned unchanged: real time is
// naturally parallel.
func Fork(c Clock) Clock {
	if v, ok := c.(*Virtual); ok {
		return &Virtual{now: v.Now(), tick: v.tick}
	}
	return c
}

// Join advances a *Virtual clock c forward to t — the rendezvous at the
// end of a sharded run, where the parent clock adopts the latest forked
// shard clock. It is a no-op for any other clock, and for t in c's past.
func Join(c Clock, t time.Time) {
	if v, ok := c.(*Virtual); ok {
		v.AdvanceTo(t)
	}
}

// Slept sleeps d on c and returns how long that took by c's own
// reckoning — how a caller learns what a sleep overran. A *Virtual
// measures its own advance, so goroutines sharing one do not take each
// other's sleeps for overrun; any other clock is read before and after.
func Slept(c Clock, d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	if v, ok := c.(*Virtual); ok {
		return v.sleep(d)
	}
	t0 := c.Now()
	c.Sleep(d)
	return c.Now().Sub(t0)
}

// Event is a value scheduled at an instant.
type Event[T any] struct {
	At    time.Time
	Value T
	seq   uint64 // tie-break: FIFO among equal timestamps
}

// EventQueue is a time-ordered priority queue used to replay query
// arrivals. Events with equal timestamps pop in push order. The zero value
// is ready to use. Not safe for concurrent use.
type EventQueue[T any] struct {
	h   eventHeap[T]
	seq uint64
}

// Push schedules value at instant at.
func (q *EventQueue[T]) Push(at time.Time, value T) {
	q.seq++
	heap.Push(&q.h, Event[T]{At: at, Value: value, seq: q.seq})
}

// Len returns the number of pending events.
func (q *EventQueue[T]) Len() int { return len(q.h) }

// PeekTime returns the instant of the earliest event. ok is false when the
// queue is empty.
func (q *EventQueue[T]) PeekTime() (at time.Time, ok bool) {
	if len(q.h) == 0 {
		return time.Time{}, false
	}
	return q.h[0].At, true
}

// Pop removes and returns the earliest event. ok is false when the queue
// is empty.
func (q *EventQueue[T]) Pop() (ev Event[T], ok bool) {
	if len(q.h) == 0 {
		return Event[T]{}, false
	}
	return heap.Pop(&q.h).(Event[T]), true
}

// PopUntil removes and returns, in order, all events at or before t.
func (q *EventQueue[T]) PopUntil(t time.Time) []Event[T] {
	var out []Event[T]
	for len(q.h) > 0 && !q.h[0].At.After(t) {
		out = append(out, heap.Pop(&q.h).(Event[T]))
	}
	return out
}

type eventHeap[T any] []Event[T]

func (h eventHeap[T]) Len() int { return len(h) }
func (h eventHeap[T]) Less(i, j int) bool {
	if !h[i].At.Equal(h[j].At) {
		return h[i].At.Before(h[j].At)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap[T]) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap[T]) Push(x any)   { *h = append(*h, x.(Event[T])) }
func (h *eventHeap[T]) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}
