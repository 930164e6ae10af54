// No mutex is acquired while another is held. The A-then-B / B-then-A
// inversion is flagged on both sides (one through a helper, which the
// message names); a consistent order and hand-over-hand over two
// instances of one type are flagged too, because any acquired-while-
// holding edge is one half of a possible cycle. TryLock does not block
// and release-before-acquire holds nothing.
package locks

import "sync"

type A struct{ mu sync.Mutex }

type B struct{ mu sync.Mutex }

type C struct{ mu sync.RWMutex }

var (
	ga A
	gb B
	gc C
)

// abPath acquires A then B: one direction of the inversion.
func abPath() {
	ga.mu.Lock()
	gb.mu.Lock() // want lockdiscipline "gb.mu.Lock while holding ga.mu (locked in locks.abPath); a mutex acquired under another is an edge in the lock order"
	gb.mu.Unlock()
	ga.mu.Unlock()
}

// baPath acquires A while holding B, through lockA.
func baPath() {
	gb.mu.Lock()
	lockA() // want lockdiscipline "ga.mu.Lock via locks.lockA while holding gb.mu"
	gb.mu.Unlock()
}

func lockA() {
	ga.mu.Lock()
	ga.mu.Unlock()
}

// consistentAC always takes A before C: no cycle, still an edge.
func consistentAC() {
	ga.mu.Lock()
	gc.mu.Lock() // want lockdiscipline "gc.mu.Lock while holding ga.mu"
	gc.mu.Unlock()
	ga.mu.Unlock()
}

// sameType is hand-over-hand over two instances of one type.
func sameType(x, y *A) {
	x.mu.Lock()
	y.mu.Lock() // want lockdiscipline "y.mu.Lock while holding x.mu"
	y.mu.Unlock()
	x.mu.Unlock()
}

// readUnderWrite takes a read lock under a write lock.
func readUnderWrite() {
	ga.mu.Lock()
	defer ga.mu.Unlock()
	gc.mu.RLock() // want lockdiscipline "gc.mu.RLock while holding ga.mu"
	gc.mu.RUnlock()
}

// tryUnderLock never waits for the second mutex.
func tryUnderLock() {
	ga.mu.Lock()
	defer ga.mu.Unlock()
	if gb.mu.TryLock() {
		gb.mu.Unlock()
	}
}

// unlockedOrder releases B before taking A: nothing held.
func unlockedOrder() {
	gb.mu.Lock()
	gb.mu.Unlock()
	ga.mu.Lock()
	ga.mu.Unlock()
}
