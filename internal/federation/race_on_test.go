//go:build race

package federation

// raceEnabled gates allocation-count assertions: the race runtime
// instruments allocations, so exact allocs/op checks only hold without it.
const raceEnabled = true
