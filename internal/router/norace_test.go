//go:build !race

package router

// raceEnabled reports whether the race detector is active; the allocation
// ceilings are skipped under -race because instrumentation adds allocations
// the production build does not have.
const raceEnabled = false
