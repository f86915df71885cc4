//go:build race

package router

// raceEnabled reports whether the race detector is active.
const raceEnabled = true
