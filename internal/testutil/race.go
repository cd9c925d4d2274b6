//go:build race

package testutil

// RaceEnabled reports whether the race detector instruments this
// binary. Wall-clock ratio assertions are skipped under its 5-20x
// slowdown.
const RaceEnabled = true
