//go:build race

package model

// raceEnabled reports whether the race detector is on. sync.Pool then
// drops a random share of Puts, so a pooled round trip may allocate.
const raceEnabled = true
