//go:build race

package core

// raceEnabled reports whether the race detector is on. sync.Pool then
// drops a random share of Puts, so pooled scratch may be reallocated.
const raceEnabled = true
