//go:build race

package serve

// raceEnabled reports whether the race detector is on. sync.Pool then
// drops a random share of Puts, so pooled buffers may be reallocated.
const raceEnabled = true
