//go:build !race

package core

// raceEnabled reports whether the race detector is on. Under it sync.Pool
// drops a random share of Puts, so pool-reuse counts are not deterministic.
const raceEnabled = false
