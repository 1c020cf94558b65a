//go:build !race

package dataio

// raceEnabled reports whether the race detector is on. Its instrumentation
// allocates on its own account, so allocation counts are not the program's.
const raceEnabled = false
