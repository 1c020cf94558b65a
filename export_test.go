package acq

import "testing"

// ForceBuildWorkers pins the fan-out of index builds and snapshot
// publication to n for the rest of the test (1 = serial), so the worker
// sweeps cover the parallel paths on graphs small enough that auto sizing
// would stay serial.
func ForceBuildWorkers(t testing.TB, n int) {
	prev := buildWorkers.Swap(int32(n))
	t.Cleanup(func() { buildWorkers.Store(prev) })
}

// ScratchInUse reports how many pooled query scratch spaces of s's index are
// handed out: zero whenever no query runs on s.
func ScratchInUse(s *Snapshot) int64 { return s.v.tree.ScratchInUse() }
