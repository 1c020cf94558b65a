package acq

import (
	"testing"

	"github.com/acq-search/acq/internal/graph"
)

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

// Neighbors returns v's neighbours in g's current view, so tests can pick
// existing edges to mutate.
func Neighbors(g *Graph, v int32) []int32 {
	ns := g.view().g.Neighbors(graph.VertexID(v))
	out := make([]int32, len(ns))
	for i, u := range ns {
		out[i] = int32(u)
	}
	return out
}

// FreshCache returns a snapshot of s's graph version with an empty result
// cache of its own, so a test can take s's queries through the miss path
// whatever s has cached already.
func FreshCache(s *Snapshot) *Snapshot {
	return newSnapshot(s.v, s.version, 0, &cacheStats{})
}
