package kcore

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/acq-search/acq/internal/graph"
	"github.com/acq-search/acq/internal/testutil"
)

func coresEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestMaintainerInsertSimple(t *testing.T) {
	// Path a-b-c: all core 1. Closing the triangle raises everyone to 2.
	b := graph.NewBuilder()
	b.AddVertex("a")
	b.AddVertex("b")
	b.AddVertex("c")
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.MustBuild()
	mt := NewMaintainer(g, Decompose(g))
	changed := mt.InsertEdge(0, 2)
	if len(changed) != 3 {
		t.Fatalf("changed = %v, want all three", changed)
	}
	if !coresEqual(mt.Core(), []int32{2, 2, 2}) {
		t.Fatalf("cores = %v", mt.Core())
	}
	// Removing it again drops everyone back to 1.
	changed = mt.RemoveEdge(0, 2)
	if len(changed) != 3 {
		t.Fatalf("changed = %v, want all three", changed)
	}
	if !coresEqual(mt.Core(), []int32{1, 1, 1}) {
		t.Fatalf("cores = %v", mt.Core())
	}
}

func TestMaintainerRejectsDuplicates(t *testing.T) {
	b := graph.NewBuilder()
	b.AddVertex("a")
	b.AddVertex("b")
	b.AddEdge(0, 1)
	g := b.MustBuild()
	mt := NewMaintainer(g, Decompose(g))
	if got := mt.InsertEdge(0, 1); got != nil {
		t.Fatalf("duplicate insert changed %v", got)
	}
	if got := mt.InsertEdge(0, 0); got != nil {
		t.Fatalf("self-loop insert changed %v", got)
	}
	if got := mt.RemoveEdge(1, 0); got != nil && len(got) != 0 {
		// Removal succeeded (edge existed); change list may be empty.
		t.Logf("changed %v", got)
	}
	if mt.Graph().NumEdges() != 0 {
		t.Fatal("edge not removed")
	}
	if got := mt.RemoveEdge(0, 1); got != nil {
		t.Fatalf("double remove changed %v", got)
	}
}

// Property: a maintained decomposition equals recomputation from scratch
// after any interleaved sequence of edge insertions and removals.
func TestMaintainerMatchesRecomputeQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(30)
		g := testutil.RandomGraph(rng, n, 1+3*rng.Float64(), 8, 2)
		mt := NewMaintainer(g, Decompose(g))
		for step := 0; step < 40; step++ {
			u := graph.VertexID(rng.Intn(n))
			v := graph.VertexID(rng.Intn(n))
			if rng.Intn(2) == 0 {
				mt.InsertEdge(u, v)
			} else {
				mt.RemoveEdge(u, v)
			}
			if !coresEqual(mt.Core(), Decompose(g)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: insertions only ever raise core numbers (by ≤ 1), deletions only
// lower them (by ≤ 1) — reference [20]'s locality result.
func TestMaintainerChangeBoundsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(30)
		g := testutil.RandomGraph(rng, n, 1+3*rng.Float64(), 8, 2)
		mt := NewMaintainer(g, Decompose(g))
		for step := 0; step < 25; step++ {
			before := append([]int32(nil), mt.Core()...)
			u := graph.VertexID(rng.Intn(n))
			v := graph.VertexID(rng.Intn(n))
			insert := rng.Intn(2) == 0
			var changed []graph.VertexID
			if insert {
				changed = mt.InsertEdge(u, v)
			} else {
				changed = mt.RemoveEdge(u, v)
			}
			after := mt.Core()
			seen := map[graph.VertexID]bool{}
			for _, w := range changed {
				seen[w] = true
			}
			for i := range after {
				delta := after[i] - before[i]
				switch {
				case delta == 0:
					if seen[graph.VertexID(i)] {
						return false // reported a non-change
					}
				case insert && delta == 1, !insert && delta == -1:
					if !seen[graph.VertexID(i)] {
						return false // unreported change
					}
				default:
					return false // jumped by more than one or wrong direction
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
