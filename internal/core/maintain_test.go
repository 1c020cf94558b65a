package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/acq-search/acq/internal/graph"
	"github.com/acq-search/acq/internal/kcore"
	"github.com/acq-search/acq/internal/testutil"
)

func TestMaintainerKeywordUpdates(t *testing.T) {
	g := testutil.Fig3Graph()
	tr := BuildAdvanced(g)
	m := NewMaintainer(tr)
	bv, _ := g.VertexByLabel("B")

	if !m.AddKeyword(bv, "y") {
		t.Fatal("AddKeyword returned false")
	}
	if m.AddKeyword(bv, "y") {
		t.Fatal("duplicate AddKeyword returned true")
	}
	// Now B carries y; q=A, k=2, S={x,y} must include B: {A,B,C,D} shares
	// {x,y}.
	a, _ := g.VertexByLabel("A")
	res, err := Dec(bgCtx, tr, a, 2, kws(g, "x", "y"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, members := labelsOfCommunity(g, res.Communities[0])
	if !reflect.DeepEqual(members, []string{"A", "B", "C", "D"}) {
		t.Fatalf("after AddKeyword: members = %v", members)
	}

	if !m.RemoveKeyword(bv, "y") {
		t.Fatal("RemoveKeyword returned false")
	}
	if m.RemoveKeyword(bv, "y") {
		t.Fatal("double RemoveKeyword returned true")
	}
	res, err = Dec(bgCtx, tr, a, 2, kws(g, "x", "y"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, members = labelsOfCommunity(g, res.Communities[0])
	if !reflect.DeepEqual(members, []string{"A", "C", "D"}) {
		t.Fatalf("after RemoveKeyword: members = %v", members)
	}
	// The patched tree must equal a rebuild.
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMaintainerEdgeInsertMergesCores(t *testing.T) {
	g := testutil.Fig5Graph()
	tr := BuildAdvanced(g)
	m := NewMaintainer(tr)
	// Connect the two 3-ĉores at core level 3 via two vertices; cores stay 3
	// but the ĉores do NOT merge at level 3 (the new edge alone does not
	// make a combined 3-core... it does connect them in the ≥3 region!).
	a, _ := g.VertexByLabel("A")
	i, _ := g.VertexByLabel("I")
	if !m.InsertEdge(a, i) {
		t.Fatal("InsertEdge returned false")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// A and I are now in one connected component of the core-≥3 subgraph, so
	// the tree must have a single core-3 node containing all eight vertices.
	n := tr.NodeOf[a]
	if n.Core != 3 {
		t.Fatalf("core of A's node = %d", n.Core)
	}
	set := testutil.LabelSet(g, tr.SubtreeVertices(tr.LocateRoot(a, 3)))
	if len(set) != 8 {
		t.Fatalf("merged 3-ĉore = %v", set)
	}
	// Undo: removing the bridge splits the 3-ĉore again.
	if !m.RemoveEdge(a, i) {
		t.Fatal("RemoveEdge returned false")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	set = testutil.LabelSet(g, tr.SubtreeVertices(tr.LocateRoot(a, 3)))
	if len(set) != 4 {
		t.Fatalf("split 3-ĉore = %v", set)
	}
}

func TestMaintainerNoOps(t *testing.T) {
	g := testutil.Fig3Graph()
	tr := BuildAdvanced(g)
	m := NewMaintainer(tr)
	a, _ := g.VertexByLabel("A")
	b, _ := g.VertexByLabel("B")
	if m.InsertEdge(a, b) {
		t.Fatal("inserted an existing edge")
	}
	if m.InsertEdge(a, a) {
		t.Fatal("inserted a self-loop")
	}
	if m.RemoveEdge(a, graph.VertexID(9)) { // A–J does not exist
		t.Fatal("removed a non-edge")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestMaintainerMatchesRebuildQuick: after any random edit sequence the
// maintained tree is identical (same canonical shape, same query results) to
// a from-scratch build.
func TestMaintainerMatchesRebuildQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		g := testutil.RandomGraph(rng, n, 1+3*rng.Float64(), 8, 3)
		tr := BuildAdvanced(g)
		m := NewMaintainer(tr)
		words := []string{"alpha", "beta", "gamma"}
		for step := 0; step < 25; step++ {
			u := graph.VertexID(rng.Intn(n))
			v := graph.VertexID(rng.Intn(n))
			switch rng.Intn(4) {
			case 0:
				m.InsertEdge(u, v)
			case 1:
				m.RemoveEdge(u, v)
			case 2:
				m.AddKeyword(u, words[rng.Intn(len(words))])
			case 3:
				m.RemoveKeyword(u, words[rng.Intn(len(words))])
			}
			if tr.Validate() != nil {
				t.Logf("seed %d step %d: validate failed: %v", seed, step, tr.Validate())
				return false
			}
			fresh := BuildAdvanced(g)
			if !reflect.DeepEqual(treeShapeByID(tr), treeShapeByID(fresh)) {
				t.Logf("seed %d step %d: shape mismatch", seed, step)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestMaintainerQueriesMatchRebuildQuick: query results through a maintained
// tree equal results through a rebuilt tree.
func TestMaintainerQueriesMatchRebuildQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		g := testutil.RandomGraph(rng, n, 1+4*rng.Float64(), 8, 3)
		tr := BuildAdvanced(g)
		m := NewMaintainer(tr)
		for step := 0; step < 10; step++ {
			u := graph.VertexID(rng.Intn(n))
			v := graph.VertexID(rng.Intn(n))
			if rng.Intn(2) == 0 {
				m.InsertEdge(u, v)
			} else {
				m.RemoveEdge(u, v)
			}
		}
		fresh := BuildAdvanced(g)
		for _, q := range rng.Perm(n) {
			if tr.Core[q] < 1 {
				continue
			}
			k := 1 + rng.Intn(int(tr.Core[q]))
			r1, e1 := Dec(bgCtx, tr, graph.VertexID(q), k, nil, DefaultOptions())
			r2, e2 := Dec(bgCtx, fresh, graph.VertexID(q), k, nil, DefaultOptions())
			if (e1 != nil) != (e2 != nil) {
				return false
			}
			if e1 == nil && !reflect.DeepEqual(canonical(r1), canonical(r2)) {
				return false
			}
			break
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMaintainerSeededCores: the k-core maintainer starts from the tree's own
// core numbers instead of a fresh decomposition, so right after construction
// and after every op of a seeded edge stream its cores — and the tree's —
// must equal kcore.Decompose of the current graph. The stream runs on both
// mutable forms: the builder's Graph and a Master over its frozen copy.
func TestMaintainerSeededCores(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		for _, form := range []string{"graph", "master"} {
			rng := rand.New(rand.NewSource(seed))
			n := 20 + rng.Intn(60)
			var g graph.Mutable = testutil.RandomGraph(rng, n, 1+3*rng.Float64(), 8, 3)
			if form == "master" {
				g = graph.NewMaster(g.(*graph.Graph).Freeze(1))
			}
			tr := BuildAdvanced(g)
			m := NewMaintainer(tr)
			check := func(step int) {
				want := kcore.Decompose(g)
				if !reflect.DeepEqual(m.kc.Core(), want) || !reflect.DeepEqual(tr.Core, want) {
					t.Fatalf("seed %d %s step %d: maintained cores differ from a fresh decomposition", seed, form, step)
				}
			}
			check(-1)
			for step := 0; step < 60; step++ {
				u, v := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
				if rng.Intn(2) == 0 {
					m.InsertEdge(u, v)
				} else {
					m.RemoveEdge(u, v)
				}
				check(step)
			}
		}
	}
}
