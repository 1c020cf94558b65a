package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/acq-search/acq/internal/graph"
	"github.com/acq-search/acq/internal/testutil"
)

// The differential harness for the writer's master: one op stream is applied
// through a Maintainer to a slice-of-slices graph.Graph (the reference) and
// to a graph.Master over its frozen copy, and the two must agree after every
// op — rows, edge count, dictionary, l̂, each op's outcome and the maintained
// trees. Every Overlay the master publishes must keep the state it was
// published with, whatever the master does afterwards.

// Master op kinds. opStrip removes every edge of u; opPublish records an
// Overlay to re-check later; opRebase moves the master onto the Materialize
// of the latest publication, the way compaction does — so the writes since
// that publication are the ones that landed mid-fold.
const (
	opInsert = iota
	opRemove
	opAddKw
	opRemoveKw
	opStrip
	opRebase
	opPublish
	numMasterOps
)

type masterOp struct {
	kind int
	u, v graph.VertexID
	word string
}

// masterWords is the stream's vocabulary: two words the random graphs carry,
// two that no vertex starts with (so adding one interns it).
var masterWords = []string{"wa00", "wb00", "fresh-x", "fresh-y"}

// published is an Overlay and a deep copy of the state it was published with.
type published struct {
	ov    *graph.Overlay
	adj   [][]graph.VertexID
	kw    [][]graph.KeywordID
	words []string
	m     int
}

func record(ov *graph.Overlay) published {
	p := published{ov: ov, words: slices.Clone(ov.Dict().Words()), m: ov.NumEdges()}
	for v := 0; v < ov.NumVertices(); v++ {
		p.adj = append(p.adj, slices.Clone(ov.Neighbors(graph.VertexID(v))))
		p.kw = append(p.kw, slices.Clone(ov.Keywords(graph.VertexID(v))))
	}
	return p
}

func (p published) check(tb testing.TB, step int) {
	tb.Helper()
	if got := record(p.ov); !reflect.DeepEqual(got.adj, p.adj) || !reflect.DeepEqual(got.kw, p.kw) ||
		!slices.Equal(got.words, p.words) || got.m != p.m {
		tb.Fatalf("step %d: a published overlay changed after later writes", step)
	}
}

// sameGraphs compares every row, the edge count, the dictionary and l̂.
func sameGraphs(tb testing.TB, step int, want *graph.Graph, got *graph.Master) {
	tb.Helper()
	if want.NumEdges() != got.NumEdges() {
		tb.Fatalf("step %d: %d edges, want %d", step, got.NumEdges(), want.NumEdges())
	}
	for v := 0; v < want.NumVertices(); v++ {
		id := graph.VertexID(v)
		if !slices.Equal(want.Neighbors(id), got.Neighbors(id)) || want.Degree(id) != got.Degree(id) {
			tb.Fatalf("step %d: adjacency of %d is %v, want %v", step, v, got.Neighbors(id), want.Neighbors(id))
		}
		if !slices.Equal(want.Keywords(id), got.Keywords(id)) {
			tb.Fatalf("step %d: keywords of %d are %v, want %v", step, v, got.Keywords(id), want.Keywords(id))
		}
	}
	if !slices.Equal(want.Dict().Words(), got.Dict().Words()) {
		tb.Fatalf("step %d: dictionary %v, want %v", step, got.Dict().Words(), want.Dict().Words())
	}
	if want.AvgKeywords() != got.AvgKeywords() {
		tb.Fatalf("step %d: l̂ %v, want %v", step, got.AvgKeywords(), want.AvgKeywords())
	}
}

// sameTrees compares the two maintained trees: shape, core numbers and
// postings (Validate checks the postings against each tree's own graph).
func sameTrees(tb testing.TB, step int, want, got *Tree) {
	tb.Helper()
	if err := got.Validate(); err != nil {
		tb.Fatalf("step %d: master tree invalid: %v", step, err)
	}
	if !reflect.DeepEqual(treeShapeByID(want), treeShapeByID(got)) || !slices.Equal(want.Core, got.Core) || want.KMax != got.KMax {
		tb.Fatalf("step %d: the master's tree diverged from the reference tree", step)
	}
}

// runMasterDiff applies ops to g and to a master over g's frozen copy.
func runMasterDiff(tb testing.TB, g *graph.Graph, ops []masterOp) {
	tb.Helper()
	master := graph.NewMaster(g.Freeze(1))
	refTree := BuildAdvanced(g)
	// The master's tree is a fork of an immutable tree, the way a boot
	// forks the stored tree for the writer; the fork's source must come
	// through the stream untouched.
	src := BuildAdvanced(master.Base())
	srcText := treeText(src)
	ref, mm := NewMaintainer(refTree), NewMaintainer(src.Fork(master))
	var pubs []published
	latest := master.Publish() // the publication opRebase folds
	for step, op := range ops {
		var want, got bool
		switch op.kind {
		case opInsert:
			want, got = ref.InsertEdge(op.u, op.v), mm.InsertEdge(op.u, op.v)
		case opRemove:
			want, got = ref.RemoveEdge(op.u, op.v), mm.RemoveEdge(op.u, op.v)
		case opAddKw:
			want, got = ref.AddKeyword(op.u, op.word), mm.AddKeyword(op.u, op.word)
		case opRemoveKw:
			want, got = ref.RemoveKeyword(op.u, op.word), mm.RemoveKeyword(op.u, op.word)
		case opStrip:
			for _, x := range slices.Clone(g.Neighbors(op.u)) {
				if !ref.RemoveEdge(op.u, x) || !mm.RemoveEdge(op.u, x) {
					tb.Fatalf("step %d: stripping edge {%d,%d} had no effect", step, op.u, x)
				}
			}
			if master.Degree(op.u) != 0 {
				tb.Fatalf("step %d: vertex %d kept %d edges", step, op.u, master.Degree(op.u))
			}
		case opRebase:
			fz := latest.Materialize(1)
			if err := fz.Validate(); err != nil {
				tb.Fatalf("step %d: compacted base invalid: %v", step, err)
			}
			master.Rebase(fz)
			// Folding the current state again leaves nothing behind.
			latest = master.Publish()
			master.Rebase(latest.Materialize(1))
			if !master.Empty() {
				tb.Fatalf("step %d: rebasing onto its own materialisation left a delta", step)
			}
		case opPublish:
			latest = master.Publish()
			if master.Dict().Size() == master.Base().Dict().Size() && latest.Dict() != master.Base().Dict() {
				tb.Fatalf("step %d: a publication without dictionary growth cloned the dictionary", step)
			}
			pubs = append(pubs, record(latest))
		}
		if want != got {
			tb.Fatalf("step %d: op %+v changed=%v on the master, %v on the reference", step, op, got, want)
		}
		sameGraphs(tb, step, g, master)
		sameTrees(tb, step, refTree, mm.Tree())
	}
	for _, p := range pubs {
		p.check(tb, len(ops))
	}
	if treeText(src) != srcText {
		tb.Fatal("the master's maintained fork wrote into its source tree")
	}
}

// treeText prints every node of t in pre-order: core, vertices, postings.
func treeText(t *Tree) string {
	var b strings.Builder
	var walk func(n *Node)
	walk = func(n *Node) {
		fmt.Fprintln(&b, n.Core, n.Vertices, n.InvKeys, n.InvOff, n.InvPost)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
	return b.String()
}

// masterStream draws a seeded op stream over n vertices that covers every
// op kind, including duplicates and no-ops (self-loops, absent edges and
// keywords) and new-keyword interning.
func masterStream(rng *rand.Rand, n, count int) []masterOp {
	ops := make([]masterOp, count)
	for i := range ops {
		ops[i] = masterOp{
			kind: rng.Intn(numMasterOps),
			u:    graph.VertexID(rng.Intn(n)),
			v:    graph.VertexID(rng.Intn(n)),
			word: masterWords[rng.Intn(len(masterWords))],
		}
	}
	return ops
}

func TestMasterMatchesGraph(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(40)
		g := testutil.RandomGraph(rng, n, 1+3*rng.Float64(), 8, 3)
		ops := masterStream(rng, n, 150)
		// Pin the cases a short random stream may miss: a duplicate insert,
		// a fresh word added twice, an absent keyword removed, and a
		// vertex stripped of every edge just before a mid-stream rebase.
		ops = append(ops,
			masterOp{kind: opInsert, u: 0, v: 1}, masterOp{kind: opInsert, u: 1, v: 0},
			masterOp{kind: opAddKw, u: 2, word: fmt.Sprintf("seed-%d", seed)},
			masterOp{kind: opAddKw, u: 2, word: fmt.Sprintf("seed-%d", seed)},
			masterOp{kind: opRemoveKw, u: 3, word: "never-interned"},
			masterOp{kind: opPublish}, masterOp{kind: opStrip, u: 0}, masterOp{kind: opRebase},
			masterOp{kind: opInsert, u: 0, v: 2}, masterOp{kind: opPublish})
		ops = append(ops, masterStream(rng, n, 50)...)
		runMasterDiff(t, g, ops)
	}
}

// FuzzMasterOps runs the differential harness on fuzzed op streams. The first
// two bytes pick the graph; every following three bytes are one op (kind,
// u, v — v also picks the keyword).
func FuzzMasterOps(f *testing.F) {
	f.Add([]byte{7, 20, 0, 0, 1, 1, 0, 1, 2, 3, 2, 4, 5, 0, 5, 0, 0, 6, 0, 0, 0, 2, 3})
	f.Add([]byte{1, 12, 2, 1, 3, 6, 0, 0, 4, 1, 0, 5, 0, 0, 3, 1, 3, 1, 2, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		rng := rand.New(rand.NewSource(int64(data[0])))
		n := 2 + int(data[1])%40
		g := testutil.RandomGraph(rng, n, 1+3*rng.Float64(), 8, 3)
		var ops []masterOp
		for b := data[2:]; len(b) >= 3 && len(ops) < 200; b = b[3:] {
			ops = append(ops, masterOp{
				kind: int(b[0]) % numMasterOps,
				u:    graph.VertexID(int(b[1]) % n),
				v:    graph.VertexID(int(b[2]) % n),
				word: masterWords[int(b[2])%len(masterWords)],
			})
		}
		runMasterDiff(t, g, ops)
	})
}
