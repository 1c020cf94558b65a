package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// buildTestGraph assembles a messy little attributed graph exercising every
// View code path: labelled and unlabelled vertices, empty keyword sets, an
// isolated vertex.
func buildTestGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder()
	b.AddVertex("a", "x", "y")
	b.AddVertex("b", "y")
	b.AddVertex("", "x", "z", "w")
	b.AddVertex("d")
	b.AddVertex("e", "w")
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randomTestGraph builds a random graph directly (testutil depends on this
// package, so it cannot be imported here).
func randomTestGraph(rng *rand.Rand, n int) *Graph {
	b := NewBuilder()
	vocab := []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"}
	for v := 0; v < n; v++ {
		kws := make([]string, 0, 3)
		for i := 0; i < 3; i++ {
			if rng.Intn(2) == 0 {
				kws = append(kws, vocab[rng.Intn(len(vocab))])
			}
		}
		b.AddVertex(fmt.Sprintf("v%d", v), kws...)
	}
	m := int(2.5 * float64(n))
	for i := 0; i < m; i++ {
		b.AddEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)))
	}
	return b.MustBuild()
}

// requireSameView fails unless a and b answer every View method identically.
func requireSameView(t *testing.T, label string, a, b View) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("%s: sizes differ: %d/%d vs %d/%d", label, a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
	}
	if a.AvgDegree() != b.AvgDegree() || a.AvgKeywords() != b.AvgKeywords() {
		t.Fatalf("%s: averages differ", label)
	}
	if a.Dict().Size() != b.Dict().Size() {
		t.Fatalf("%s: dictionary sizes differ", label)
	}
	n := a.NumVertices()
	for v := 0; v < n; v++ {
		id := VertexID(v)
		if a.Degree(id) != b.Degree(id) {
			t.Fatalf("%s: degree of %d differs", label, v)
		}
		if !reflect.DeepEqual(append([]VertexID{}, a.Neighbors(id)...), append([]VertexID{}, b.Neighbors(id)...)) {
			t.Fatalf("%s: neighbors of %d differ: %v vs %v", label, v, a.Neighbors(id), b.Neighbors(id))
		}
		if !reflect.DeepEqual(append([]KeywordID{}, a.Keywords(id)...), append([]KeywordID{}, b.Keywords(id)...)) {
			t.Fatalf("%s: keywords of %d differ", label, v)
		}
		if a.Label(id) != b.Label(id) {
			t.Fatalf("%s: label of %d differs", label, v)
		}
		if !reflect.DeepEqual(a.KeywordStrings(id), b.KeywordStrings(id)) {
			t.Fatalf("%s: keyword strings of %d differ", label, v)
		}
		for u := 0; u < n; u++ {
			if a.HasEdge(id, VertexID(u)) != b.HasEdge(id, VertexID(u)) {
				t.Fatalf("%s: HasEdge(%d, %d) differs", label, v, u)
			}
		}
		set := a.Keywords(id)
		if a.HasAllKeywords(id, set) != b.HasAllKeywords(id, set) ||
			a.CountSharedKeywords(id, set) != b.CountSharedKeywords(id, set) {
			t.Fatalf("%s: keyword-set predicates differ at %d", label, v)
		}
		for w := 0; w < a.Dict().Size(); w++ {
			if a.HasKeyword(id, KeywordID(w)) != b.HasKeyword(id, KeywordID(w)) {
				t.Fatalf("%s: HasKeyword(%d, %d) differs", label, v, w)
			}
		}
	}
	for _, name := range []string{"a", "b", "d", "missing", ""} {
		av, aok := a.VertexByLabel(name)
		bv, bok := b.VertexByLabel(name)
		if av != bv || aok != bok {
			t.Fatalf("%s: VertexByLabel(%q) differs", label, name)
		}
	}
}

// TestFreezeEquivalent: a frozen view must answer every View method exactly
// like the mutable graph it was frozen from, at every worker count.
func TestFreezeEquivalent(t *testing.T) {
	g := buildTestGraph(t)
	for _, workers := range []int{1, 2, 8, 0} {
		f := g.Freeze(workers)
		if err := f.Validate(); err != nil {
			t.Fatalf("workers=%d: invalid frozen graph: %v", workers, err)
		}
		requireSameView(t, fmt.Sprintf("workers=%d", workers), g, f)
	}
}

// TestFreezeEquivalentRandom repeats the equivalence on random graphs.
func TestFreezeEquivalentRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 10; i++ {
		g := randomTestGraph(rng, 5+rng.Intn(60))
		f := g.Freeze(1 + rng.Intn(4))
		if err := f.Validate(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		requireSameView(t, fmt.Sprintf("random %d", i), g, f)
	}
}

// TestFrozenIsolation: mutating the master after Freeze must not change the
// frozen view — including interning new dictionary words.
func TestFrozenIsolation(t *testing.T) {
	g := buildTestGraph(t)
	f := g.Freeze(1)
	wantEdges := f.NumEdges()
	wantDict := f.Dict().Size()
	wantNeighbors := append([]VertexID(nil), f.Neighbors(0)...)

	g.InsertEdge(0, 3)
	g.RemoveEdge(0, 1)
	g.AddKeyword(3, "brand-new-word")
	g.RemoveKeyword(0, "x")

	if f.NumEdges() != wantEdges {
		t.Fatalf("frozen edge count moved: %d -> %d", wantEdges, f.NumEdges())
	}
	if f.Dict().Size() != wantDict {
		t.Fatalf("frozen dictionary moved: %d -> %d", wantDict, f.Dict().Size())
	}
	if _, ok := f.Dict().Lookup("brand-new-word"); ok {
		t.Fatal("frozen dictionary absorbed a word interned after Freeze")
	}
	if !reflect.DeepEqual(wantNeighbors, f.Neighbors(0)) {
		t.Fatalf("frozen adjacency moved: %v -> %v", wantNeighbors, f.Neighbors(0))
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFrozenSizeBytes pins the CSR payload accounting: 4 bytes per offset
// entry and per payload element.
func TestFrozenSizeBytes(t *testing.T) {
	g := buildTestGraph(t)
	f := g.Freeze(1)
	n := g.NumVertices()
	kwTotal := 0
	for v := 0; v < n; v++ {
		kwTotal += len(g.Keywords(VertexID(v)))
	}
	want := 4 * (2*(n+1) + 2*g.NumEdges() + kwTotal)
	if got := f.SizeBytes(); got != want {
		t.Fatalf("SizeBytes = %d, want %d", got, want)
	}
}

// TestFromFlatRoundTrip: Freeze → Flat → NewFrozenFromFlat must reproduce
// the graph, labels, dictionary and edge count included.
func TestFromFlatRoundTrip(t *testing.T) {
	g := buildTestGraph(t)
	f := g.Freeze(1)
	adjOff, adj, kwOff, kw := f.Flat()
	labels := make([]string, g.NumVertices())
	for v := range labels {
		labels[v] = g.Label(VertexID(v))
	}
	f2, err := NewFrozenFromFlat(labels, f.Dict().Words(),
		append([]int32(nil), kwOff...), append([]KeywordID(nil), kw...),
		append([]int32(nil), adjOff...), append([]VertexID(nil), adj...))
	if err != nil {
		t.Fatal(err)
	}
	requireSameView(t, "from-flat", g, f2)
	if v, ok := f2.VertexByLabel("e"); !ok || v != 4 {
		t.Fatalf("label index lost: %d %v", v, ok)
	}
}

// TestFromFlatRejectsCorrupt: malformed flat arrays must fail loudly in
// NewFrozenFromFlat.
func TestFromFlatRejectsCorrupt(t *testing.T) {
	g := buildTestGraph(t)
	f := g.Freeze(1)
	adjOff, adj, kwOff, kw := f.Flat()
	labels := make([]string, g.NumVertices())
	cp := func() ([]int32, []VertexID, []int32, []KeywordID) {
		return append([]int32(nil), adjOff...), append([]VertexID(nil), adj...),
			append([]int32(nil), kwOff...), append([]KeywordID(nil), kw...)
	}
	words := f.Dict().Words()
	load := func(words []string, ko []int32, kws []KeywordID, ao []int32, ad []VertexID) error {
		_, err := NewFrozenFromFlat(labels, words, ko, kws, ao, ad)
		return err
	}

	ao, ad, ko, kws := cp()
	ad[0] = VertexID(g.NumVertices()) // out-of-range neighbour
	if load(words, ko, kws, ao, ad) == nil {
		t.Fatal("out-of-range neighbour accepted")
	}
	ao, ad, ko, kws = cp()
	ao[1] = ao[2] + 1 // non-monotone offsets
	if load(words, ko, kws, ao, ad) == nil {
		t.Fatal("non-monotone offsets accepted")
	}
	ao, ad, ko, kws = cp()
	if len(kws) > 0 {
		kws[0] = KeywordID(len(words)) // out-of-range keyword
		if load(words, ko, kws, ao, ad) == nil {
			t.Fatal("out-of-range keyword accepted")
		}
	}
	ao, ad, ko, kws = cp()
	if load(append(words[:len(words):len(words)], words[0]), ko, kws, ao, ad) == nil {
		t.Fatal("duplicate dictionary word accepted")
	}
}
