package graph

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func buildTriangleWithTail(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder()
	b.AddVertex("a", "music", "art")
	b.AddVertex("b", "music")
	b.AddVertex("c", "music", "art", "yoga")
	b.AddVertex("d", "yoga")
	b.AddEdgeByLabel("a", "b")
	b.AddEdgeByLabel("b", "c")
	b.AddEdgeByLabel("a", "c")
	b.AddEdgeByLabel("c", "d")
	return b.MustBuild()
}

func TestBuilderBasics(t *testing.T) {
	g := buildTriangleWithTail(t)
	if g.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d, want 4", g.NumVertices())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	a, _ := g.VertexByLabel("a")
	c, _ := g.VertexByLabel("c")
	if g.Degree(a) != 2 || g.Degree(c) != 3 {
		t.Fatalf("degrees: a=%d c=%d", g.Degree(a), g.Degree(c))
	}
	if !g.HasEdge(a, c) || g.HasEdge(a, a) {
		t.Fatal("HasEdge wrong")
	}
	if got := g.KeywordStrings(c); len(got) != 3 {
		t.Fatalf("keywords of c = %v", got)
	}
}

func TestBuilderDeduplicatesEdgesAndSelfLoops(t *testing.T) {
	b := NewBuilder()
	u := b.AddVertex("u")
	v := b.AddVertex("v")
	b.AddEdge(u, v)
	b.AddEdge(v, u)
	b.AddEdge(u, v)
	b.AddEdge(u, u)
	g := b.MustBuild()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1 after dedup", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderRejectsOutOfRangeEdge(t *testing.T) {
	b := NewBuilder()
	b.AddVertex("only")
	b.AddEdge(0, 5)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted out-of-range edge")
	}
}

func TestBuilderRejectsDuplicateLabels(t *testing.T) {
	b := NewBuilder()
	b.AddVertex("same")
	b.AddVertex("same")
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted duplicate labels")
	}
}

func TestBuilderDuplicateKeywordsDeduped(t *testing.T) {
	b := NewBuilder()
	v := b.AddVertex("v", "x", "x", "y", "x")
	g := b.MustBuild()
	if len(g.Keywords(v)) != 2 {
		t.Fatalf("keywords = %v, want 2 distinct", g.KeywordStrings(v))
	}
}

func TestMutation(t *testing.T) {
	g := buildTriangleWithTail(t)
	a, _ := g.VertexByLabel("a")
	d, _ := g.VertexByLabel("d")
	if !g.InsertEdge(a, d) {
		t.Fatal("InsertEdge returned false for new edge")
	}
	if g.InsertEdge(a, d) {
		t.Fatal("InsertEdge returned true for duplicate")
	}
	if g.InsertEdge(a, a) {
		t.Fatal("InsertEdge accepted self-loop")
	}
	if g.NumEdges() != 5 {
		t.Fatalf("NumEdges = %d, want 5", g.NumEdges())
	}
	if !g.RemoveEdge(a, d) || g.RemoveEdge(a, d) {
		t.Fatal("RemoveEdge wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}

	if !g.AddKeyword(a, "dance") || g.AddKeyword(a, "dance") {
		t.Fatal("AddKeyword wrong")
	}
	if !g.HasKeyword(a, mustID(t, g, "dance")) {
		t.Fatal("keyword not attached")
	}
	if !g.RemoveKeyword(a, "dance") || g.RemoveKeyword(a, "dance") {
		t.Fatal("RemoveKeyword wrong")
	}
	if g.RemoveKeyword(a, "never-interned") {
		t.Fatal("RemoveKeyword invented a keyword")
	}
}

func mustID(t *testing.T, g *Graph, w string) KeywordID {
	t.Helper()
	id, ok := g.Dict().Lookup(w)
	if !ok {
		t.Fatalf("keyword %q not interned", w)
	}
	return id
}

func TestHasAllKeywordsAndCount(t *testing.T) {
	g := buildTriangleWithTail(t)
	c, _ := g.VertexByLabel("c")
	b, _ := g.VertexByLabel("b")
	music := mustID(t, g, "music")
	art := mustID(t, g, "art")
	yoga := mustID(t, g, "yoga")
	set := SortKeywordSet([]KeywordID{music, art, yoga})
	if !g.HasAllKeywords(c, set) {
		t.Fatal("c should contain all three")
	}
	if g.HasAllKeywords(b, set) {
		t.Fatal("b should not contain all three")
	}
	if got := g.CountSharedKeywords(b, set); got != 1 {
		t.Fatalf("CountSharedKeywords(b) = %d, want 1", got)
	}
	if !g.HasAllKeywords(b, nil) {
		t.Fatal("empty set must always be contained")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := buildTriangleWithTail(t)
	c := g.Clone()
	a, _ := g.VertexByLabel("a")
	d, _ := g.VertexByLabel("d")
	g.InsertEdge(a, d)
	g.AddKeyword(a, "extra")
	if c.NumEdges() != 4 {
		t.Fatal("clone saw the mutation")
	}
	if _, ok := c.Dict().Lookup("extra"); ok {
		t.Fatal("clone dictionary saw the mutation")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStripKeywords(t *testing.T) {
	g := buildTriangleWithTail(t)
	s := g.StripKeywords()
	for v := 0; v < s.NumVertices(); v++ {
		if len(s.Keywords(VertexID(v))) != 0 {
			t.Fatalf("vertex %d still has keywords", v)
		}
	}
	if s.NumEdges() != g.NumEdges() {
		t.Fatal("StripKeywords changed structure")
	}
}

func TestComponentOfAndComponents(t *testing.T) {
	g := buildTriangleWithTail(t)
	ops := NewSetOps(g)
	a, _ := g.VertexByLabel("a")
	b, _ := g.VertexByLabel("b")
	c, _ := g.VertexByLabel("c")
	d, _ := g.VertexByLabel("d")

	comp := ops.ComponentOf([]VertexID{a, b, d}, a)
	// d is only reachable via c, which is excluded.
	if len(comp) != 2 {
		t.Fatalf("component = %v, want {a,b}", comp)
	}
	if got := ops.ComponentOf([]VertexID{a, b}, d); got != nil {
		t.Fatalf("ComponentOf with q outside cand = %v, want nil", got)
	}
	comps := ops.Components([]VertexID{a, b, c, d})
	if len(comps) != 1 || len(comps[0]) != 4 {
		t.Fatalf("components = %v", comps)
	}
	comps = ops.Components([]VertexID{a, d})
	if len(comps) != 2 {
		t.Fatalf("components = %v, want two singletons", comps)
	}
}

func TestPeelToMinDegree(t *testing.T) {
	g := buildTriangleWithTail(t)
	ops := NewSetOps(g)
	all := []VertexID{0, 1, 2, 3}
	surv := ops.PeelToMinDegree(all, 2)
	if len(surv) != 3 {
		t.Fatalf("2-core = %v, want the triangle", surv)
	}
	if got := ops.PeelToMinDegree(all, 3); len(got) != 0 {
		t.Fatalf("3-core = %v, want empty", got)
	}
	if got := ops.PeelToMinDegree(all, 1); len(got) != 4 {
		t.Fatalf("1-core = %v, want all", got)
	}
}

func TestInducedCounts(t *testing.T) {
	g := buildTriangleWithTail(t)
	ops := NewSetOps(g)
	if m := ops.InducedEdgeCount([]VertexID{0, 1, 2}); m != 3 {
		t.Fatalf("induced edges = %d, want 3", m)
	}
	degs := ops.InducedDegrees([]VertexID{0, 1, 2, 3})
	sort.Ints(degs)
	want := []int{1, 2, 2, 3}
	for i := range want {
		if degs[i] != want[i] {
			t.Fatalf("induced degrees = %v, want %v", degs, want)
		}
	}
}

func TestMarkerResetSemantics(t *testing.T) {
	mk := NewMarker(4)
	mk.Add(1)
	mk.Add(2)
	if !mk.Has(1) || mk.Has(0) {
		t.Fatal("marker membership wrong")
	}
	mk.Remove(1)
	if mk.Has(1) || !mk.Has(2) {
		t.Fatal("remove wrong")
	}
	mk.Reset()
	if mk.Has(2) {
		t.Fatal("reset did not clear")
	}
	mk.Grow(10)
	mk.Add(9)
	if !mk.Has(9) {
		t.Fatal("grow lost membership support")
	}
}

func TestIntersectVertices(t *testing.T) {
	got := IntersectVertices([]VertexID{1, 3, 5, 9}, []VertexID{2, 3, 4, 5, 10})
	if len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Fatalf("intersect = %v", got)
	}
	if got := IntersectVertices(nil, []VertexID{1}); len(got) != 0 {
		t.Fatalf("intersect with nil = %v", got)
	}
}

// Property: on random graphs, peeling yields a set where every vertex has
// induced degree ≥ k, and it is the unique maximal such subset (adding back
// any removed vertex violates maximality of the fixpoint).
func TestPeelPropertyQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		b := NewBuilder()
		for i := 0; i < n; i++ {
			b.AddVertex("")
		}
		for e := 0; e < n*2; e++ {
			b.AddEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)))
		}
		g := b.MustBuild()
		ops := NewSetOps(g)
		all := make([]VertexID, n)
		for i := range all {
			all[i] = VertexID(i)
		}
		k := 1 + rng.Intn(4)
		surv := ops.PeelToMinDegree(all, k)
		for _, d := range ops.InducedDegrees(surv) {
			if d < k {
				return false
			}
		}
		// Maximality: the survivors must be a superset of any vertex set
		// with min degree ≥ k. Check against a brute-force fixpoint.
		brute := bruteKCore(g, k)
		if len(brute) != len(surv) {
			return false
		}
		in := map[VertexID]bool{}
		for _, v := range surv {
			in[v] = true
		}
		for _, v := range brute {
			if !in[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func bruteKCore(g *Graph, k int) []VertexID {
	alive := make([]bool, g.NumVertices())
	for i := range alive {
		alive[i] = true
	}
	for changed := true; changed; {
		changed = false
		for v := 0; v < g.NumVertices(); v++ {
			if !alive[v] {
				continue
			}
			d := 0
			for _, u := range g.Neighbors(VertexID(v)) {
				if alive[u] {
					d++
				}
			}
			if d < k {
				alive[v] = false
				changed = true
			}
		}
	}
	var out []VertexID
	for v, a := range alive {
		if a {
			out = append(out, VertexID(v))
		}
	}
	return out
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := buildTriangleWithTail(t)
	// Corrupt: unsorted adjacency.
	g.adj[2][0], g.adj[2][1] = g.adj[2][1], g.adj[2][0]
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted unsorted adjacency")
	}
}

func TestDict(t *testing.T) {
	d := NewDict()
	a := d.Intern("alpha")
	if d.Intern("alpha") != a {
		t.Fatal("Intern not idempotent")
	}
	if _, ok := d.Lookup("beta"); ok {
		t.Fatal("Lookup invented a word")
	}
	b := d.Intern("beta")
	if d.Word(b) != "beta" || d.Size() != 2 {
		t.Fatal("dict bookkeeping wrong")
	}
	if d.InternBytes([]byte("beta")) != b {
		t.Fatal("InternBytes disagrees with Intern")
	}
	buf := []byte("gamma")
	c := d.InternBytes(buf)
	copy(buf, "delta")
	if d.Word(c) != "gamma" || d.Size() != 3 {
		t.Fatal("InternBytes kept a reference to the caller's buffer")
	}
	got, missing := d.LookupAll([]string{"alpha", "nope", "beta"})
	if len(got) != 2 || missing != 1 {
		t.Fatalf("LookupAll = %v missing=%d", got, missing)
	}
}
