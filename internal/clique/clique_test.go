package clique

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"github.com/acq-search/acq/internal/graph"
	"github.com/acq-search/acq/internal/testutil"
)

func allVertices(g *graph.Graph) []graph.VertexID {
	out := make([]graph.VertexID, g.NumVertices())
	for i := range out {
		out[i] = graph.VertexID(i)
	}
	return out
}

func TestMaximalOnFig3(t *testing.T) {
	g := testutil.Fig3Graph()
	cliques, ok := Maximal(g, allVertices(g), nil)
	if !ok {
		t.Fatal("cap hit on tiny graph")
	}
	// Expected maximal cliques: {A,B,C,D}, {C,D,E}, {E,G}, {F,G}, {H,I}, {J}.
	var rendered []string
	for _, c := range cliques {
		names := make([]string, len(c))
		for i, v := range c {
			names[i] = g.Label(v)
		}
		sort.Strings(names)
		rendered = append(rendered, joinStrings(names))
	}
	sort.Strings(rendered)
	want := []string{"A,B,C,D", "C,D,E", "E,G", "F,G", "H,I", "J"}
	if !reflect.DeepEqual(rendered, want) {
		t.Fatalf("cliques = %v, want %v", rendered, want)
	}
}

func joinStrings(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += ","
		}
		out += s
	}
	return out
}

func TestMaximalEmptyAndSingle(t *testing.T) {
	g := graph.NewBuilder().MustBuild()
	cliques, ok := Maximal(g, nil, nil)
	if !ok || len(cliques) != 0 {
		t.Fatalf("empty graph: %v %v", cliques, ok)
	}
	b := graph.NewBuilder()
	b.AddVertex("solo")
	g = b.MustBuild()
	cliques, ok = Maximal(g, allVertices(g), nil)
	if !ok || len(cliques) != 1 || len(cliques[0]) != 1 {
		t.Fatalf("singleton: %v", cliques)
	}
}

// bruteMaximal enumerates maximal cliques by subset testing (tiny n only).
func bruteMaximal(g *graph.Graph, n int) map[string]bool {
	isClique := func(mask int) bool {
		for i := 0; i < n; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			for j := i + 1; j < n; j++ {
				if mask&(1<<j) == 0 {
					continue
				}
				if !g.HasEdge(graph.VertexID(i), graph.VertexID(j)) {
					return false
				}
			}
		}
		return true
	}
	out := map[string]bool{}
	for mask := 1; mask < 1<<n; mask++ {
		if !isClique(mask) {
			continue
		}
		maximal := true
		for v := 0; v < n; v++ {
			if mask&(1<<v) == 0 && isClique(mask|1<<v) {
				maximal = false
				break
			}
		}
		if maximal {
			key := ""
			for v := 0; v < n; v++ {
				if mask&(1<<v) != 0 {
					key += string(rune('a' + v))
				}
			}
			out[key] = true
		}
	}
	return out
}

// Property: Bron–Kerbosch output matches brute-force enumeration.
func TestMaximalMatchesBruteQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(9)
		b := graph.NewBuilder()
		for i := 0; i < n; i++ {
			b.AddVertex("")
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.45 {
					b.AddEdge(graph.VertexID(i), graph.VertexID(j))
				}
			}
		}
		g := b.MustBuild()
		cliques, ok := Maximal(g, allVertices(g), nil)
		if !ok {
			return false
		}
		want := bruteMaximal(g, n)
		if len(cliques) != len(want) {
			return false
		}
		for _, c := range cliques {
			key := ""
			for _, v := range c {
				key += string(rune('a' + int(v)))
			}
			if !want[key] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestCommunityOfPercolation(t *testing.T) {
	// Two K4s sharing a triangle percolate into one 4-clique community;
	// a K4 attached by a single edge does not.
	b := graph.NewBuilder()
	for i := 0; i < 9; i++ {
		b.AddVertex("")
	}
	k4 := func(vs ...graph.VertexID) {
		for i := range vs {
			for j := i + 1; j < len(vs); j++ {
				b.AddEdge(vs[i], vs[j])
			}
		}
	}
	k4(0, 1, 2, 3)
	k4(1, 2, 3, 4)  // shares triangle {1,2,3}
	k4(5, 6, 7, 8)  // far away
	b.AddEdge(4, 5) // weak bridge
	g := b.MustBuild()

	comm, _ := CommunityOf(graph.NewSetOps(g), allVertices(g), 0, 4, nil)
	if len(comm) != 5 {
		t.Fatalf("4-clique community of 0 = %v, want {0..4}", comm)
	}
	for _, v := range comm {
		if v > 4 {
			t.Fatalf("percolated across the bridge: %v", comm)
		}
	}
	// k=3: the two K4s still form one community; the bridge edge is not a
	// triangle, so 5..8 stay separate.
	comm, _ = CommunityOf(graph.NewSetOps(g), allVertices(g), 5, 3, nil)
	if len(comm) != 4 || comm[0] != 5 {
		t.Fatalf("3-clique community of 5 = %v", comm)
	}
	// q in no k-clique.
	if got, _ := CommunityOf(graph.NewSetOps(g), allVertices(g), 4, 5, nil); got != nil {
		t.Fatalf("5-clique community = %v, want nil", got)
	}
}

func TestCommunityOfFig3(t *testing.T) {
	g := testutil.Fig3Graph()
	a, _ := g.VertexByLabel("A")
	e, _ := g.VertexByLabel("E")
	// 3-clique communities: {A,B,C,D} and {C,D,E} share the pair {C,D}
	// (overlap 2 ≥ k−1) → one community {A,B,C,D,E}.
	comm, _ := CommunityOf(graph.NewSetOps(g), allVertices(g), a, 3, nil)
	got := testutil.LabelSet(g, comm)
	if len(got) != 5 || !got["E"] {
		t.Fatalf("3-clique community of A = %v", got)
	}
	// 4-clique community of E: none (E's largest clique is the triangle).
	if got, _ := CommunityOf(graph.NewSetOps(g), allVertices(g), e, 4, nil); got != nil {
		t.Fatal("E must have no 4-clique community")
	}
}

// Property: the community contains q, every member is in some clique of size
// ≥ k inside the community, and restricting cand restricts the community.
func TestCommunityOfSoundQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(rng, 4+rng.Intn(20), 2+3*rng.Float64(), 5, 2)
		q := graph.VertexID(rng.Intn(g.NumVertices()))
		k := 3
		comm, _ := CommunityOf(graph.NewSetOps(g), allVertices(g), q, k, nil)
		if comm == nil {
			return true
		}
		in := map[graph.VertexID]bool{}
		hasQ := false
		for _, v := range comm {
			in[v] = true
			hasQ = hasQ || v == q
		}
		if !hasQ {
			return false
		}
		// Every member must be in a triangle inside the community.
		for _, v := range comm {
			found := false
			ns := g.Neighbors(v)
			for i := 0; i < len(ns) && !found; i++ {
				if !in[ns[i]] {
					continue
				}
				for j := i + 1; j < len(ns) && !found; j++ {
					if in[ns[j]] && g.HasEdge(ns[i], ns[j]) {
						found = true
					}
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
