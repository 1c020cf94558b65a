package truss

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/acq-search/acq/internal/graph"
	"github.com/acq-search/acq/internal/testutil"
)

func clique(n int) *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddVertex("")
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(graph.VertexID(i), graph.VertexID(j))
		}
	}
	return b.MustBuild()
}

func TestDecomposeClique(t *testing.T) {
	// In K_n every edge lies in n−2 triangles → trussness n.
	for n := 3; n <= 6; n++ {
		d := Decompose(clique(n))
		for e, tr := range d.Trussness {
			if tr != int32(n) {
				t.Fatalf("K%d: trussness(e%d) = %d, want %d", n, e, tr, n)
			}
		}
		if d.MaxTruss != int32(n) {
			t.Fatalf("K%d: maxtruss = %d", n, d.MaxTruss)
		}
	}
}

func TestDecomposePathAndTriangleTail(t *testing.T) {
	// Path: no triangles → every edge trussness 2.
	b := graph.NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddVertex("")
	}
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	d := Decompose(b.MustBuild())
	for _, tr := range d.Trussness {
		if tr != 2 {
			t.Fatalf("path trussness = %v", d.Trussness)
		}
	}

	// Triangle with a pendant edge: triangle edges 3, pendant 2.
	b = graph.NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddVertex("")
	}
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(2, 3)
	d = Decompose(b.MustBuild())
	e01, _ := d.EdgeIndex(0, 1)
	e23, _ := d.EdgeIndex(2, 3)
	if d.Trussness[e01] != 3 || d.Trussness[e23] != 2 {
		t.Fatalf("trussness = %v", d.Trussness)
	}
}

func TestDecomposeEmptyAndEdgeless(t *testing.T) {
	d := Decompose(graph.NewBuilder().MustBuild())
	if len(d.Edges) != 0 || d.MaxTruss != 0 {
		t.Fatalf("empty graph: %+v", d)
	}
	b := graph.NewBuilder()
	b.AddVertex("solo")
	d = Decompose(b.MustBuild())
	if len(d.Edges) != 0 {
		t.Fatal("edgeless graph has edges")
	}
}

func TestVertexTrussness(t *testing.T) {
	g := testutil.Fig3Graph() // K4 on A..D plus tails
	d := Decompose(g)
	vt := d.VertexTrussness(g.NumVertices())
	a, _ := g.VertexByLabel("A")
	fv, _ := g.VertexByLabel("F")
	j, _ := g.VertexByLabel("J")
	if vt[a] != 4 {
		t.Fatalf("vertex trussness of A = %d, want 4 (K4)", vt[a])
	}
	if vt[fv] != 2 {
		t.Fatalf("vertex trussness of F = %d, want 2", vt[fv])
	}
	if vt[j] != 0 {
		t.Fatalf("vertex trussness of isolated J = %d, want 0", vt[j])
	}
}

// bruteTrussness computes edge trussness by repeated fixpoint filtering.
func bruteTrussness(g *graph.Graph) map[[2]graph.VertexID]int32 {
	type edge = [2]graph.VertexID
	edges := map[edge]bool{}
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(graph.VertexID(u)) {
			if graph.VertexID(u) < v {
				edges[edge{graph.VertexID(u), v}] = true
			}
		}
	}
	out := map[edge]int32{}
	for e := range edges {
		out[e] = 2
	}
	for k := int32(3); ; k++ {
		// Peel to the k-truss fixpoint.
		alive := map[edge]bool{}
		for e := range edges {
			alive[e] = true
		}
		support := func(e edge) int32 {
			s := int32(0)
			forEachCommonNeighbor(g, e[0], e[1], func(w graph.VertexID) {
				a, b := e[0], e[1]
				ea := edge{a, w}
				if a > w {
					ea = edge{w, a}
				}
				eb := edge{b, w}
				if b > w {
					eb = edge{w, b}
				}
				if alive[ea] && alive[eb] {
					s++
				}
			})
			return s
		}
		for changed := true; changed; {
			changed = false
			for e := range alive {
				if alive[e] && support(e) < k-2 {
					alive[e] = false
					changed = true
				}
			}
		}
		any := false
		for e, a := range alive {
			if a {
				out[e] = k
				any = true
			}
		}
		if !any {
			return out
		}
	}
}

// Property: peeling decomposition matches the brute-force fixpoint
// definition on random graphs.
func TestDecomposeMatchesBruteQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(rng, 3+rng.Intn(25), 1+4*rng.Float64(), 5, 2)
		d := Decompose(g)
		want := bruteTrussness(g)
		for e, ends := range d.Edges {
			if d.Trussness[e] != want[ends] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCommunityOf(t *testing.T) {
	g := testutil.Fig3Graph()
	all := make([]graph.VertexID, g.NumVertices())
	for i := range all {
		all[i] = graph.VertexID(i)
	}
	a, _ := g.VertexByLabel("A")
	e, _ := g.VertexByLabel("E")

	// 4-truss containing A = the K4 (6 edges).
	comm, edges := CommunityOf(graph.NewSetOps(g), all, a, 4, nil)
	if got := testutil.LabelSet(g, comm); len(got) != 4 || !got["D"] {
		t.Fatalf("4-truss of A = %v", got)
	}
	if len(edges) != 6 {
		t.Fatalf("4-truss edges = %d, want 6", len(edges))
	}
	// E is in no 4-truss.
	if got, _ := CommunityOf(graph.NewSetOps(g), all, e, 4, nil); got != nil {
		t.Fatal("E must not be in a 4-truss")
	}
	// 3-truss containing E: E-C-D triangle attaches to the K4 through the
	// shared C-D edge, so the 3-truss community of E includes A..E.
	comm, _ = CommunityOf(graph.NewSetOps(g), all, e, 3, nil)
	if got := testutil.LabelSet(g, comm); len(got) != 5 || !got["E"] {
		t.Fatalf("3-truss of E = %v", got)
	}
	// Candidate restriction is honoured.
	abc := testutil.Labels(g, "A", "B", "C")
	comm, _ = CommunityOf(graph.NewSetOps(g), abc, a, 3, nil)
	if got := testutil.LabelSet(g, comm); len(got) != 3 {
		t.Fatalf("restricted 3-truss = %v", got)
	}
	// q outside cand.
	if got, _ := CommunityOf(graph.NewSetOps(g), abc, e, 3, nil); got != nil {
		t.Fatal("q outside cand must be nil")
	}
}

// Property: every returned community is a valid k-truss (edge support ≥ k−2
// inside it), connected, and contains q.
func TestCommunityOfSoundQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(rng, 4+rng.Intn(30), 2+4*rng.Float64(), 5, 2)
		all := make([]graph.VertexID, g.NumVertices())
		for i := range all {
			all[i] = graph.VertexID(i)
		}
		q := graph.VertexID(rng.Intn(g.NumVertices()))
		k := 3 + rng.Intn(2)
		comm, edges := CommunityOf(graph.NewSetOps(g), all, q, k, nil)
		if comm == nil {
			return edges == nil
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
		// Every community edge must close ≥ k−2 triangles using community
		// edges only (a k-truss is an edge subgraph).
		alive := map[[2]graph.VertexID]bool{}
		for _, e := range edges {
			if !in[e[0]] || !in[e[1]] {
				return false
			}
			alive[e] = true
		}
		for e := range alive {
			s := 0
			forEachCommonNeighbor(g, e[0], e[1], func(w graph.VertexID) {
				ea := [2]graph.VertexID{e[0], w}
				if w < e[0] {
					ea = [2]graph.VertexID{w, e[0]}
				}
				eb := [2]graph.VertexID{e[1], w}
				if w < e[1] {
					eb = [2]graph.VertexID{w, e[1]}
				}
				if alive[ea] && alive[eb] {
					s++
				}
			})
			if s < k-2 {
				return false
			}
		}
		// Vertices are exactly the endpoints of community edges, connected
		// via those edges from q.
		reach := map[graph.VertexID]bool{q: true}
		frontier := []graph.VertexID{q}
		for len(frontier) > 0 {
			v := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			for e := range alive {
				var other graph.VertexID = -1
				if e[0] == v {
					other = e[1]
				} else if e[1] == v {
					other = e[0]
				}
				if other >= 0 && !reach[other] {
					reach[other] = true
					frontier = append(frontier, other)
				}
			}
		}
		return len(reach) == len(comm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
