package core

import (
	"errors"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"

	"github.com/acq-search/acq/internal/cancel"
	"github.com/acq-search/acq/internal/graph"
	"github.com/acq-search/acq/internal/testutil"
)

func TestCliqueSearchFig3(t *testing.T) {
	g := testutil.Fig3Graph()
	tr := BuildAdvanced(g)
	a, _ := g.VertexByLabel("A")

	// k=4: only the K4 {A,B,C,D}; shared keyword {x}.
	res, err := CliqueSearch(bgCtx, tr, a, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallback || res.LabelSize != 1 {
		t.Fatalf("result = %+v", res)
	}
	label, members := labelsOfCommunity(g, res.Communities[0])
	if !reflect.DeepEqual(label, []string{"x"}) || !reflect.DeepEqual(members, []string{"A", "B", "C", "D"}) {
		t.Fatalf("label=%v members=%v", label, members)
	}

	// k=3, S={x,y}: triangles among x∧y vertices: {A,C,D}.
	res, err = CliqueSearch(bgCtx, tr, a, 3, kws(g, "x", "y"))
	if err != nil {
		t.Fatal(err)
	}
	_, members = labelsOfCommunity(g, res.Communities[0])
	if !reflect.DeepEqual(members, []string{"A", "C", "D"}) {
		t.Fatalf("members = %v", members)
	}
}

func TestCliqueSearchErrors(t *testing.T) {
	g := testutil.Fig3Graph()
	tr := BuildAdvanced(g)
	j, _ := g.VertexByLabel("J")
	a, _ := g.VertexByLabel("A")
	if _, err := CliqueSearch(bgCtx, tr, j, 3, nil); !errors.Is(err, ErrNoKCore) {
		t.Fatalf("err = %v", err)
	}
	if _, err := CliqueSearch(bgCtx, tr, a, 9, nil); !errors.Is(err, ErrNoKCore) {
		t.Fatalf("err = %v", err)
	}
	if _, err := CliqueSearch(bgCtx, tr, graph.VertexID(-3), 3, nil); !errors.Is(err, ErrVertexOutOfRange) {
		t.Fatalf("err = %v", err)
	}
	// k beyond int32 (on 64-bit ints): the core bound must not wrap around
	// to a small or negative one, as 1<<32 + 3 would to 3 and 1<<31 to a
	// negative bound.
	var bigK []int64
	if strconv.IntSize == 64 {
		bigK = []int64{1<<32 + 3, 1 << 31}
	}
	for _, big := range bigK {
		k := int(big)
		if _, err := CliqueSearch(bgCtx, tr, a, k, nil); !errors.Is(err, ErrNoKCore) {
			t.Fatalf("CliqueSearch k=%d: err = %v, want ErrNoKCore", k, err)
		}
		if _, err := Dec(bgCtx, tr, a, k, nil, DefaultOptions()); !errors.Is(err, ErrNoKCore) {
			t.Fatalf("Dec k=%d: err = %v, want ErrNoKCore", k, err)
		}
	}
}

// Property: every clique community member shares the AC-label and q is a
// member; the community is connected.
func TestCliqueSearchSoundQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(rng, 5+rng.Intn(25), 2+3*rng.Float64(), 6, 3)
		tr := BuildAdvanced(g)
		ops := graph.NewSetOps(g)
		var q graph.VertexID = -1
		for _, v := range rng.Perm(g.NumVertices()) {
			if tr.Core[v] >= 2 {
				q = graph.VertexID(v)
				break
			}
		}
		if q < 0 {
			return true
		}
		res, err := CliqueSearch(bgCtx, tr, q, 3, nil)
		if err != nil {
			return errors.Is(err, ErrNoKCore)
		}
		for _, c := range res.Communities {
			hasQ := false
			for _, v := range c.Vertices {
				hasQ = hasQ || v == q
				if !g.HasAllKeywords(v, c.Label) {
					return false
				}
			}
			if !hasQ {
				return false
			}
			comp := ops.ComponentOf(c.Vertices, q)
			if len(comp) != len(c.Vertices) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// completeMultipartite returns a builder holding the complete graph of parts
// parts of size vertices each, vertices 0 … parts·size−1, every vertex
// carrying the keyword x and vertex 0 also the keywords extra: a maximal
// clique takes one vertex from each part, so there are size^parts of them.
func completeMultipartite(parts, size int, extra ...string) *graph.Builder {
	b := graph.NewBuilder()
	n := parts * size
	b.AddVertex("", append([]string{"x"}, extra...)...)
	for v := 1; v < n; v++ {
		b.AddVertex("", "x")
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if u/size != v/size {
				b.AddEdge(graph.VertexID(u), graph.VertexID(v))
			}
		}
	}
	return b
}

// TestCliqueCapIsNotARefutation: a verification whose clique enumeration
// hits clique.MaxCliques proves nothing, so it must neither refute its level
// nor end in ErrNoKCore. On K_{3,…,3} with 12 parts (3^12 maximal cliques,
// core 33) q lies in a 12-clique; the exact search reports an exhausted
// budget and the approximate one the bracket it could not narrow.
func TestCliqueCapIsNotARefutation(t *testing.T) {
	tr := BuildAdvanced(completeMultipartite(12, 3).MustBuild())
	if _, err := CliqueSearch(bgCtx, tr, 0, 3, nil); !errors.Is(err, cancel.ErrBudget) || errors.Is(err, ErrNoKCore) {
		t.Fatalf("CliqueSearch err = %v, want cancel.ErrBudget", err)
	}
	res, b, err := CliqueApprox(bgCtx, tr, 0, 3, nil, Approx{})
	if err != nil || len(res.Communities) != 0 {
		t.Fatalf("CliqueApprox = %+v, %v; want no communities and no error", res, err)
	}
	if want := (Bounds{Lower: 0, Upper: 1, BudgetExhausted: true}); b != want {
		t.Fatalf("CliqueApprox bounds = %+v, want %+v", b, want)
	}
}

// TestCliqueCapLeavesLevelOpen: a capped candidate leaves only itself
// undecided. q (vertex 0) carries x and y; its x-ball is K_{3,…,3} with 12
// parts and passes the enumeration cap, while its y-ball is a K4 of q and
// three y-vertices. The level's other candidate {y} still qualifies, so the
// approximate search answers it at label size 1, marked inexact because {x}
// stayed undecided; the exact search cannot be exact and says so.
func TestCliqueCapLeavesLevelOpen(t *testing.T) {
	b := completeMultipartite(12, 3, "y")
	ys := []graph.VertexID{0, b.AddVertex("", "y"), b.AddVertex("", "y"), b.AddVertex("", "y")}
	for i, u := range ys {
		for _, v := range ys[i+1:] {
			b.AddEdge(u, v)
		}
	}
	g := b.MustBuild()
	tr := BuildAdvanced(g)
	res, bd, err := CliqueApprox(bgCtx, tr, 0, 3, nil, Approx{})
	if err != nil {
		t.Fatalf("CliqueApprox err = %v", err)
	}
	if want := (Bounds{Lower: 1, Upper: 1, BudgetExhausted: true}); bd != want {
		t.Fatalf("CliqueApprox bounds = %+v, want %+v", bd, want)
	}
	want := []Community{{Label: kws(g, "y"), Vertices: ys}}
	if res.LabelSize != 1 || res.Fallback || !reflect.DeepEqual(res.Communities, want) {
		t.Fatalf("CliqueApprox = %+v, want %+v at label size 1", res, want)
	}
	if _, err := CliqueSearch(bgCtx, tr, 0, 3, nil); !errors.Is(err, cancel.ErrBudget) {
		t.Fatalf("CliqueSearch err = %v, want cancel.ErrBudget", err)
	}
}
