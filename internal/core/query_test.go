package core

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"
	"testing/quick"

	"github.com/acq-search/acq/internal/fpm"
	"github.com/acq-search/acq/internal/graph"
	"github.com/acq-search/acq/internal/testutil"
)

func kws(g *graph.Graph, words ...string) []graph.KeywordID {
	var out []graph.KeywordID
	for _, w := range words {
		id, ok := g.Dict().Lookup(w)
		if !ok {
			panic("unknown keyword " + w)
		}
		out = append(out, id)
	}
	return graph.SortKeywordSet(out)
}

func labelsOfCommunity(g *graph.Graph, c Community) (label []string, members []string) {
	for _, w := range c.Label {
		label = append(label, g.Dict().Word(w))
	}
	for _, v := range c.Vertices {
		members = append(members, g.Label(v))
	}
	sort.Strings(label)
	sort.Strings(members)
	return
}

// allAlgorithms runs every ACQ algorithm on the same query.
func allAlgorithms(g *graph.Graph, tr *Tree, q graph.VertexID, k int, s []graph.KeywordID) map[string]func() (Result, error) {
	opt := DefaultOptions()
	noInv := opt
	noInv.UseInvertedLists = false
	noLemma := opt
	noLemma.UseLemma3 = false
	return map[string]func() (Result, error){
		"basic-g":   func() (Result, error) { return BasicG(bgCtx, g, q, k, s, opt) },
		"basic-w":   func() (Result, error) { return BasicW(bgCtx, g, q, k, s, opt) },
		"inc-s":     func() (Result, error) { return IncS(bgCtx, tr, q, k, s, opt) },
		"inc-t":     func() (Result, error) { return IncT(bgCtx, tr, q, k, s, opt) },
		"dec":       func() (Result, error) { return Dec(bgCtx, tr, q, k, s, opt) },
		"inc-s*":    func() (Result, error) { return IncS(bgCtx, tr, q, k, s, noInv) },
		"inc-t*":    func() (Result, error) { return IncT(bgCtx, tr, q, k, s, noInv) },
		"inc-s-nl3": func() (Result, error) { return IncS(bgCtx, tr, q, k, s, noLemma) },
		"dec-apri":  func() (Result, error) { return DecWithMiner(bgCtx, tr, q, k, s, opt, fpm.Apriori) },
	}
}

// canonical renders a Result comparably: sorted (label, members) pairs.
func canonical(r Result) [][2]string {
	var out [][2]string
	for _, c := range r.Communities {
		out = append(out, [2]string{keywordSetKey(c.Label), vertexSetKey(c.Vertices)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

func vertexSetKey(vs []graph.VertexID) string {
	b := make([]byte, 0, 4*len(vs))
	for _, v := range vs {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

// TestProblem1Example reproduces the worked example below Problem 1:
// q=A, k=2, S={w,x,y} on Figure 3(a) yields community {A,C,D} with
// AC-label {x,y}.
func TestProblem1Example(t *testing.T) {
	g := testutil.Fig3Graph()
	tr := BuildAdvanced(g)
	a, _ := g.VertexByLabel("A")
	s := kws(g, "w", "x", "y")
	for name, run := range allAlgorithms(g, tr, a, 2, s) {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Fallback || res.LabelSize != 2 || len(res.Communities) != 1 {
			t.Fatalf("%s: result = %+v", name, res)
		}
		label, members := labelsOfCommunity(g, res.Communities[0])
		if !reflect.DeepEqual(label, []string{"x", "y"}) {
			t.Fatalf("%s: AC-label = %v, want {x,y}", name, label)
		}
		if !reflect.DeepEqual(members, []string{"A", "C", "D"}) {
			t.Fatalf("%s: members = %v, want {A,C,D}", name, members)
		}
	}
}

// TestExample4 reproduces Example 4 (and 5): q=A, k=1, S={w,x,y}. The
// qualified singletons are {x} (core 3) and {y} (core 1); the final answer is
// the size-2 label {x,y} with community {A,C,D} (G1 of {x,y} is the triangle
// plus nothing else connected through x∧y vertices).
func TestExample4(t *testing.T) {
	g := testutil.Fig3Graph()
	tr := BuildAdvanced(g)
	a, _ := g.VertexByLabel("A")
	s := kws(g, "w", "x", "y")

	// Intermediate check of the paper's narrative: G1[{x}] = {A,B,C,D} with
	// subgraph core number 3, G1[{y}] = {A,C,D,E,F,G} with core number 1.
	e := &env{g: g, ops: graph.NewSetOps(g), q: a, k: 1, opt: DefaultOptions()}
	gx := e.communityOf(e.ops.FilterByKeywords(allVertices(g), kws(g, "x")))
	if got := testutil.LabelSet(g, gx); len(got) != 4 || !got["B"] {
		t.Fatalf("G1[{x}] = %v", got)
	}
	if subgraphCore(tr.Core, gx) != 3 {
		t.Fatalf("core(G1[{x}]) = %d, want 3", subgraphCore(tr.Core, gx))
	}
	gy := e.communityOf(e.ops.FilterByKeywords(allVertices(g), kws(g, "y")))
	if got := testutil.LabelSet(g, gy); len(got) != 6 || !got["F"] {
		t.Fatalf("G1[{y}] = %v", got)
	}
	if subgraphCore(tr.Core, gy) != 1 {
		t.Fatalf("core(G1[{y}]) = %d, want 1", subgraphCore(tr.Core, gy))
	}

	for name, run := range allAlgorithms(g, tr, a, 1, s) {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.LabelSize != 2 || len(res.Communities) != 1 {
			t.Fatalf("%s: result = %+v", name, res)
		}
		label, members := labelsOfCommunity(g, res.Communities[0])
		if !reflect.DeepEqual(label, []string{"x", "y"}) || !reflect.DeepEqual(members, []string{"A", "C", "D"}) {
			t.Fatalf("%s: label=%v members=%v", name, label, members)
		}
	}
}

// TestDefaultSIsWq: with S=nil the query uses all of W(q).
func TestDefaultSIsWq(t *testing.T) {
	g := testutil.Fig3Graph()
	tr := BuildAdvanced(g)
	a, _ := g.VertexByLabel("A")
	res, err := Dec(bgCtx, tr, a, 2, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.LabelSize != 2 {
		t.Fatalf("LabelSize = %d, want 2", res.LabelSize)
	}
}

// TestKeywordFallback: query with keywords shared by no qualifying community
// returns the plain k-ĉore with an empty label (paper footnote 2).
func TestKeywordFallback(t *testing.T) {
	g := testutil.Fig3Graph()
	tr := BuildAdvanced(g)
	d, _ := g.VertexByLabel("D")
	// S = {z}: D contains z; the other z-vertices (E, H) do not form a
	// 3-core with D.
	s := kws(g, "z")
	for name, run := range allAlgorithms(g, tr, d, 3, s) {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Fallback || res.LabelSize != 0 || len(res.Communities) != 1 {
			t.Fatalf("%s: result = %+v", name, res)
		}
		_, members := labelsOfCommunity(g, res.Communities[0])
		if !reflect.DeepEqual(members, []string{"A", "B", "C", "D"}) {
			t.Fatalf("%s: fallback members = %v, want the 3-ĉore", name, members)
		}
	}
}

// TestQueryErrors exercises the error paths of every algorithm.
func TestQueryErrors(t *testing.T) {
	g := testutil.Fig3Graph()
	tr := BuildAdvanced(g)
	a, _ := g.VertexByLabel("A")
	j, _ := g.VertexByLabel("J")

	for name, run := range allAlgorithms(g, tr, graph.VertexID(99), 2, nil) {
		if _, err := run(); !errors.Is(err, ErrVertexOutOfRange) {
			t.Fatalf("%s: err = %v, want ErrVertexOutOfRange", name, err)
		}
	}
	for name, run := range allAlgorithms(g, tr, a, 0, nil) {
		if _, err := run(); !errors.Is(err, ErrBadK) {
			t.Fatalf("%s: err = %v, want ErrBadK", name, err)
		}
	}
	// core(J)=0: no 1-core contains it.
	for name, run := range allAlgorithms(g, tr, j, 1, nil) {
		if _, err := run(); !errors.Is(err, ErrNoKCore) {
			t.Fatalf("%s: err = %v, want ErrNoKCore", name, err)
		}
	}
	// k above kmax.
	for name, run := range allAlgorithms(g, tr, a, 10, nil) {
		if _, err := run(); !errors.Is(err, ErrNoKCore) {
			t.Fatalf("%s: err = %v, want ErrNoKCore", name, err)
		}
	}
	// k beyond int32 (on 64-bit ints) must not truncate to a small bound.
	if strconv.IntSize == 64 {
		for _, big := range []int64{1<<32 + 3, 1 << 31} {
			for name, run := range allAlgorithms(g, tr, a, int(big), nil) {
				if _, err := run(); !errors.Is(err, ErrNoKCore) {
					t.Fatalf("%s k=%d: err = %v, want ErrNoKCore", name, big, err)
				}
			}
		}
	}
}

// TestAllAlgorithmsAgreeQuick is the load-bearing differential test: on
// random attributed graphs, all nine algorithm configurations must return
// identical results (same label size, same (label, member-set) pairs).
func TestAllAlgorithmsAgreeQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(rng, 4+rng.Intn(60), 1+5*rng.Float64(), 8, 4)
		tr := BuildAdvanced(g)
		// Pick a query vertex with positive core.
		var q graph.VertexID = -1
		perm := rng.Perm(g.NumVertices())
		for _, v := range perm {
			if tr.Core[v] >= 1 {
				q = graph.VertexID(v)
				break
			}
		}
		if q < 0 {
			return true // edgeless graph; nothing to test
		}
		k := 1 + rng.Intn(int(tr.Core[q]))
		var s []graph.KeywordID // nil = W(q)
		if rng.Intn(2) == 0 && g.Dict().Size() > 0 {
			for i := 0; i < 1+rng.Intn(4); i++ {
				s = append(s, graph.KeywordID(rng.Intn(g.Dict().Size())))
			}
			s = graph.SortKeywordSet(s)
		}
		var want [][2]string
		wantSize := -1
		first := ""
		for name, run := range allAlgorithms(g, tr, q, k, s) {
			res, err := run()
			if err != nil {
				t.Logf("seed=%d %s: %v", seed, name, err)
				return false
			}
			got := canonical(res)
			if wantSize == -1 {
				want, wantSize, first = got, res.LabelSize, name
				continue
			}
			if res.LabelSize != wantSize || !reflect.DeepEqual(got, want) {
				t.Logf("seed=%d: %s and %s disagree:\n  %s: size=%d %v\n  %s: size=%d %v",
					seed, first, name, first, wantSize, want, name, res.LabelSize, got)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestResultInvariantsQuick: every returned community contains q, has min
// induced degree ≥ k, is connected, every member contains the AC-label, and
// the label is maximal (no superset of any returned label is qualified).
func TestResultInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(rng, 4+rng.Intn(60), 1+5*rng.Float64(), 8, 4)
		tr := BuildAdvanced(g)
		ops := graph.NewSetOps(g)
		var q graph.VertexID = -1
		for _, v := range rng.Perm(g.NumVertices()) {
			if tr.Core[v] >= 1 {
				q = graph.VertexID(v)
				break
			}
		}
		if q < 0 {
			return true
		}
		k := 1 + rng.Intn(int(tr.Core[q]))
		res, err := Dec(bgCtx, tr, q, k, nil, DefaultOptions())
		if err != nil {
			return false
		}
		for _, c := range res.Communities {
			if len(c.Label) != res.LabelSize {
				return false
			}
			inQ := false
			for _, v := range c.Vertices {
				if v == q {
					inQ = true
				}
				if !g.HasAllKeywords(v, c.Label) {
					return false
				}
			}
			if !inQ {
				return false
			}
			for _, d := range ops.InducedDegrees(c.Vertices) {
				if d < k {
					return false
				}
			}
			comp := ops.ComponentOf(c.Vertices, q)
			if len(comp) != len(c.Vertices) {
				return false
			}
		}
		// Maximality: no (labelSize+1)-subset of W(q) is qualified. Checking
		// all supersets is exponential; sample a few random extensions.
		if !res.Fallback {
			wq := g.Keywords(q)
			for trial := 0; trial < 10 && len(wq) > res.LabelSize; trial++ {
				base := res.Communities[rng.Intn(len(res.Communities))].Label
				extra := wq[rng.Intn(len(wq))]
				ext := graph.SortKeywordSet(append(append([]graph.KeywordID(nil), base...), extra))
				if len(ext) != res.LabelSize+1 {
					continue
				}
				e := &env{g: g, ops: ops, q: q, k: k, opt: DefaultOptions()}
				cand := e.ops.FilterByKeywords(allVertices(g), ext)
				if e.communityOf(cand) != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestAntiMonotonicityQuick verifies Lemma 1 on random graphs: if Gk[S]
// exists then Gk[S'] exists for every S' ⊆ S.
func TestAntiMonotonicityQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(rng, 4+rng.Intn(50), 1+5*rng.Float64(), 6, 4)
		ops := graph.NewSetOps(g)
		var q graph.VertexID = -1
		for _, v := range rng.Perm(g.NumVertices()) {
			if g.Degree(graph.VertexID(v)) >= 1 && len(g.Keywords(graph.VertexID(v))) >= 2 {
				q = graph.VertexID(v)
				break
			}
		}
		if q < 0 {
			return true
		}
		k := 1
		wq := g.Keywords(q)
		s := graph.SortKeywordSet(append([]graph.KeywordID(nil), wq[:2]...))
		e := &env{g: g, ops: ops, q: q, k: k, opt: DefaultOptions()}
		full := e.communityOf(ops.FilterByKeywords(allVertices(g), s))
		if full == nil {
			return true // premise not satisfied
		}
		for _, w := range s {
			sub := e.communityOf(ops.FilterByKeywords(allVertices(g), []graph.KeywordID{w}))
			if sub == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneCand(t *testing.T) {
	// Qualified: {1,2}, {1,3}, {2,3} → candidate {1,2,3} (all subsets
	// qualified). Qualified {1,2},{1,3} only → {1,2,3} pruned ({2,3} absent).
	q1 := [][]graph.KeywordID{{1, 2}, {1, 3}, {2, 3}}
	got := geneCand(q1)
	if len(got) != 1 || !reflect.DeepEqual(got[0].set, []graph.KeywordID{1, 2, 3}) {
		t.Fatalf("geneCand = %+v", got)
	}
	if got[0].left != 0 || got[0].right != 1 {
		t.Fatalf("parents = %d,%d", got[0].left, got[0].right)
	}
	q2 := [][]graph.KeywordID{{1, 2}, {1, 3}}
	if got := geneCand(q2); len(got) != 0 {
		t.Fatalf("geneCand without full subsets = %+v", got)
	}
	// Sets differing before the last keyword do not join.
	q3 := [][]graph.KeywordID{{1, 2}, {3, 4}}
	if got := geneCand(q3); len(got) != 0 {
		t.Fatalf("geneCand joined non-adjacent sets: %+v", got)
	}
	// Singletons all join pairwise.
	q4 := [][]graph.KeywordID{{5}, {7}, {9}}
	if got := geneCand(q4); len(got) != 3 {
		t.Fatalf("geneCand singletons = %+v", got)
	}
}

func TestThresholdCount(t *testing.T) {
	cases := []struct {
		size int
		th   float64
		want int
	}{
		{10, 0.2, 2}, {10, 0.25, 3}, {10, 1.0, 10}, {3, 0.5, 2}, {1, 0.1, 1}, {0, 0.5, 1},
	}
	for _, c := range cases {
		if got := thresholdCount(c.size, c.th); got != c.want {
			t.Errorf("thresholdCount(%d, %v) = %d, want %d", c.size, c.th, got, c.want)
		}
	}
}
