package acq_test

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	acq "github.com/acq-search/acq"
)

// figure1Graph builds the paper's Figure 1 social network: the circled AC for
// q=Jack at k=3 is {Jack, Bob, John, Mike} with AC-label {research, sports}.
func figure1Graph(t testing.TB) *acq.Graph {
	b := acq.NewBuilder()
	b.AddVertex("Bob", "chess", "research", "sports", "yoga")
	b.AddVertex("Tom", "research", "sports", "game")
	b.AddVertex("Alice", "art", "music", "tour")
	b.AddVertex("Jack", "research", "sports", "web")
	b.AddVertex("Mike", "research", "sports", "yoga")
	b.AddVertex("Anna", "art", "cook", "tour")
	b.AddVertex("Ada", "art", "cook", "music")
	b.AddVertex("John", "research", "sports", "web")
	b.AddVertex("Alex", "chess", "web", "yoga")
	for _, e := range [][2]string{
		// Dense core around Jack.
		{"Jack", "Bob"}, {"Jack", "John"}, {"Jack", "Mike"}, {"Jack", "Alex"},
		{"Bob", "John"}, {"Bob", "Mike"}, {"John", "Mike"}, {"Bob", "Alex"},
		{"John", "Alex"}, {"Mike", "Tom"}, {"Tom", "Alice"},
		// Side community.
		{"Alice", "Anna"}, {"Anna", "Ada"}, {"Alice", "Ada"},
	} {
		b.AddEdgeByLabel(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSearchFigure1(t *testing.T) {
	g := figure1Graph(t)
	g.BuildIndex()
	res, err := g.Search(bgCtx, acq.Query{Vertex: "Jack", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallback {
		t.Fatalf("unexpected fallback: %+v", res)
	}
	if res.LabelSize != 2 {
		t.Fatalf("label size = %d, want 2: %+v", res.LabelSize, res)
	}
	found := false
	for _, c := range res.Communities {
		if reflect.DeepEqual(c.Label, []string{"research", "sports"}) {
			found = true
			want := map[string]bool{"Jack": true, "Bob": true, "John": true, "Mike": true}
			if len(c.Members) != 4 {
				t.Fatalf("members = %v", c.Members)
			}
			for _, m := range c.Members {
				if !want[m] {
					t.Fatalf("unexpected member %s", m)
				}
			}
		}
	}
	if !found {
		t.Fatalf("no {research, sports} community in %+v", res.Communities)
	}
}

func TestSearchAlgorithmsAgreeOnFacade(t *testing.T) {
	g := figure1Graph(t)
	g.BuildIndex()
	var want acq.Result
	for i, algo := range []acq.Algorithm{acq.AlgoDec, acq.AlgoIncS, acq.AlgoIncT, acq.AlgoBasicG, acq.AlgoBasicW} {
		res, err := g.Search(bgCtx, acq.Query{Vertex: "Jack", K: 3, Algorithm: algo})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if i == 0 {
			want = res
			continue
		}
		if res.LabelSize != want.LabelSize || len(res.Communities) != len(want.Communities) {
			t.Fatalf("%s disagrees: %+v vs %+v", algo, res, want)
		}
	}
}

func TestSearchPersonalization(t *testing.T) {
	g := figure1Graph(t)
	g.BuildIndex()
	// Restricting S changes the community semantics (paper Section 1).
	res, err := g.Search(bgCtx, acq.Query{Vertex: "Jack", K: 2, Keywords: []string{"web"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.LabelSize != 1 || res.Communities[0].Label[0] != "web" {
		t.Fatalf("personalised result = %+v", res)
	}
	members := map[string]bool{}
	for _, m := range res.Communities[0].Members {
		members[m] = true
	}
	// Jack, John, Alex all carry "web" and form a triangle.
	if !members["Jack"] || !members["John"] || !members["Alex"] {
		t.Fatalf("web community = %v", res.Communities[0].Members)
	}
}

func TestSearchWithoutIndex(t *testing.T) {
	g := figure1Graph(t)
	if _, err := g.Search(bgCtx, acq.Query{Vertex: "Jack", K: 2}); !errors.Is(err, acq.ErrNoIndex) {
		t.Fatalf("err = %v, want ErrNoIndex", err)
	}
	// Index-free algorithms still work.
	if _, err := g.Search(bgCtx, acq.Query{Vertex: "Jack", K: 2, Algorithm: acq.AlgoBasicG}); err != nil {
		t.Fatal(err)
	}
}

func TestSearchErrors(t *testing.T) {
	g := figure1Graph(t)
	g.BuildIndex()
	if _, err := g.Search(bgCtx, acq.Query{Vertex: "Nobody", K: 2}); !errors.Is(err, acq.ErrVertexNotFound) {
		t.Fatalf("err = %v", err)
	}
	if _, err := g.Search(bgCtx, acq.Query{VertexID: 999, K: 2}); !errors.Is(err, acq.ErrVertexNotFound) {
		t.Fatalf("err = %v", err)
	}
	if _, err := g.Search(bgCtx, acq.Query{Vertex: "Jack", K: 0}); !errors.Is(err, acq.ErrBadK) {
		t.Fatalf("err = %v", err)
	}
	if _, err := g.Search(bgCtx, acq.Query{Vertex: "Jack", K: 99}); !errors.Is(err, acq.ErrNoKCore) {
		t.Fatalf("err = %v", err)
	}
	if _, err := g.Search(bgCtx, acq.Query{Vertex: "Jack", K: 2, Algorithm: "quantum"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := g.Search(bgCtx, acq.Query{Vertex: "Jack", K: 2, Mode: acq.ModeThreshold}); !errors.Is(err, acq.ErrBadTheta) {
		t.Fatalf("err = %v", err)
	}
	if _, err := g.Search(bgCtx, acq.Query{Vertex: "Jack", K: 2, Mode: "bogus"}); !errors.Is(err, acq.ErrBadMode) {
		t.Fatalf("err = %v", err)
	}
}

func TestSearchUnknownKeywordsFallback(t *testing.T) {
	g := figure1Graph(t)
	g.BuildIndex()
	res, err := g.Search(bgCtx, acq.Query{Vertex: "Jack", K: 3, Keywords: []string{"zzz-unknown"}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fallback {
		t.Fatalf("want fallback for unknown keywords, got %+v", res)
	}
}

func TestVariantsOnFacade(t *testing.T) {
	g := figure1Graph(t)
	g.BuildIndex()
	res, err := g.Search(bgCtx, acq.Query{Vertex: "Jack", K: 3, Keywords: []string{"research", "sports"}, Mode: acq.ModeFixed})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Communities) != 1 || len(res.Communities[0].Members) != 4 {
		t.Fatalf("SearchFixed = %+v", res)
	}
	res, err = g.Search(bgCtx, acq.Query{Vertex: "Jack", K: 3, Keywords: []string{"research", "sports", "yoga", "web"}, Mode: acq.ModeThreshold, Theta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Communities) != 1 {
		t.Fatalf("SearchThreshold = %+v", res)
	}
	// Everyone in the dense blob shares ≥ 2 of the four keywords.
	if len(res.Communities[0].Members) < 4 {
		t.Fatalf("threshold members = %v", res.Communities[0].Members)
	}
	// Variant parity between indexed and index-free paths.
	res2, err := g.Search(bgCtx, acq.Query{Vertex: "Jack", K: 3, Keywords: []string{"research", "sports"}, Algorithm: acq.AlgoBasicG, Mode: acq.ModeFixed})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Communities[0].Label, []string{"research", "sports"}) && len(res2.Communities) != 1 {
		t.Fatalf("variant parity broken: %+v", res2)
	}
}

func TestMutationKeepsIndexFresh(t *testing.T) {
	g := figure1Graph(t)
	g.BuildIndex()
	tom, _ := g.VertexID("Tom")
	jack, _ := g.VertexID("Jack")
	bob, _ := g.VertexID("Bob")
	john, _ := g.VertexID("John")

	// Wire Tom into the research/sports core and give him the keywords.
	g.InsertEdge(tom, jack)
	g.InsertEdge(tom, bob)
	g.InsertEdge(tom, john)
	res, err := g.Search(bgCtx, acq.Query{Vertex: "Jack", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	members := map[string]bool{}
	for _, m := range res.Communities[0].Members {
		members[m] = true
	}
	if !members["Tom"] {
		t.Fatalf("Tom missing after joining the core: %v", res.Communities[0].Members)
	}

	// Keyword removal: drop "research" from Tom; he leaves the AC.
	g.RemoveKeyword(tom, "research")
	res, err = g.Search(bgCtx, acq.Query{Vertex: "Jack", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Communities {
		for _, m := range c.Members {
			if m == "Tom" && len(c.Label) == 2 {
				t.Fatalf("Tom still in %v after losing 'research'", c)
			}
		}
	}
}

func TestStats(t *testing.T) {
	g := figure1Graph(t)
	s := g.Stats()
	if s.Vertices != 9 || s.Edges != 14 {
		t.Fatalf("stats = %+v", s)
	}
	if s.KMax != 3 {
		t.Fatalf("kmax = %d", s.KMax)
	}
	if s.IndexNodes != 0 {
		t.Fatal("index stats before build")
	}
	g.BuildIndex()
	s = g.Stats()
	if s.IndexNodes == 0 || s.IndexHeight == 0 {
		t.Fatalf("index stats = %+v", s)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	g := figure1Graph(t)
	g.BuildIndex()

	var text bytes.Buffer
	if err := g.Save(&text); err != nil {
		t.Fatal(err)
	}
	g2, err := acq.Load(&text)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("text round trip lost data")
	}

	var snap bytes.Buffer
	if err := g.SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	g3, err := acq.LoadSnapshot(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if !g3.HasIndex() {
		t.Fatal("snapshot lost the index")
	}
	res, err := g3.Search(bgCtx, acq.Query{Vertex: "Jack", K: 3})
	if err != nil || res.LabelSize != 2 {
		t.Fatalf("search on snapshot: %v %+v", err, res)
	}
	// And mutation still works on a rehydrated index.
	tom, _ := g3.VertexID("Tom")
	alice, _ := g3.VertexID("Alice")
	if !g3.InsertEdge(tom, alice) {
		t.Log("edge existed") // Tom–Alice already present in fixture
	}
}

func TestLoadBadInput(t *testing.T) {
	if _, err := acq.Load(strings.NewReader("zzz\n")); err == nil {
		t.Fatal("accepted garbage text")
	}
	if _, err := acq.LoadSnapshot(strings.NewReader("garbage")); err == nil {
		t.Fatal("accepted garbage snapshot")
	}
}

func TestSynthetic(t *testing.T) {
	g, err := acq.Synthetic("dblp", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() == 0 || g.NumEdges() == 0 {
		t.Fatal("empty synthetic graph")
	}
	if _, err := acq.Synthetic("unknown", 1); err == nil {
		t.Fatal("unknown preset accepted")
	}
	g.BuildIndexWith(acq.IndexBasic)
	if !g.HasIndex() {
		t.Fatal("basic index missing")
	}
}

func TestSearchBatch(t *testing.T) {
	g := figure1Graph(t)
	g.BuildIndex()
	queries := make([]acq.Query, 0, 40)
	for i := 0; i < 20; i++ {
		queries = append(queries,
			acq.Query{Vertex: "Jack", K: 3},
			acq.Query{Vertex: "Nobody", K: 3}, // error case interleaved
		)
	}
	results := g.SearchBatch(bgCtx, queries, acq.BatchOptions{Workers: 4})
	if len(results) != len(queries) {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if i%2 == 0 {
			if r.Err != nil || r.Result.LabelSize != 2 {
				t.Fatalf("result %d = %+v", i, r)
			}
		} else if !errors.Is(r.Err, acq.ErrVertexNotFound) {
			t.Fatalf("result %d err = %v", i, r.Err)
		}
		if r.Query.Vertex != queries[i].Vertex {
			t.Fatalf("result %d out of order", i)
		}
	}
	// Degenerate worker counts.
	if got := g.SearchBatch(bgCtx, nil, acq.BatchOptions{Workers: 3}); len(got) != 0 {
		t.Fatal("empty batch")
	}
	if got := g.SearchBatch(bgCtx, queries[:1], acq.BatchOptions{Workers: -1}); len(got) != 1 || got[0].Err != nil {
		t.Fatalf("auto workers: %+v", got)
	}
}

func TestSearchTruss(t *testing.T) {
	g := figure1Graph(t)
	g.BuildIndex()
	res, err := g.Search(bgCtx, acq.Query{Vertex: "Jack", K: 4, Mode: acq.ModeTruss})
	if err != nil {
		t.Fatal(err)
	}
	if res.LabelSize != 2 || len(res.Communities) != 1 {
		t.Fatalf("truss result = %+v", res)
	}
	// The 4-truss around Jack is the K4 {Jack,Bob,John,Mike} — every edge in
	// ≥2 triangles — and they share research+sports.
	if len(res.Communities[0].Members) != 4 {
		t.Fatalf("truss members = %v", res.Communities[0].Members)
	}
	// Without index.
	g2 := figure1Graph(t)
	if _, err := g2.Search(bgCtx, acq.Query{Vertex: "Jack", K: 4, Mode: acq.ModeTruss}); !errors.Is(err, acq.ErrNoIndex) {
		t.Fatalf("err = %v", err)
	}
}

func TestSearchClique(t *testing.T) {
	g := figure1Graph(t)
	g.BuildIndex()
	res, err := g.Search(bgCtx, acq.Query{Vertex: "Jack", K: 4, Mode: acq.ModeClique})
	if err != nil {
		t.Fatal(err)
	}
	if res.LabelSize != 2 || len(res.Communities) != 1 || len(res.Communities[0].Members) != 4 {
		t.Fatalf("clique result = %+v", res)
	}
	g2 := figure1Graph(t)
	if _, err := g2.Search(bgCtx, acq.Query{Vertex: "Jack", K: 4, Mode: acq.ModeClique}); !errors.Is(err, acq.ErrNoIndex) {
		t.Fatalf("err = %v", err)
	}
}

// TestSearchCliqueCapIsInexact: a clique query whose verification hits the
// enumeration cap answers an inexact, budget-exhausted bracket, not "no
// k-core". On K_{3,…,3} with 12 parts (3^12 maximal cliques) every vertex
// lies in a 12-clique and carries the keyword x.
func TestSearchCliqueCapIsInexact(t *testing.T) {
	const parts, size = 12, 3
	b := acq.NewBuilder()
	for v := 0; v < parts*size; v++ {
		b.AddVertex("", "x")
	}
	for u := int32(0); u < parts*size; u++ {
		for v := u + 1; v < parts*size; v++ {
			if u/size != v/size {
				b.AddEdge(u, v)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g.BuildIndex()
	res, err := g.Search(bgCtx, acq.Query{VertexID: 0, K: 3, Mode: acq.ModeClique})
	if err != nil {
		t.Fatalf("err = %v, want an inexact result", err)
	}
	if len(res.Communities) != 0 || res.Exact || !res.BudgetExhausted || res.ScoreLowerBound != 0 || res.ScoreUpperBound != 1 {
		t.Fatalf("result = %+v, want no communities, bounds [0, 1], exact false, budget exhausted", res)
	}
}

func TestSearchSimilar(t *testing.T) {
	g := figure1Graph(t)
	g.BuildIndex()
	res, err := g.Search(bgCtx, acq.Query{Vertex: "Jack", K: 3, Mode: acq.ModeSimilar, Tau: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Communities) != 1 {
		t.Fatalf("res = %+v", res)
	}
	// Jack {research, sports, web}: Bob shares 2 of 5 union (0.4) ✓,
	// John shares 3/3 ✓, Mike 2/4 ✓ — and they form a 3-core.
	if len(res.Communities[0].Members) < 4 {
		t.Fatalf("members = %v", res.Communities[0].Members)
	}
	// Index-free parity.
	res2, err := g.Search(bgCtx, acq.Query{Vertex: "Jack", K: 3, Algorithm: acq.AlgoBasicG, Mode: acq.ModeSimilar, Tau: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Communities) != 1 || len(res2.Communities[0].Members) != len(res.Communities[0].Members) {
		t.Fatalf("parity broken: %+v vs %+v", res2, res)
	}
	if _, err := g.Search(bgCtx, acq.Query{Vertex: "Jack", K: 3, Mode: acq.ModeSimilar}); !errors.Is(err, acq.ErrBadTheta) {
		t.Fatalf("err = %v", err)
	}
}

func TestSearchFuzzyKeywords(t *testing.T) {
	g := figure1Graph(t)
	g.BuildIndex()
	// "reserch" is one edit from "research"; without fuzz it matches nothing.
	res, err := g.Search(bgCtx, acq.Query{Vertex: "Jack", K: 3, Keywords: []string{"reserch"}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fallback {
		t.Fatalf("typo matched exactly: %+v", res)
	}
	res, err = g.Search(bgCtx, acq.Query{Vertex: "Jack", K: 3, Keywords: []string{"reserch"}, FuzzDistance: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallback || res.LabelSize != 1 || res.Communities[0].Label[0] != "research" {
		t.Fatalf("fuzzy result = %+v", res)
	}
}

func TestCoreNumber(t *testing.T) {
	g := figure1Graph(t)
	if _, err := g.CoreNumber(0); !errors.Is(err, acq.ErrNoIndex) {
		t.Fatalf("err = %v", err)
	}
	g.BuildIndex()
	jack, _ := g.VertexID("Jack")
	c, err := g.CoreNumber(jack)
	if err != nil || c != 3 {
		t.Fatalf("core(Jack) = %d, %v", c, err)
	}
	if _, err := g.CoreNumber(-1); !errors.Is(err, acq.ErrVertexNotFound) {
		t.Fatalf("err = %v", err)
	}
}
