package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/acq-search/acq/internal/datagen"
	"github.com/acq-search/acq/internal/fpm"
	"github.com/acq-search/acq/internal/graph"
)

// starGraph is q (vertex 1) carrying S plus deg neighbours with random
// keyword sets. Vertex 0 interns the dictionary first, so S's keyword IDs are
// the even ones and every odd ID is a keyword outside S: bit positions and
// keyword IDs never agree.
// Neighbours draw from a few topics (small subsets of S) so frequent sets
// reach several levels, and carry at most seven keywords of S each, which
// keeps the lattice a miner must enumerate at k = 1 small.
func starGraph(rng *rand.Rand, deg, sizeS int) (*graph.Graph, []graph.KeywordID) {
	b := graph.NewBuilder()
	words := make([]string, 2*sizeS)
	for i := range words {
		words[i] = fmt.Sprintf("w%03d", i)
	}
	b.AddVertex("dict", words...) // interns every word, in ID order
	inS := make([]string, sizeS)
	for i := range inS {
		inS[i] = words[2*i]
	}
	q := b.AddVertex("q", inS...)
	topics := make([][]string, 1+rng.Intn(4))
	for i := range topics {
		for n := 1 + rng.Intn(5); n > 0; n-- {
			topics[i] = append(topics[i], inS[rng.Intn(sizeS)])
		}
	}
	for range deg {
		var kw []string
		for _, w := range topics[rng.Intn(len(topics))] {
			if rng.Intn(4) > 0 {
				kw = append(kw, w)
			}
		}
		for n := rng.Intn(3); n > 0; n-- {
			kw = append(kw, inS[rng.Intn(sizeS)])
		}
		for n := rng.Intn(3); n > 0; n-- {
			kw = append(kw, words[2*rng.Intn(sizeS)+1])
		}
		b.AddEdge(q, b.AddVertex("", kw...))
	}
	g := b.MustBuild()
	return g, append([]graph.KeywordID(nil), g.Keywords(q)...)
}

// coreKept is a view of g in which q's neighbours are only those of core
// ≥ k, so mineCandidates over it runs FP-Growth on exactly the transactions
// the bitmask miner keeps.
type coreKept struct {
	graph.View
	q    graph.VertexID
	nbrs []graph.VertexID
}

func (c coreKept) Neighbors(v graph.VertexID) []graph.VertexID {
	if v == c.q {
		return c.nbrs
	}
	return c.View.Neighbors(v)
}

// keepCore returns g with q's neighbours of core < k cut off.
func keepCore(g graph.View, core []int32, q graph.VertexID, k int) graph.View {
	var nbrs []graph.VertexID
	for _, v := range g.Neighbors(q) {
		if int(core[v]) >= k {
			nbrs = append(nbrs, v)
		}
	}
	return coreKept{View: g, q: q, nbrs: nbrs}
}

// checkMineLevels holds the bitmask miner to mineCandidates over FP-Growth
// on the neighbours of core ≥ k, level for level and set for set, and the
// mask keyword test to HasAllKeywords on every neighbour for the first
// candidates of each level.
func checkMineLevels(t *testing.T, kb *keywordBits, g graph.View, core []int32, s []graph.KeywordID, k int) {
	t.Helper()
	const q = graph.VertexID(1)
	kb.reset(g, s)
	got := kb.mine(g, core, q, k, nil)
	want := mineCandidates(keepCore(g, core, q, k), q, k, s, fpm.FPGrowth, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("|S| = %d, deg = %d, k = %d: bitmask levels\n%v\nFP-Growth levels\n%v", len(s), g.Degree(q), k, got, want)
	}
	for _, level := range got {
		for _, set := range level[:min(len(level), 4)] {
			kb.setWant(set)
			for _, v := range g.Neighbors(q) {
				if kb.covers(g.Keywords(v)) != g.HasAllKeywords(v, set) {
					t.Fatalf("|S| = %d: mask test of %v on %v disagrees with HasAllKeywords", len(s), set, g.Keywords(v))
				}
			}
		}
	}
}

// FuzzMineLevels: the bitmask miner returns FP-Growth's levels element for
// element, with q's degree crossing 64 (multi-word tidsets), |S| crossing 64
// (multi-word masks) and k from 1 to deg + 1. Every vertex first has a core
// above any k, so no neighbour is skipped and the reference is FP-Growth
// over all of q's neighbours; then a random core in [0, 2k] skips about half
// of them, and the reference mines only those of core ≥ k. A second, sparser
// S mined on the same scratch checks that reset retires the first S's bits.
func FuzzMineLevels(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(12), uint8(3))
	f.Add(int64(2), uint8(130), uint8(12), uint8(5))
	f.Add(int64(3), uint8(40), uint8(90), uint8(2))
	f.Add(int64(4), uint8(200), uint8(70), uint8(1))
	f.Add(int64(5), uint8(64), uint8(64), uint8(65))
	f.Fuzz(func(t *testing.T, seed int64, degB, sizeB, kB uint8) {
		deg, sizeS := 1+int(degB)%200, 1+int(sizeB)%100
		k := 1 + int(kB)%(deg+1)
		rng := rand.New(rand.NewSource(seed))
		g, s := starGraph(rng, deg, sizeS)
		all := make([]int32, g.NumVertices())
		core := make([]int32, g.NumVertices())
		for v := range core {
			all[v] = math.MaxInt32
			core[v] = int32(rng.Intn(2*k + 1))
		}
		var kb keywordBits
		checkMineLevels(t, &kb, g, all, s, k)
		checkMineLevels(t, &kb, g, core, s, k)
		var sparse []graph.KeywordID
		for i := 0; i < len(s); i += 3 {
			sparse = append(sparse, s[i])
		}
		checkMineLevels(t, &kb, g, core, sparse, max(1, k/2))
	})
}

// TestDecAllocsPerQuery pins the allocations of a fixed set of exact core
// queries: 100 seeded vertices of core ≥ 6 on dblp@0.5, at k = 6 with
// S = W(q). Mining allocates only the returned levels (three slices), not
// one object per transaction or itemset, and mining over neighbours of core
// ≥ k leaves about two candidates per query to verify.
func TestDecAllocsPerQuery(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	const maxAllocs = 25
	cfg, err := datagen.Preset("dblp")
	if err != nil {
		t.Fatal(err)
	}
	tr := BuildAdvanced(datagen.Generate(cfg.Scale(0.5)).Freeze(1))
	qs := presetQueries(t, tr, 100, 6)
	opt := DefaultOptions()
	perRun := testing.AllocsPerRun(5, func() {
		for _, q := range qs {
			if _, err := Dec(bgCtx, tr, q, 6, nil, opt); err != nil {
				t.Fatal(err)
			}
		}
	})
	perQuery := perRun / float64(len(qs))
	t.Logf("dblp@0.5: %.2f allocations per exact Dec query", perQuery)
	if perQuery > maxAllocs {
		t.Fatalf("exact Dec allocates %.2f objects per query, want ≤ %d", perQuery, maxAllocs)
	}
}

// TestScopedAllocsPerQuery pins the allocations of exact clique and truss
// queries the way TestDecAllocsPerQuery pins core ones: the same 100 seeded
// vertices of core ≥ 6 on dblp@0.5, at k = 6 with S = W(q). ErrNoKCore is an
// answer here, since q can lie in no 6-clique or 6-truss.
func TestScopedAllocsPerQuery(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	cfg, err := datagen.Preset("dblp")
	if err != nil {
		t.Fatal(err)
	}
	tr := BuildAdvanced(datagen.Generate(cfg.Scale(0.5)).Freeze(1))
	qs := presetQueries(t, tr, 100, 6)
	for _, c := range []struct {
		name      string
		maxAllocs float64
		search    func(q graph.VertexID) (Result, error)
	}{
		{"clique", 233, func(q graph.VertexID) (Result, error) { return CliqueSearch(bgCtx, tr, q, 6, nil) }},
		{"truss", 162, func(q graph.VertexID) (Result, error) { return TrussSearch(bgCtx, tr, q, 6, nil) }},
	} {
		perRun := testing.AllocsPerRun(2, func() {
			for _, q := range qs {
				if _, err := c.search(q); err != nil && !errors.Is(err, ErrNoKCore) {
					t.Fatal(err)
				}
			}
		})
		perQuery := perRun / float64(len(qs))
		t.Logf("dblp@0.5: %.2f allocations per exact %s query", perQuery, c.name)
		if perQuery > c.maxAllocs {
			t.Fatalf("exact %s allocates %.2f objects per query, want ≤ %g", c.name, perQuery, c.maxAllocs)
		}
	}
}

// TestDecCandidatesVerified: mining over q's neighbours of core ≥ k verifies
// at least 5× fewer candidates than mining over all of them, and changes no
// answer. 300 exact walks at k = 6 on dblp@0.5 run twice through
// approxLevels with a counting verify: over the served levels
// (keywordBits.mine) and over FP-Growth's unfiltered ones (mineCandidates).
func TestDecCandidatesVerified(t *testing.T) {
	const k = 6
	cfg, err := datagen.Preset("dblp")
	if err != nil {
		t.Fatal(err)
	}
	tr := BuildAdvanced(datagen.Generate(cfg.Scale(0.5)).Freeze(1))
	var served, unfiltered int
	for _, q := range presetQueries(t, tr, 300, k) {
		e := tr.newEnv(q, k, DefaultOptions(), nil)
		kb := &e.sc.bits
		s := tr.g.Keywords(q)
		kb.reset(tr.g, s)
		walk := func(levels [][][]graph.KeywordID, verified *int) ([]Community, Bounds) {
			return approxLevels(levels, Approx{}, runToEnd, func(set []graph.KeywordID) ([]graph.VertexID, bool) {
				*verified++
				kb.setWant(set)
				return e.verify(kcoreStructure, nil)
			})
		}
		got, gotB := walk(kb.mine(tr.g, tr.Core, q, k, nil), &served)
		want, wantB := walk(mineCandidates(tr.g, q, k, s, fpm.FPGrowth, nil), &unfiltered)
		tr.releaseScratch(e.sc)
		if !reflect.DeepEqual(got, want) || gotB != wantB {
			t.Fatalf("q = %d: core-filtered walk %v %+v, unfiltered walk %v %+v", q, got, gotB, want, wantB)
		}
	}
	t.Logf("dblp@0.5, k = %d, 300 queries: %d candidates verified over neighbours of core ≥ k, %d over all neighbours", k, served, unfiltered)
	if 5*served > unfiltered {
		t.Fatalf("verified %d candidates with the core filter and %d without, want at least 5× fewer", served, unfiltered)
	}
}
