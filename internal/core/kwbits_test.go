package core

import (
	"fmt"
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

// checkMineLevels holds the bitmask miner to mineCandidates over FP-Growth,
// level for level and set for set, and the mask keyword test to
// HasAllKeywords on every neighbour for the first candidates of each level.
func checkMineLevels(t *testing.T, kb *keywordBits, g graph.View, s []graph.KeywordID, k int) {
	t.Helper()
	const q = graph.VertexID(1)
	kb.reset(g, s)
	got := kb.mine(g, q, k, nil)
	want := mineCandidates(g, q, k, s, fpm.FPGrowth, nil)
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
// (multi-word masks) and k from 1 to deg + 1. A second, sparser S mined on
// the same scratch checks that reset retires the first S's bits.
func FuzzMineLevels(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(12), uint8(3))
	f.Add(int64(2), uint8(130), uint8(12), uint8(5))
	f.Add(int64(3), uint8(40), uint8(90), uint8(2))
	f.Add(int64(4), uint8(200), uint8(70), uint8(1))
	f.Add(int64(5), uint8(64), uint8(64), uint8(65))
	f.Fuzz(func(t *testing.T, seed int64, degB, sizeB, kB uint8) {
		deg, sizeS := 1+int(degB)%200, 1+int(sizeB)%100
		k := 1 + int(kB)%(deg+1)
		g, s := starGraph(rand.New(rand.NewSource(seed)), deg, sizeS)
		var kb keywordBits
		checkMineLevels(t, &kb, g, s, k)
		var sparse []graph.KeywordID
		for i := 0; i < len(s); i += 3 {
			sparse = append(sparse, s[i])
		}
		checkMineLevels(t, &kb, g, sparse, max(1, k/2))
	})
}

// TestDecAllocsPerQuery pins the allocations of a fixed set of exact core
// queries: 100 seeded vertices of core ≥ 6 on dblp@0.5, at k = 6 with
// S = W(q). Mining allocates only the returned levels (three slices), not
// one object per transaction or itemset.
func TestDecAllocsPerQuery(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	const maxAllocs = 121
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
