// Package datagen produces synthetic attributed graphs with the statistical
// shape the paper's experiments depend on: heavy-tailed degrees (preferential
// attachment), planted community structure (so dense k-ĉores exist around
// most vertices), and keyword sets that mix community-topic keywords with a
// global Zipf background (so communities share keywords, the premise of
// keyword cohesiveness).
//
// The four presets mirror the relative shape of the paper's datasets
// (Table 3): DBLP is sparse with large keyword sets, Tencent is by far the
// densest, DBpedia is the largest, Flickr sits in between. Absolute sizes
// are scaled down to laptop scale and can be rescaled with the Scale helper.
// The evaluation compares algorithms against each other on one dataset at a
// time, so it is the shape, not the absolute size, that its comparisons
// depend on.
package datagen

import (
	"fmt"
	"math/rand"

	"github.com/acq-search/acq/internal/graph"
)

// Config parameterises one synthetic attributed graph.
type Config struct {
	Name string
	// N is the number of vertices.
	N int
	// AvgDegree is the target d̂ (edges are ~N·AvgDegree/2).
	AvgDegree float64
	// Communities is the number of planted communities.
	Communities int
	// IntraFrac is the probability an edge stays inside its community.
	IntraFrac float64
	// Vocab is the global vocabulary size.
	Vocab int
	// KeywordsPerVertex is the target l̂ (each vertex gets up to this many
	// distinct keywords).
	KeywordsPerVertex int
	// TopicKeywords is the size of each community's topic vocabulary.
	TopicKeywords int
	// TopicFrac is the probability a keyword is drawn from the community
	// topic rather than the global background.
	TopicFrac float64
	// Closure is the probability that a stub closes a triangle (connects to
	// a neighbour of the previous target). High closure produces the dense
	// clique-like pockets of co-authorship graphs, raising core numbers at
	// fixed average degree.
	Closure float64
	// SeedClique, when ≥ 2, turns the first SeedClique vertices of every
	// community into a clique. Sparse collaboration networks owe their deep
	// k-cores to such pockets (large co-author groups), not to average
	// density; without them a d̂≈7 graph tops out around core 4.
	SeedClique int
	// Contagion is the probability that a keyword slot is filled by copying
	// a keyword from an already-assigned neighbour instead of sampling the
	// topic/background mixture. This keyword homophily makes dense pockets
	// share keywords, which is the premise of attributed community search.
	Contagion float64
	// Labels controls whether vertices get "v<id>" labels.
	Labels bool
	// Seed drives the deterministic generator.
	Seed int64
}

// Preset returns the named dataset analogue at scale 1.0. Known names:
// flickr, dblp, tencent, dbpedia.
func Preset(name string) (Config, error) {
	switch name {
	case "flickr":
		return Config{Name: name, N: 24000, AvgDegree: 17.1, Communities: 200,
			IntraFrac: 0.75, Vocab: 4000, KeywordsPerVertex: 10, TopicKeywords: 15,
			TopicFrac: 0.75, Closure: 0.35, Contagion: 0.4, Seed: 1}, nil
	case "dblp":
		return Config{Name: name, N: 30000, AvgDegree: 7.0, Communities: 280,
			IntraFrac: 0.85, Vocab: 5000, KeywordsPerVertex: 12, TopicKeywords: 12,
			TopicFrac: 0.8, Closure: 0.75, SeedClique: 10, Contagion: 0.5, Seed: 2}, nil
	case "tencent":
		return Config{Name: name, N: 18000, AvgDegree: 43.2, Communities: 140,
			IntraFrac: 0.70, Vocab: 3500, KeywordsPerVertex: 7, TopicKeywords: 18,
			TopicFrac: 0.7, Closure: 0.30, Contagion: 0.4, Seed: 3}, nil
	case "dbpedia":
		return Config{Name: name, N: 36000, AvgDegree: 17.7, Communities: 300,
			IntraFrac: 0.75, Vocab: 8000, KeywordsPerVertex: 15, TopicKeywords: 15,
			TopicFrac: 0.75, Closure: 0.35, Contagion: 0.4, Seed: 4}, nil
	default:
		return Config{}, fmt.Errorf("datagen: unknown preset %q (want flickr, dblp, tencent or dbpedia)", name)
	}
}

// PresetNames lists the available presets in the paper's order.
func PresetNames() []string { return []string{"flickr", "dblp", "tencent", "dbpedia"} }

// Scale returns a copy of cfg with vertex count (and community count)
// multiplied by f; degrees and keyword statistics are intensive quantities
// and stay fixed.
func (cfg Config) Scale(f float64) Config {
	out := cfg
	out.N = max(16, int(float64(cfg.N)*f))
	out.Communities = max(2, int(float64(cfg.Communities)*f))
	return out
}

// Generate builds the graph. The same Config always yields the same graph.
func Generate(cfg Config) *graph.Graph {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.N
	if cfg.Communities < 1 {
		cfg.Communities = 1
	}
	if cfg.Communities > n {
		cfg.Communities = n
	}

	// --- Community layout: contiguous blocks with mildly skewed sizes.
	bounds := communityBounds(rng, n, cfg.Communities)

	// --- Keywords: global Zipf background + per-community topics.
	vocabWords := make([]string, cfg.Vocab)
	for i := range vocabWords {
		vocabWords[i] = fmt.Sprintf("kw%04d", i)
	}
	background := rand.NewZipf(rng, 1.6, 3, uint64(cfg.Vocab-1))
	topics := make([][]int, cfg.Communities)
	for c := range topics {
		topic := make([]int, cfg.TopicKeywords)
		for i := range topic {
			topic[i] = rng.Intn(cfg.Vocab)
		}
		topics[c] = topic
	}
	topicPick := rand.NewZipf(rng, 1.5, 1, uint64(maxInt(cfg.TopicKeywords-1, 1)))

	commOf := make([]int, n)
	for c, bd := range bounds {
		for v := bd[0]; v < bd[1]; v++ {
			commOf[v] = c
		}
	}

	// --- Edges first: sequential growth with preferential attachment via
	// endpoint-list sampling, biased inside the community. Keywords follow,
	// so they can be correlated with the realised adjacency.
	stubs := int(cfg.AvgDegree / 2)
	frac := cfg.AvgDegree/2 - float64(stubs)
	var globalEnds []int32
	commEnds := make([][]int32, cfg.Communities)
	adj := make([][]int32, n) // running adjacency for triadic closure
	addEdge := func(u, v int) {
		adj[u] = append(adj[u], int32(v))
		adj[v] = append(adj[v], int32(u))
		globalEnds = append(globalEnds, int32(u), int32(v))
		if commOf[u] == commOf[v] {
			commEnds[commOf[u]] = append(commEnds[commOf[u]], int32(u), int32(v))
		}
	}
	if cfg.SeedClique >= 2 {
		for _, bd := range bounds {
			hi := bd[0] + cfg.SeedClique
			if hi > bd[1] {
				hi = bd[1]
			}
			for i := bd[0]; i < hi; i++ {
				for j := i + 1; j < hi; j++ {
					addEdge(i, j)
				}
			}
		}
	}
	for v := 1; v < n; v++ {
		c := commOf[v]
		lo := bounds[c][0]
		want := stubs
		if rng.Float64() < frac {
			want++
		}
		if want < 1 {
			want = 1
		}
		prev := -1
		for s := 0; s < want; s++ {
			var u int
			switch {
			case prev >= 0 && len(adj[prev]) > 0 && rng.Float64() < cfg.Closure:
				// Triadic closure: befriend a friend of the previous target.
				// This concentrates edges into clique-like pockets, which is
				// what gives sparse graphs (DBLP-like) their deep cores.
				u = int(adj[prev][rng.Intn(len(adj[prev]))])
			case rng.Float64() < cfg.IntraFrac && v > lo:
				// Intra-community target, preferential when possible.
				if ends := commEnds[c]; len(ends) > 0 && rng.Float64() < 0.5 {
					u = int(ends[rng.Intn(len(ends))])
				} else {
					u = lo + rng.Intn(v-lo)
				}
			default:
				if len(globalEnds) > 0 && rng.Float64() < 0.5 {
					u = int(globalEnds[rng.Intn(len(globalEnds))])
				} else {
					u = rng.Intn(v)
				}
			}
			if u != v {
				addEdge(u, v)
				prev = u
			}
		}
	}

	// --- Keywords: processed in ID order so contagion copies from already-
	// assigned (earlier) neighbours, propagating keywords along edges. This
	// keyword homophily is what makes dense subgraphs share keywords — the
	// premise of keyword cohesiveness (the paper observes DBLP ACs with one
	// shared keyword averaging 5000+ members).
	kwOf := make([][]string, n)
	for v := 0; v < n; v++ {
		kwOf[v] = drawKeywords(rng, cfg, topics[commOf[v]], background, topicPick, vocabWords, adj[v], kwOf)
	}

	b := graph.NewBuilder()
	for v := 0; v < n; v++ {
		label := ""
		if cfg.Labels {
			label = fmt.Sprintf("v%d", v)
		}
		b.AddVertex(label, kwOf[v]...)
	}
	for v := 0; v < n; v++ {
		for _, u := range adj[v] {
			if int(u) > v {
				b.AddEdge(graph.VertexID(v), graph.VertexID(u))
			}
		}
	}
	return b.MustBuild()
}

// communityBounds splits [0, n) into count contiguous blocks whose sizes are
// skewed (a few big communities, a long tail of small ones).
func communityBounds(rng *rand.Rand, n, count int) [][2]int {
	weights := make([]float64, count)
	total := 0.0
	for i := range weights {
		w := 1.0 + 4.0*rng.Float64()*rng.Float64() // mild right skew
		weights[i] = w
		total += w
	}
	bounds := make([][2]int, count)
	at := 0
	for i, w := range weights {
		size := int(float64(n) * w / total)
		if size < 1 {
			size = 1
		}
		if i == count-1 || at+size > n {
			size = n - at
		}
		bounds[i] = [2]int{at, at + size}
		at += size
		if at >= n {
			// Remaining communities become empty blocks at the end.
			for j := i + 1; j < count; j++ {
				bounds[j] = [2]int{n, n}
			}
			break
		}
	}
	return bounds
}

func drawKeywords(rng *rand.Rand, cfg Config, topic []int, background, topicPick *rand.Zipf,
	vocab []string, neighbors []int32, assigned [][]string) []string {
	want := cfg.KeywordsPerVertex
	// Earlier neighbours already carry keywords; contagion copies from them.
	var donors []int32
	if cfg.Contagion > 0 {
		for _, u := range neighbors {
			if len(assigned[u]) > 0 {
				donors = append(donors, u)
			}
		}
	}
	seen := map[string]bool{}
	words := make([]string, 0, want)
	add := func(w string) {
		if !seen[w] {
			seen[w] = true
			words = append(words, w)
		}
	}
	for attempts := 0; len(words) < want && attempts < want*12; attempts++ {
		if len(donors) > 0 && rng.Float64() < cfg.Contagion {
			from := assigned[donors[rng.Intn(len(donors))]]
			add(from[rng.Intn(len(from))])
			continue
		}
		if len(topic) > 0 && rng.Float64() < cfg.TopicFrac {
			add(vocab[topic[int(topicPick.Uint64())%len(topic)]])
		} else {
			add(vocab[int(background.Uint64())%cfg.Vocab])
		}
	}
	return words
}

// QueryVertices returns up to count deterministic query vertices whose core
// number is at least minCore, mirroring the paper's methodology (300 random
// query vertices with core ≥ 6).
func QueryVertices(core []int32, minCore int32, count int, seed int64) []graph.VertexID {
	var eligible []graph.VertexID
	for v, c := range core {
		if c >= minCore {
			eligible = append(eligible, graph.VertexID(v))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(eligible), func(i, j int) {
		eligible[i], eligible[j] = eligible[j], eligible[i]
	})
	if len(eligible) > count {
		eligible = eligible[:count]
	}
	return eligible
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
