package core

import (
	"context"

	"github.com/acq-search/acq/internal/cancel"
	"github.com/acq-search/acq/internal/fpm"
	"github.com/acq-search/acq/internal/graph"
)

// Dec answers an ACQ with the CL-tree using the decremental strategy (paper
// Algorithm 4), the fastest of the paper's algorithms. It exploits two
// observations:
//
//  1. If S' is a qualified keyword set then at least k of q's neighbours
//     contain S' (q needs degree ≥ k inside Gk[S'], and every member of
//     Gk[S'] contains S'), and each of those neighbours has core ≥ k (it
//     lies in Gk[S'], a subgraph of minimum degree k). All candidates can
//     therefore be enumerated up front by mining the keyword sets of q's
//     neighbours of core ≥ k with minimum support k. The paper uses
//     FP-Growth over every neighbour; Dec mines on query-local bitmasks
//     (keywordBits.mine): one tidset per keyword of S over q's neighbours
//     of core ≥ k, intersected depth-first by AND and popcount. Within a
//     level the sets come in FP-Growth's order.
//  2. Larger keyword sets are contained by fewer vertices, so verifying from
//     the largest candidates downward reaches the maximal qualified size with
//     far less work than growing from singletons.
//
// Verification departs from Algorithm 4 in how a candidate S' is checked:
// instead of filtering the k-ĉore's R̂ buckets, it grows q's connected
// component of {v : core(v) ≥ k ∧ S' ⊆ W(v)} by BFS from q (local expansion,
// see env.verify). The community is the same; the cost follows the
// community's neighbourhood instead of the size of the k-ĉore, and the
// keyword test of a vertex is one AND of its mask over S against the
// candidate's.
// DecWithMiner mines with FP-Growth or Apriori over every neighbour instead,
// the paper's miner ablation: more candidates, the same answer.
//
// ctx bounds the evaluation: cancellation is observed at amortised
// checkpoints inside the peeling/BFS loops, and a canceled search returns an
// error wrapping cancel.ErrCanceled and context.Cause(ctx).
func Dec(ctx context.Context, t *Tree, q graph.VertexID, k int, s []graph.KeywordID, opt Options) (Result, error) {
	res, _, err := walk(ctx, t, q, k, s, opt, Approx{}, kcoreStructure, nil, runToEnd)
	return res, err
}

// Miner enumerates all itemsets with support ≥ minSupport, ordered by size
// and each sorted ascending; fpm.FPGrowth and fpm.Apriori both satisfy it.
type Miner func(txns [][]fpm.Item, minSupport int) []fpm.Itemset

// DecWithMiner is Dec with a pluggable frequent-itemset miner, run through
// mineCandidates over all of q's neighbours: the FP-Growth vs Apriori
// ablation bench, and the reference the bitmask miner is tested against.
// The answer is Dec's.
func DecWithMiner(ctx context.Context, t *Tree, q graph.VertexID, k int, s []graph.KeywordID, opt Options, mine Miner) (Result, error) {
	res, _, err := walk(ctx, t, q, k, s, opt, Approx{}, kcoreStructure, mine, runToEnd)
	return res, err
}

// CommunitiesByLabelSize verifies every candidate keyword set mined from q's
// neighbourhood and returns the qualifying communities bucketed by AC-label
// size (index l-1 holds communities sharing exactly l keywords). It backs the
// paper's Figure 7 study of keyword cohesiveness versus shared-keyword count.
// maxSize caps the label size examined (0 means no cap).
func CommunitiesByLabelSize(ctx context.Context, t *Tree, q graph.VertexID, k int, s []graph.KeywordID, maxSize int, opt Options) (out [][]Community, err error) {
	check, err := begin(ctx)
	if err != nil {
		return nil, err
	}
	defer cancel.Recover(&err)
	s, err = normalizeQuery(t.g, q, k, s)
	if err != nil {
		return nil, err
	}
	if int(t.Core[q]) < k {
		return nil, ErrNoKCore
	}
	e := t.newEnv(q, k, opt, check)
	defer t.releaseScratch(e.sc)
	kb := &e.sc.bits
	kb.reset(t.g, s)
	levels := kb.mine(t.g, t.Core, q, k, check)
	if maxSize > 0 && len(levels) > maxSize {
		levels = levels[:maxSize]
	}
	out = make([][]Community, len(levels))
	for i, bucket := range levels {
		for _, set := range bucket {
			kb.setWant(set)
			if comm, _ := e.verify(kcoreStructure, nil); comm != nil {
				out[i] = append(out[i], Community{Label: set, Vertices: comm})
			}
		}
	}
	return out, nil
}

// mineCandidates returns the candidate keyword sets bucketed by size (index
// l-1 holds the size-l sets, each sorted), mined from the keyword sets of
// q's neighbours restricted to s with minimum support k by a transaction
// miner. check is ticked per neighbour scanned so huge neighbourhoods stay
// cancellable. The served walks mine with keywordBits.mine; this is the
// ablation path and the differential reference.
func mineCandidates(g graph.View, q graph.VertexID, k int, s []graph.KeywordID, mine Miner, check *cancel.Checker) [][][]graph.KeywordID {
	if len(s) == 0 {
		return nil
	}
	neighbors := g.Neighbors(q)
	if len(neighbors) < k {
		return nil
	}
	// One backing array holds every transaction; ends[i] closes the i-th.
	var items []fpm.Item
	ends := make([]int, 0, len(neighbors))
	for _, v := range neighbors {
		check.Tick(1)
		n := len(items)
		for _, w := range s {
			if g.HasKeyword(v, w) {
				items = append(items, fpm.Item(w))
			}
		}
		if len(items) > n {
			ends = append(ends, len(items))
		}
	}
	txns := make([][]fpm.Item, len(ends))
	start := 0
	for i, end := range ends {
		txns[i] = items[start:end]
		start = end
	}
	sets := mine(txns, k)
	if len(sets) == 0 {
		return nil
	}
	// The sets come ordered by size, so each level is one run of them.
	total := 0
	for _, set := range sets {
		total += len(set.Items)
	}
	keywords := make([]graph.KeywordID, 0, total)
	flat := make([][]graph.KeywordID, len(sets))
	for i, set := range sets {
		n := len(keywords)
		for _, it := range set.Items {
			keywords = append(keywords, graph.KeywordID(it))
		}
		flat[i] = keywords[n:len(keywords):len(keywords)]
	}
	out := make([][][]graph.KeywordID, len(sets[len(sets)-1].Items))
	for i := 0; i < len(sets); {
		j := i + 1
		for j < len(sets) && len(sets[j].Items) == len(sets[i].Items) {
			j++
		}
		out[len(sets[i].Items)-1] = flat[i:j:j]
		i = j
	}
	return out
}
