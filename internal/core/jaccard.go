package core

import (
	"context"

	"github.com/acq-search/acq/internal/cancel"
	"github.com/acq-search/acq/internal/graph"
	"github.com/acq-search/acq/internal/kcore"
)

// This file implements the Jaccard-similarity keyword cohesiveness the
// paper's conclusion proposes as an alternative to shared-keyword
// maximisation: instead of requiring an exact common keyword set, every
// community member's keyword set must be similar enough to the query
// vertex's.

// SJ (Search by Jaccard) returns the connected subgraph containing q with
// minimum degree ≥ k in which every member v satisfies J(W(v), S) ≥ tau,
// where J(A, B) = |A∩B| / |A∪B| is the Jaccard coefficient and S defaults to
// W(q). tau ∈ (0, 1]. Unlike Variant 2 (SWT), which only counts how much of
// S a member covers, the full Jaccard also penalises members whose keyword
// sets are dominated by unrelated keywords — the per-pair notion behind the
// paper's CPJ quality metric, promoted to a query predicate. Like SWT, the
// single candidate is verified by local expansion from q through vertices of
// core ≥ k (env.verify), so similarity is computed only on the
// community's neighbourhood.
func SJ(ctx context.Context, t *Tree, q graph.VertexID, k int, s []graph.KeywordID, tau float64) (res Result, err error) {
	check, err := begin(ctx)
	if err != nil {
		return Result{}, err
	}
	defer cancel.Recover(&err)
	s, err = normalizeQuery(t.g, q, k, s)
	if err != nil {
		return Result{}, err
	}
	if tau <= 0 || tau > 1 {
		return Result{}, ErrBadTheta
	}
	if int(t.Core[q]) < k {
		return Result{}, ErrNoKCore
	}
	return singleResult(s, t.verifyRule(q, k, jaccardRule(t.g, s, tau), check)), nil
}

// BasicGJ is the index-free counterpart of SJ filtering inside the k-ĉore.
func BasicGJ(ctx context.Context, g graph.View, q graph.VertexID, k int, s []graph.KeywordID, tau float64) (res Result, err error) {
	check, err := begin(ctx)
	if err != nil {
		return Result{}, err
	}
	defer cancel.Recover(&err)
	s, err = normalizeQuery(g, q, k, s)
	if err != nil {
		return Result{}, err
	}
	if tau <= 0 || tau > 1 {
		return Result{}, ErrBadTheta
	}
	e := newEnv(g, q, k, DefaultOptions(), check)
	ck := kcore.KHatCoreScratch(e.ops, q, k)
	if ck == nil {
		return Result{}, ErrNoKCore
	}
	return singleResult(s, e.communityOf(filterVertices(ck, jaccardRule(g, s, tau), check))), nil
}

// jaccardRule is SJ's keyword predicate: the full Jaccard similarity of
// W(v) to S, |W(v) ∩ S| / (|W(v)| + |S| − |W(v) ∩ S|), reaches tau. It never
// holds for an empty S.
func jaccardRule(g graph.View, s []graph.KeywordID, tau float64) func(graph.VertexID) bool {
	return func(v graph.VertexID) bool {
		shared := g.CountSharedKeywords(v, s)
		union := len(g.Keywords(v)) + len(s) - shared
		return len(s) > 0 && float64(shared)/float64(union) >= tau
	}
}

// ExpandByEditDistance widens a query keyword set with every dictionary word
// within the given Levenshtein distance of each query word — the
// string-edit-distance keyword cohesiveness the conclusion mentions, in its
// most useful practical form: typo-tolerant keyword queries. The result is
// sorted and deduplicated. maxDist is clamped to [0, 3] (beyond that the
// expansion degenerates to the whole vocabulary).
func ExpandByEditDistance(d *graph.Dict, words []string, maxDist int) []graph.KeywordID {
	if maxDist < 0 {
		maxDist = 0
	}
	if maxDist > 3 {
		maxDist = 3
	}
	var out []graph.KeywordID
	for _, w := range words {
		for id, cand := range d.Words() {
			if editDistanceAtMost(w, cand, maxDist) {
				out = append(out, graph.KeywordID(id))
			}
		}
	}
	return graph.SortKeywordSet(out)
}

// editDistanceAtMost reports whether the Levenshtein distance between a and
// b is ≤ limit, with early bailout on the banded DP.
func editDistanceAtMost(a, b string, limit int) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b)-len(a) > limit {
		return false
	}
	prev := make([]int, len(a)+1)
	cur := make([]int, len(a)+1)
	for i := range prev {
		prev[i] = i
	}
	for j := 1; j <= len(b); j++ {
		cur[0] = j
		rowMin := cur[0]
		for i := 1; i <= len(a); i++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[i] = minOf(prev[i]+1, cur[i-1]+1, prev[i-1]+cost)
			if cur[i] < rowMin {
				rowMin = cur[i]
			}
		}
		if rowMin > limit {
			return false
		}
		prev, cur = cur, prev
	}
	return prev[len(a)] <= limit
}

func minOf(a, b, c int) int {
	m := a
	if b < m {
		m = b
	}
	if c < m {
		m = c
	}
	return m
}
