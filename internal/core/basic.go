package core

import (
	"context"

	"github.com/acq-search/acq/internal/cancel"
	"github.com/acq-search/acq/internal/graph"
	"github.com/acq-search/acq/internal/kcore"
)

// BasicG answers an ACQ without any index (paper Algorithm 5, basic-g):
// it first computes the k-ĉore containing q by peeling the whole graph, then
// grows candidate keyword sets level-wise, verifying each candidate S' by
// keyword-filtering inside that ĉore and re-peeling. S==nil means S=W(q).
func BasicG(ctx context.Context, g graph.View, q graph.VertexID, k int, s []graph.KeywordID, opt Options) (res Result, err error) {
	check, err := begin(ctx)
	if err != nil {
		return Result{}, err
	}
	defer cancel.Recover(&err)
	s, err = normalizeQuery(g, q, k, s)
	if err != nil {
		return Result{}, err
	}
	e := newEnv(g, q, k, opt, check)
	ck := kcore.KHatCoreScratch(e.ops, q, k)
	if ck == nil {
		return Result{}, ErrNoKCore
	}
	return basicLoop(e, s, ck), nil
}

// BasicW answers an ACQ without any index (paper Algorithm 6, basic-w): like
// BasicG but each candidate is keyword-filtered against the entire graph
// rather than against the k-ĉore of q, making every verification strictly
// more expensive — it exists as the weaker baseline of Figures 14(e–t).
func BasicW(ctx context.Context, g graph.View, q graph.VertexID, k int, s []graph.KeywordID, opt Options) (res Result, err error) {
	check, err := begin(ctx)
	if err != nil {
		return Result{}, err
	}
	defer cancel.Recover(&err)
	s, err = normalizeQuery(g, q, k, s)
	if err != nil {
		return Result{}, err
	}
	e := newEnv(g, q, k, opt, check)
	// Fail fast when no k-ĉore contains q (matches BasicG's contract).
	ck := kcore.KHatCoreScratch(e.ops, q, k)
	if ck == nil {
		return Result{}, ErrNoKCore
	}
	all := make([]graph.VertexID, g.NumVertices())
	for v := range all {
		all[v] = graph.VertexID(v)
	}
	return basicLoop(e, s, all), nil
}

// basicLoop is the two-step framework of Section 4.1 without index support:
// verify all candidates of the current size, then join the qualified ones
// into the next size (Lemma 1 pruning inside geneCand), until a level yields
// nothing; the previous level's communities are the answer. scope is the
// vertex universe candidates are keyword-filtered against.
func basicLoop(e *env, s []graph.KeywordID, scope []graph.VertexID) Result {
	type qualified struct {
		set  []graph.KeywordID
		comm []graph.VertexID
	}
	verify := func(set []graph.KeywordID) []graph.VertexID {
		cand := e.ops.FilterByKeywords(scope, set)
		return e.communityOf(cand)
	}

	var prev []qualified
	cands := singletonSets(s)
	for len(cands) > 0 {
		var cur []qualified
		for _, set := range cands {
			if comm := verify(set); comm != nil {
				cur = append(cur, qualified{set: set, comm: comm})
			}
		}
		if len(cur) == 0 {
			break
		}
		prev = cur
		sets := make([][]graph.KeywordID, len(cur))
		for i, qset := range cur {
			sets[i] = qset.set
		}
		joined := geneCand(sets)
		cands = cands[:0]
		for _, c := range joined {
			cands = append(cands, c.set)
		}
	}
	if len(prev) == 0 {
		// No keyword shared by any qualifying community: fall back to the
		// plain k-ĉore of q (footnote 2 of the paper).
		ck := e.ops.ComponentOf(scope, e.q)
		surv := e.ops.PeelToMinDegree(ck, e.k)
		return fallbackResult(e.ops, e.ops.ComponentOf(surv, e.q))
	}
	res := Result{LabelSize: len(prev[0].set)}
	for _, qset := range prev {
		res.Communities = append(res.Communities, Community{Label: qset.set, Vertices: qset.comm})
	}
	return res
}
