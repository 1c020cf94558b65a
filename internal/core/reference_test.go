package core

import (
	"context"
	"math"

	"github.com/acq-search/acq/internal/cancel"
	"github.com/acq-search/acq/internal/fpm"
	"github.com/acq-search/acq/internal/graph"
)

// Reference evaluators: the global-scan verification the exact entry points
// used before they switched to local expansion — the multi-candidate modes
// before they became the zero-ε case of the walker, and the threshold and
// Jaccard variants before they verified their one candidate by expansion
// from q. They share nothing with the evaluators under test but
// mineCandidates and the per-candidate community pipelines (the variant
// references even spell out their keyword rules afresh), so comparing the
// two checks each evaluator against an independent search rather than
// against itself.

// refDec is Algorithm 4's verification as written in the paper: bucket the
// k-ĉore's vertices by how many query keywords they share with q, and let R̂
// accumulate the vertices sharing ≥ l keywords as l descends; each size-l
// candidate is filtered out of R̂ and refined by the Gk[S'] pipeline.
func refDec(ctx context.Context, t *Tree, q graph.VertexID, k int, s []graph.KeywordID, opt Options) (res Result, err error) {
	check, err := begin(ctx)
	if err != nil {
		return Result{}, err
	}
	defer cancel.Recover(&err)
	s, err = normalizeQuery(t.g, q, k, s)
	if err != nil {
		return Result{}, err
	}
	if int(t.Core[q]) < k {
		return Result{}, ErrNoKCore
	}
	e := newEnv(t.g, q, k, opt, check)
	sub := t.SubtreeVertices(t.LocateRoot(q, int32(k)))
	levels := mineCandidates(t.g, q, k, s, fpm.FPGrowth, check)
	if len(levels) == 0 {
		return fallbackResult(e.ops, sub), nil
	}
	h := len(levels)
	shared := make([][]graph.VertexID, h+1)
	for _, v := range sub {
		i := t.g.CountSharedKeywords(v, s)
		if i > h {
			i = h
		}
		shared[i] = append(shared[i], v)
	}
	rHat := append([]graph.VertexID(nil), shared[h]...)
	for l := h; l >= 1; l-- {
		var out []Community
		for _, set := range levels[l-1] {
			if comm := e.communityOf(e.ops.FilterByKeywords(rHat, set)); comm != nil {
				out = append(out, Community{Label: set, Vertices: comm})
			}
		}
		if len(out) > 0 {
			return Result{Communities: out, LabelSize: l}, nil
		}
		if l >= 2 {
			rHat = append(rHat, shared[l-1]...)
		}
	}
	return fallbackResult(e.ops, sub), nil
}

// refScoped is the (k−1)-core-scoped search of the clique and truss modes
// with the whole keyword-filtered (k−1)-core as each candidate's scope.
func refScoped(ctx context.Context, t *Tree, q graph.VertexID, k int, s []graph.KeywordID, verify scopedVerifier) (res Result, err error) {
	check, err := begin(ctx)
	if err != nil {
		return Result{}, err
	}
	defer cancel.Recover(&err)
	s, err = normalizeQuery(t.g, q, k, s)
	if err != nil {
		return Result{}, err
	}
	if k < 2 {
		k = 2
	}
	if int(t.Core[q]) < k-1 {
		return Result{}, ErrNoKCore
	}
	scope := t.SubtreeVertices(t.LocateRoot(q, int32(k-1)))
	ops := graph.NewSetOps(t.g)
	levels := mineCandidates(t.g, q, k-1, s, fpm.FPGrowth, check)
	for l := len(levels); l >= 1; l-- {
		var out []Community
		for _, set := range levels[l-1] {
			if comm := verify(t.g, ops.FilterByKeywords(scope, set), q, k, check); comm != nil {
				out = append(out, Community{Label: set, Vertices: comm})
			}
		}
		if len(out) > 0 {
			return Result{Communities: out, LabelSize: l}, nil
		}
	}
	comm := verify(t.g, scope, q, k, check)
	if comm == nil {
		return Result{}, ErrNoKCore
	}
	return fallbackResult(ops, comm), nil
}

// refSWT is Variant 2 as a k-ĉore scan: filter every vertex of q's k-ĉore
// by the ⌈θ·|S|⌉ rule and run the Gk pipeline on the survivors.
func refSWT(ctx context.Context, t *Tree, q graph.VertexID, k int, s []graph.KeywordID, theta float64) (res Result, err error) {
	check, err := begin(ctx)
	if err != nil {
		return Result{}, err
	}
	defer cancel.Recover(&err)
	s, err = validateVariantQuery(t.g, q, k, s)
	if err != nil {
		return Result{}, err
	}
	if theta <= 0 || theta > 1 {
		return Result{}, ErrBadTheta
	}
	if int(t.Core[q]) < k {
		return Result{}, ErrNoKCore
	}
	need := int(math.Ceil(theta * float64(len(s))))
	if need < 1 {
		need = 1
	}
	var cand []graph.VertexID
	for _, v := range t.SubtreeVertices(t.LocateRoot(q, int32(k))) {
		if t.g.CountSharedKeywords(v, s) >= need {
			cand = append(cand, v)
		}
	}
	return singleResult(s, newEnv(t.g, q, k, DefaultOptions(), check).communityOf(cand)), nil
}

// refSJ is SJ as a k-ĉore scan: filter every vertex of q's k-ĉore by
// Jaccard similarity to S and run the Gk pipeline on the survivors.
func refSJ(ctx context.Context, t *Tree, q graph.VertexID, k int, s []graph.KeywordID, tau float64) (res Result, err error) {
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
	var cand []graph.VertexID
	for _, v := range t.SubtreeVertices(t.LocateRoot(q, int32(k))) {
		shared := t.g.CountSharedKeywords(v, s)
		union := len(t.g.Keywords(v)) + len(s) - shared
		if union > 0 && len(s) > 0 && float64(shared)/float64(union) >= tau {
			cand = append(cand, v)
		}
	}
	return singleResult(s, newEnv(t.g, q, k, DefaultOptions(), check).communityOf(cand)), nil
}
