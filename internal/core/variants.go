package core

import (
	"context"
	"math"

	"github.com/acq-search/acq/internal/cancel"
	"github.com/acq-search/acq/internal/graph"
	"github.com/acq-search/acq/internal/kcore"
)

// This file implements the two ACQ variants of the paper's Appendix G.
//
// Variant 1 fixes the AC-label: every community member must contain the whole
// predefined keyword set S (no maximality search). Variant 2 relaxes it: every
// member must contain at least ⌈θ·|S|⌉ of S's keywords, θ ∈ (0, 1].

// SW answers Variant 1 with the CL-tree (Appendix G, Algorithm 12: Search by
// keyWords). Unlike the main problem, S need not be a subset of W(q) —
// but q itself must contain S, otherwise no community exists.
func SW(ctx context.Context, t *Tree, q graph.VertexID, k int, s []graph.KeywordID) (res Result, err error) {
	check, err := begin(ctx)
	if err != nil {
		return Result{}, err
	}
	defer cancel.Recover(&err)
	s, err = validateVariantQuery(t.g, q, k, s)
	if err != nil {
		return Result{}, err
	}
	if int(t.Core[q]) < k {
		return Result{}, ErrNoKCore
	}
	if !t.g.HasAllKeywords(q, s) {
		return Result{}, nil
	}
	e := t.newEnv(q, k, DefaultOptions(), check)
	defer t.releaseScratch(e.sc)
	root := t.LocateRoot(q, int32(k))
	return singleResult(s, e.communityOf(t.Candidates(root, s, true))), nil
}

// SWT answers Variant 2 with the CL-tree (Appendix G: Search by keyWords with
// Threshold): members must contain at least ⌈θ·|S|⌉ keywords of S. The
// single candidate is verified by local expansion from q (env.verify), so
// the cost follows the community's neighbourhood, not q's k-ĉore.
func SWT(ctx context.Context, t *Tree, q graph.VertexID, k int, s []graph.KeywordID, theta float64) (res Result, err error) {
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
	return singleResult(s, t.verifyRule(q, k, thresholdRule(t.g, s, theta), check)), nil
}

// verifyRule verifies the single candidate of a keyword-predicate variant
// (SWT, SJ) with env.verify: q's community among the vertices of core ≥ k
// that pass rule. nil means no community.
func (t *Tree) verifyRule(q graph.VertexID, k int, rule func(graph.VertexID) bool, check *cancel.Checker) []graph.VertexID {
	e := t.newEnv(q, k, DefaultOptions(), check)
	defer t.releaseScratch(e.sc)
	comm, _ := e.verify(kcoreStructure, rule)
	return comm
}

// BasicGV1 answers Variant 1 without an index (Appendix G, Algorithm 10):
// k-ĉore of q first, keyword filter second.
func BasicGV1(ctx context.Context, g graph.View, q graph.VertexID, k int, s []graph.KeywordID) (res Result, err error) {
	check, err := begin(ctx)
	if err != nil {
		return Result{}, err
	}
	defer cancel.Recover(&err)
	s, err = validateVariantQuery(g, q, k, s)
	if err != nil {
		return Result{}, err
	}
	e := newEnv(g, q, k, DefaultOptions(), check)
	ck := kcore.KHatCoreScratch(e.ops, q, k)
	if ck == nil {
		return Result{}, ErrNoKCore
	}
	return singleResult(s, e.communityOf(e.ops.FilterByKeywords(ck, s))), nil
}

// BasicWV1 answers Variant 1 without an index (Appendix G, Algorithm 11):
// keyword filter over the whole graph first, degree refinement second.
func BasicWV1(ctx context.Context, g graph.View, q graph.VertexID, k int, s []graph.KeywordID) (res Result, err error) {
	check, err := begin(ctx)
	if err != nil {
		return Result{}, err
	}
	defer cancel.Recover(&err)
	s, err = validateVariantQuery(g, q, k, s)
	if err != nil {
		return Result{}, err
	}
	e := newEnv(g, q, k, DefaultOptions(), check)
	if kcore.KHatCoreScratch(e.ops, q, k) == nil {
		return Result{}, ErrNoKCore
	}
	return singleResult(s, e.communityOf(e.ops.FilterByKeywords(allVertices(g), s))), nil
}

// BasicGV2 answers Variant 2 without an index, filtering inside the k-ĉore.
func BasicGV2(ctx context.Context, g graph.View, q graph.VertexID, k int, s []graph.KeywordID, theta float64) (res Result, err error) {
	check, err := begin(ctx)
	if err != nil {
		return Result{}, err
	}
	defer cancel.Recover(&err)
	s, err = validateVariantQuery(g, q, k, s)
	if err != nil {
		return Result{}, err
	}
	if theta <= 0 || theta > 1 {
		return Result{}, ErrBadTheta
	}
	e := newEnv(g, q, k, DefaultOptions(), check)
	ck := kcore.KHatCoreScratch(e.ops, q, k)
	if ck == nil {
		return Result{}, ErrNoKCore
	}
	return singleResult(s, e.communityOf(filterVertices(ck, thresholdRule(g, s, theta), check))), nil
}

// BasicWV2 answers Variant 2 without an index, filtering the whole graph.
func BasicWV2(ctx context.Context, g graph.View, q graph.VertexID, k int, s []graph.KeywordID, theta float64) (res Result, err error) {
	check, err := begin(ctx)
	if err != nil {
		return Result{}, err
	}
	defer cancel.Recover(&err)
	s, err = validateVariantQuery(g, q, k, s)
	if err != nil {
		return Result{}, err
	}
	if theta <= 0 || theta > 1 {
		return Result{}, ErrBadTheta
	}
	e := newEnv(g, q, k, DefaultOptions(), check)
	if kcore.KHatCoreScratch(e.ops, q, k) == nil {
		return Result{}, ErrNoKCore
	}
	return singleResult(s, e.communityOf(filterVertices(allVertices(g), thresholdRule(g, s, theta), check))), nil
}

// validateVariantQuery validates (q, k) and canonicalises S without
// intersecting it with W(q): the variants accept arbitrary predefined sets.
// A k beyond int32 has no k-core, as in normalizeQuery.
func validateVariantQuery(g graph.View, q graph.VertexID, k int, s []graph.KeywordID) ([]graph.KeywordID, error) {
	if int(q) < 0 || int(q) >= g.NumVertices() {
		return nil, ErrVertexOutOfRange
	}
	if k < 1 {
		return nil, ErrBadK
	}
	if k > math.MaxInt32 {
		return nil, ErrNoKCore
	}
	return graph.SortKeywordSet(append([]graph.KeywordID(nil), s...)), nil
}

// thresholdCount returns the Variant-2 requirement ⌈θ·|S|⌉ (at least 1).
func thresholdCount(size int, theta float64) int {
	need := int(theta * float64(size))
	if float64(need) < theta*float64(size) {
		need++
	}
	if need < 1 {
		need = 1
	}
	return need
}

// thresholdRule is Variant 2's keyword predicate: v contains at least
// ⌈θ·|S|⌉ keywords of S.
func thresholdRule(g graph.View, s []graph.KeywordID, theta float64) func(graph.VertexID) bool {
	need := thresholdCount(len(s), theta)
	return func(v graph.VertexID) bool { return g.CountSharedKeywords(v, s) >= need }
}

// filterVertices keeps the vertices of vs that satisfy keep, ticking check
// once per vertex: the index-free variants' whole-set keyword filter.
func filterVertices(vs []graph.VertexID, keep func(graph.VertexID) bool, check *cancel.Checker) []graph.VertexID {
	out := make([]graph.VertexID, 0, len(vs))
	for _, v := range vs {
		check.Tick(1)
		if keep(v) {
			out = append(out, v)
		}
	}
	return out
}

// singleResult wraps a single-candidate variant's community (nil: none
// exists) as a result labelled with the whole keyword set S.
func singleResult(s []graph.KeywordID, comm []graph.VertexID) Result {
	if comm == nil {
		return Result{}
	}
	return Result{Communities: []Community{{Label: s, Vertices: comm}}, LabelSize: len(s)}
}

func allVertices(g graph.View) []graph.VertexID {
	out := make([]graph.VertexID, g.NumVertices())
	for v := range out {
		out[v] = graph.VertexID(v)
	}
	return out
}
