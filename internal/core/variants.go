package core

import (
	"context"

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
	defer t.releaseOps(e.ops)
	root := t.LocateRoot(q, int32(k))
	cand := t.Candidates(root, s, true)
	comm := e.communityOf(cand)
	if comm == nil {
		return Result{}, nil
	}
	return Result{Communities: []Community{{Label: s, Vertices: comm}}, LabelSize: len(s)}, nil
}

// SWT answers Variant 2 with the CL-tree (Appendix G: Search by keyWords with
// Threshold): members must contain at least ⌈θ·|S|⌉ keywords of S.
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
	need := thresholdCount(len(s), theta)
	if t.g.CountSharedKeywords(q, s) < need {
		return Result{}, nil
	}
	e := t.newEnv(q, k, DefaultOptions(), check)
	defer t.releaseOps(e.ops)
	root := t.LocateRoot(q, int32(k))
	sub := t.SubtreeVertices(root)
	cand := filterByThreshold(t.g, sub, s, need, check)
	comm := e.communityOf(cand)
	if comm == nil {
		return Result{}, nil
	}
	return Result{Communities: []Community{{Label: s, Vertices: comm}}, LabelSize: len(s)}, nil
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
	cand := e.ops.FilterByKeywords(ck, s)
	comm := e.communityOf(cand)
	if comm == nil {
		return Result{}, nil
	}
	return Result{Communities: []Community{{Label: s, Vertices: comm}}, LabelSize: len(s)}, nil
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
	all := allVertices(g)
	cand := e.ops.FilterByKeywords(all, s)
	comm := e.communityOf(cand)
	if comm == nil {
		return Result{}, nil
	}
	return Result{Communities: []Community{{Label: s, Vertices: comm}}, LabelSize: len(s)}, nil
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
	cand := filterByThreshold(g, ck, s, thresholdCount(len(s), theta), check)
	comm := e.communityOf(cand)
	if comm == nil {
		return Result{}, nil
	}
	return Result{Communities: []Community{{Label: s, Vertices: comm}}, LabelSize: len(s)}, nil
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
	cand := filterByThreshold(g, allVertices(g), s, thresholdCount(len(s), theta), check)
	comm := e.communityOf(cand)
	if comm == nil {
		return Result{}, nil
	}
	return Result{Communities: []Community{{Label: s, Vertices: comm}}, LabelSize: len(s)}, nil
}

// validateVariantQuery validates (q, k) and canonicalises S without
// intersecting it with W(q): the variants accept arbitrary predefined sets.
func validateVariantQuery(g graph.View, q graph.VertexID, k int, s []graph.KeywordID) ([]graph.KeywordID, error) {
	if int(q) < 0 || int(q) >= g.NumVertices() {
		return nil, ErrVertexOutOfRange
	}
	if k < 1 {
		return nil, ErrBadK
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

func filterByThreshold(g graph.View, vs []graph.VertexID, s []graph.KeywordID, need int, check *cancel.Checker) []graph.VertexID {
	out := make([]graph.VertexID, 0, len(vs))
	for _, v := range vs {
		check.Tick(1)
		if g.CountSharedKeywords(v, s) >= need {
			out = append(out, v)
		}
	}
	return out
}

func allVertices(g graph.View) []graph.VertexID {
	out := make([]graph.VertexID, g.NumVertices())
	for v := range out {
		out[v] = graph.VertexID(v)
	}
	return out
}
