package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/acq-search/acq/internal/cancel"
	"github.com/acq-search/acq/internal/graph"
	"github.com/acq-search/acq/internal/kcore"
)

// Community is one attributed community (AC): a connected subgraph containing
// the query vertex in which every vertex has degree ≥ k and contains every
// keyword of Label (the AC-label, Problem 1).
type Community struct {
	// Label is the AC-label: the maximal set of query keywords shared by all
	// members. Sorted; empty for a keyword-cohesiveness fallback result.
	Label []graph.KeywordID
	// Vertices are the community members, sorted.
	Vertices []graph.VertexID
}

// Result is the output of an ACQ evaluation.
type Result struct {
	// Communities holds one entry per qualified keyword set of maximal size.
	Communities []Community
	// LabelSize is the common size of all AC-labels (0 for a fallback).
	LabelSize int
	// Fallback is true when no keyword is shared by any qualifying community
	// and the returned community satisfies only connectivity and structure
	// cohesiveness (the paper's footnote 2 behaviour).
	Fallback bool
}

// Options tune the query algorithms; the zero value is NOT the default, use
// DefaultOptions. They exist to support the paper's ablations.
type Options struct {
	// UseInvertedLists selects per-node inverted-list intersection for
	// keyword-checking. Disabling it yields the Inc-S*/Inc-T* variants of
	// Figure 15, which scan vertex keyword sets instead.
	UseInvertedLists bool
	// UseLemma3 enables the m−n < k(k−1)/2−1 prune before peeling.
	UseLemma3 bool
}

// DefaultOptions returns the configuration used in the paper's headline
// experiments: inverted lists and the Lemma 3 prune both on.
func DefaultOptions() Options {
	return Options{UseInvertedLists: true, UseLemma3: true}
}

// Query-validation errors.
var (
	// ErrVertexOutOfRange reports a query vertex not present in the graph.
	ErrVertexOutOfRange = errors.New("acq: query vertex out of range")
	// ErrBadK reports a non-positive degree bound.
	ErrBadK = errors.New("acq: k must be ≥ 1")
	// ErrNoKCore reports that no k-ĉore contains the query vertex, i.e.
	// core(q) < k, so no community satisfies structure cohesiveness.
	ErrNoKCore = errors.New("acq: no k-core contains the query vertex")
	// ErrBadTheta reports a Variant-2 threshold outside (0, 1].
	ErrBadTheta = errors.New("acq: theta must be in (0, 1]")
)

// env bundles per-query state shared by all algorithms.
type env struct {
	g     graph.View
	ops   *graph.SetOps
	q     graph.VertexID
	k     int
	opt   Options
	check *cancel.Checker
	// sc is the pooled scratch ops came from, and core the tree's core
	// numbers; both nil for an index-free env.
	sc   *queryScratch
	core []int32
}

// newEnv assembles the per-query state of an index-free evaluation, wiring
// the cancellation checker into fresh induced-subgraph scratch space so
// every peel/BFS loop observes ctx.
func newEnv(g graph.View, q graph.VertexID, k int, opt Options, check *cancel.Checker) *env {
	ops := graph.NewSetOps(g)
	ops.SetChecker(check)
	return &env{g: g, ops: ops, q: q, k: k, opt: opt, check: check}
}

// newEnv is the package-level newEnv over scratch taken from t's pool; the
// caller must defer t.releaseScratch(e.sc).
func (t *Tree) newEnv(q graph.VertexID, k int, opt Options, check *cancel.Checker) *env {
	sc := t.acquireScratch(check)
	return &env{g: t.g, ops: sc.ops, q: q, k: k, opt: opt, check: check, sc: sc, core: t.Core}
}

// begin starts a cancellable evaluation: it builds the amortised checker for
// ctx and fails fast when the context is already canceled. Every public query
// entry point pairs it with `defer cancel.Recover(&err)` so checkpoint
// unwinds surface as ordinary errors wrapping cancel.ErrCanceled.
func begin(ctx context.Context) (*cancel.Checker, error) {
	check := cancel.New(ctx)
	if err := check.Err(); err != nil {
		return nil, err
	}
	return check, nil
}

// normalizeQuery validates (q, k) and canonicalises S: nil means W(q), and
// keywords outside W(q) are dropped (the paper skips them — no community
// containing q can share a keyword q itself lacks). A k beyond int32 has no
// k-core (degrees and core numbers are int32), and is refused here so that
// no evaluator truncates it to a small bound.
func normalizeQuery(g graph.View, q graph.VertexID, k int, s []graph.KeywordID) ([]graph.KeywordID, error) {
	if int(q) < 0 || int(q) >= g.NumVertices() {
		return nil, fmt.Errorf("%w: %d", ErrVertexOutOfRange, q)
	}
	if k < 1 {
		return nil, fmt.Errorf("%w: got %d", ErrBadK, k)
	}
	if k > math.MaxInt32 {
		return nil, ErrNoKCore
	}
	if s == nil {
		return append([]graph.KeywordID(nil), g.Keywords(q)...), nil
	}
	sorted := graph.SortKeywordSet(append([]graph.KeywordID(nil), s...))
	out := sorted[:0]
	for _, w := range sorted {
		if g.HasKeyword(q, w) {
			out = append(out, w)
		}
	}
	return out, nil
}

// communityOf runs the Gk[S'] pipeline on a candidate vertex set that already
// satisfies the keyword constraint: take q's connected component, then peel
// it. The result is sorted; nil means no qualifying community.
func (e *env) communityOf(cand []graph.VertexID) []graph.VertexID {
	comp := e.ops.ComponentOf(cand, e.q)
	if comp == nil {
		return nil
	}
	return e.peel(comp)
}

// peel is the rest of the Gk[S'] pipeline on q's connected component comp:
// apply the Lemma 3 prune, peel to minimum degree k, re-take q's component
// and sort it. nil means no qualifying community.
func (e *env) peel(comp []graph.VertexID) []graph.VertexID {
	if e.opt.UseLemma3 && !kcore.CanContainKCore(len(comp), e.ops.InducedEdgeCount(comp), e.k) {
		return nil
	}
	return e.ops.SortSet(e.ops.ComponentOf(e.ops.PeelToMinDegree(comp, e.k), e.q))
}

// verify is the one candidate verifier of the index-backed searches (the
// walks, SWT, SJ and CommunitiesByLabelSize): q's community under st inside
// q's connected component of {v : core(v) ≥ e.k − st.slack ∧ rule(v)},
// sorted, or nil; ok is false when st's enumeration cap left it undecided.
// A nil rule is the walks' keyword-set test, the set loaded into the scratch
// keyword bits by setWant; the core bound and the keyword test share one
// closure, so the expansion tests each vertex with a single call. The component is grown by BFS from q (local expansion) instead of
// being filtered out of q's ĉore: every vertex that passes the test and is
// reachable from q through such vertices lies in q's ĉore, so the community
// is the one a scan of the whole ĉore finds, at a cost that follows the
// community's neighbourhood instead. The expansion never tests q itself,
// hence the guard on q.
func (e *env) verify(st structure, rule func(graph.VertexID) bool) (comm []graph.VertexID, ok bool) {
	core, minCore := e.core, int32(e.k-st.slack)
	keep := func(v graph.VertexID) bool { return core[v] >= minCore && rule(v) }
	if rule == nil {
		g, kb := e.g, &e.sc.bits
		keep = func(v graph.VertexID) bool { return core[v] >= minCore && kb.covers(g.Keywords(v)) }
	}
	if !keep(e.q) {
		return nil, true
	}
	return st.community(e, e.ops.ExpandComponentOf(e.q, keep))
}

// fallbackResult wraps the plain k-ĉore of q as a LabelSize-0 result. It
// sorts kcoreOfQ in place with ops.SortSet, a bitmap sort over the set's ID
// span, and keeps it: every caller passes a slice of its own
// (SubtreeVertices, ComponentOf and the clique and truss verifiers all
// return fresh ones).
func fallbackResult(ops *graph.SetOps, kcoreOfQ []graph.VertexID) Result {
	kcoreOfQ = ops.SortSet(kcoreOfQ)
	return Result{
		Communities: []Community{{Vertices: kcoreOfQ}},
		Fallback:    true,
	}
}

// keywordSetKey encodes a sorted keyword set as a map key.
func keywordSetKey(s []graph.KeywordID) string {
	b := make([]byte, 0, len(s)*4)
	for _, w := range s {
		b = append(b, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	return string(b)
}

// geneCand implements Algorithm 7 (GENECAND): it joins every pair of size-c
// qualified keyword sets that differ only in their last keyword into a
// size-(c+1) candidate, pruning candidates that have a non-qualified size-c
// subset (the Lemma 1 anti-monotonicity prune). Input sets must be sorted;
// the output records, for every candidate, the indices of the two parents it
// was joined from (used by Inc-S/Inc-T to seed the verification scope per
// Lemmas 2 and 4).
type candidate struct {
	set         []graph.KeywordID
	left, right int // indices into the qualified slice this was joined from
}

func geneCand(qualified [][]graph.KeywordID) []candidate {
	have := make(map[string]bool, len(qualified))
	for _, s := range qualified {
		have[keywordSetKey(s)] = true
	}
	var out []candidate
	sub := make([]graph.KeywordID, 0, 8)
	for i := 0; i < len(qualified); i++ {
		for j := i + 1; j < len(qualified); j++ {
			a, b := qualified[i], qualified[j]
			c := len(a)
			if c == 0 || !equalKeywordPrefix(a, b, c-1) {
				continue
			}
			lo, hi := a[c-1], b[c-1]
			li, ri := i, j
			if lo == hi {
				continue
			}
			if lo > hi {
				lo, hi = hi, lo
				li, ri = j, i
			}
			cand := make([]graph.KeywordID, c+1)
			copy(cand, a[:c-1])
			cand[c-1], cand[c] = lo, hi
			if !allSubsetsQualified(cand, have, &sub) {
				continue
			}
			out = append(out, candidate{set: cand, left: li, right: ri})
		}
	}
	return out
}

func allSubsetsQualified(cand []graph.KeywordID, have map[string]bool, scratch *[]graph.KeywordID) bool {
	for skip := range cand {
		sub := (*scratch)[:0]
		for i, w := range cand {
			if i != skip {
				sub = append(sub, w)
			}
		}
		*scratch = sub
		if !have[keywordSetKey(sub)] {
			return false
		}
	}
	return true
}

func equalKeywordPrefix(a, b []graph.KeywordID, n int) bool {
	if len(a) < n || len(b) < n {
		return false
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// singletonSets splits s into size-1 keyword sets.
func singletonSets(s []graph.KeywordID) [][]graph.KeywordID {
	out := make([][]graph.KeywordID, len(s))
	for i, w := range s {
		out[i] = []graph.KeywordID{w}
	}
	return out
}
