package core

import (
	"context"
	"math"
	"sort"

	"github.com/acq-search/acq/internal/cancel"
	"github.com/acq-search/acq/internal/clique"
	"github.com/acq-search/acq/internal/fpm"
	"github.com/acq-search/acq/internal/graph"
	"github.com/acq-search/acq/internal/kcore"
	"github.com/acq-search/acq/internal/truss"
)

// This file implements the approximate evaluation path for the
// multi-candidate modes (shared-keyword core, clique, truss). Exactness in
// these modes means finding the LARGEST label size l* with a qualifying
// candidate set and verifying every candidate at that level. Lemma 1's
// anti-monotonicity makes "some size-l candidate qualifies" downward closed
// in l, so l* is a threshold on the level axis and the search can maintain
// sound bounds L ≤ l* ≤ U while probing levels:
//
//   - a level with a verified community raises L (and yields a result);
//   - a level where every candidate fails refutes all larger levels too
//     (supersets of failing sets fail), lowering U;
//   - ε stops the descent once L ≥ (1−ε)·U, guaranteeing a relative score
//     error of at most ε;
//   - top-r caps the candidate sets verified per level; a truncated level
//     that fails proves nothing, so U stays put and only the probe cursor
//     moves;
//   - a work budget (cancel.Meter on the context) cuts any probe short, and
//     the driver returns the best communities found with the bounds that
//     stand.
//
// With ε = 0 and no top-r the probe sequence degenerates to the exact
// evaluators' largest-first descent, so an unspent budget reproduces the
// exact result.

// Approx tunes the approximate evaluation of a query. The zero value asks
// for exact evaluation; a work budget is supplied separately by attaching a
// cancel.Meter to the context, so it bounds every mode through the existing
// checkpoints.
type Approx struct {
	// Epsilon is the allowed relative attribute-score error in [0, 1): the
	// returned label size is ≥ (1−ε) times the maximum achievable.
	Epsilon float64
	// TopR, when positive, caps the candidate keyword sets verified per
	// level, largest-support-first as mined.
	TopR int
}

// Bounds reports what an approximate evaluation actually achieved.
type Bounds struct {
	// Lower and Upper bracket the exact attribute score (maximal AC-label
	// size): Lower ≤ l* ≤ Upper. The returned result's LabelSize equals
	// Lower whenever communities were found.
	Lower, Upper int
	// Exact reports that the result is identical to the exact evaluator's:
	// the bounds met and no candidate was skipped at the winning level.
	Exact bool
	// Work is the number of work units charged to the query's meter, at
	// checkpoint granularity (0 when no meter was attached).
	Work int64
	// BudgetExhausted reports that the work budget ran out mid-evaluation.
	BudgetExhausted bool
	// Truncated reports that top-r dropped candidate sets at some level.
	Truncated bool
}

// exactBounds is the Bounds of a completed exact evaluation at score l.
func exactBounds(l int) Bounds {
	return Bounds{Lower: l, Upper: l, Exact: true}
}

// approxLevels runs the ε-bounded, budget-aware, top-r-truncated search over
// mined candidate levels. levels[l-1] holds the size-l candidate sets;
// verify(l, set) returns the community for one candidate or nil. It returns
// the qualifying communities of the best level probed (nil if none) and the
// achieved bounds (Work left for the caller to fill).
func approxLevels(levels [][][]graph.KeywordID, ap Approx, verify func(l int, set []graph.KeywordID) []graph.VertexID) ([]Community, Bounds) {
	h := len(levels)
	lower, upper := 0, h
	cur := h // next probe ceiling; < upper only after a truncated failure
	var best []Community
	truncated := false   // some level's candidate list was cut by top-r
	truncAtBest := false // the winning level's own scan was incomplete
	exhausted := false

	done := func() bool {
		if lower >= upper {
			return true
		}
		return lower > 0 && ap.Epsilon > 0 && float64(lower) >= (1-ap.Epsilon)*float64(upper)
	}

	for !done() && cur > lower && !exhausted {
		// ε lets the probe jump straight to the lowest level that would
		// still satisfy the stop condition against the current ceiling; at
		// ε = 0 this is the exact evaluators' one-by-one descent.
		m := cur
		if ap.Epsilon > 0 {
			if jump := int(math.Ceil((1 - ap.Epsilon) * float64(cur))); jump > lower+1 {
				m = jump
			} else {
				m = lower + 1
			}
			if m > cur {
				m = cur
			}
		}
		sets := levels[m-1]
		trunc := false
		if ap.TopR > 0 && len(sets) > ap.TopR {
			sets = sets[:ap.TopR]
			trunc = true
			truncated = true
		}
		var out []Community
		exhausted = cancel.CatchBudget(func() {
			for _, set := range sets {
				if comm := verify(m, set); comm != nil {
					out = append(out, Community{Label: set, Vertices: comm})
				}
			}
		})
		switch {
		case len(out) > 0:
			lower = m
			best = out
			truncAtBest = trunc || exhausted
		case exhausted:
			// The probe proved nothing; the bounds stand as they are.
		case trunc:
			// Top-r hid candidates, so the failure refutes nothing; move
			// the cursor past this level without tightening the bound.
			cur = m - 1
		default:
			// Every size-m candidate failed: by anti-monotonicity no level
			// ≥ m can qualify.
			upper = m - 1
			if cur > upper {
				cur = upper
			}
		}
	}
	return best, Bounds{
		Lower:           lower,
		Upper:           upper,
		Exact:           lower == upper && !exhausted && !truncAtBest,
		BudgetExhausted: exhausted,
		Truncated:       truncated,
	}
}

// communityOfComponent is communityOf for a candidate set that is already
// q's connected component (a local-expansion ball): the initial ComponentOf
// pass would return its input, so it is skipped; the rest of the Gk[S']
// pipeline — Lemma 3 prune, peel to minimum degree k, re-take q's component
// — is identical, and so is the result.
func (e *env) communityOfComponent(comp []graph.VertexID) []graph.VertexID {
	if len(comp) == 0 {
		return nil
	}
	if e.opt.UseLemma3 {
		m := e.ops.InducedEdgeCount(comp)
		if !kcore.CanContainKCore(len(comp), m, e.k) {
			return nil
		}
	}
	surv := e.ops.PeelToMinDegree(comp, e.k)
	res := e.ops.ComponentOf(surv, e.q)
	if res == nil {
		return nil
	}
	sort.Slice(res, func(i, j int) bool { return res[i] < res[j] })
	return res
}

// DecApprox is the approximate counterpart of Dec: the same mined candidate
// levels and R̂ scoping, evaluated through approxLevels under the Approx
// contract and any work budget metered on ctx. At the zero Approx with an
// unspent budget the result is identical to Dec's.
func DecApprox(ctx context.Context, t *Tree, q graph.VertexID, k int, s []graph.KeywordID, opt Options, ap Approx) (res Result, b Bounds, err error) {
	check, err := begin(ctx)
	if err != nil {
		return Result{}, Bounds{}, err
	}
	meter := cancel.MeterFrom(ctx)
	defer func() { check.Flush(); b.Work = meter.Spent() }()
	defer cancel.Recover(&err)
	s, err = normalizeQuery(t.g, q, k, s)
	if err != nil {
		return Result{}, Bounds{}, err
	}
	if int(t.Core[q]) < k {
		return Result{}, Bounds{}, ErrNoKCore
	}
	e := newEnv(t.g, q, k, opt, check)
	kRoot := t.LocateRoot(q, int32(k))

	var levels [][][]graph.KeywordID
	var sub []graph.VertexID
	if cancel.CatchBudget(func() {
		levels = mineCandidates(t.g, q, k, s, fpm.FPGrowth, check)
		sub = t.SubtreeVertices(kRoot)
	}) {
		return Result{}, Bounds{Upper: len(s), BudgetExhausted: true}, nil
	}
	if len(levels) == 0 {
		return fallbackResult(sub), exactBounds(0), nil
	}

	// Verification by local expansion: each probe grows q's connected
	// component of {v : core(v) ≥ k ∧ S' ⊆ W(v)} by BFS and refines it with
	// the usual Gk[S'] pipeline. That component is exactly what Dec's global
	// R̂ scan feeds into ComponentOf — every vertex with core ≥ k reachable
	// from q through S'-containing vertices lies in the kRoot subtree and
	// shares ≥ |S'| query keywords — so the community is identical, but the
	// cost is proportional to the community's neighbourhood rather than to
	// the k-ĉore, which is what lets ε > 0 evaluation undercut the exact
	// engine (compare core.eval.approx_ms with core.eval.core_ms in benchmark/).
	minCore := int32(k)
	best, b2 := approxLevels(levels, ap, func(_ int, set []graph.KeywordID) []graph.VertexID {
		ball := e.ops.ExpandComponentOf(q, func(v graph.VertexID) bool {
			return t.Core[v] >= minCore && t.g.HasAllKeywords(v, set)
		})
		return e.communityOfComponent(ball)
	})
	if best != nil {
		return Result{Communities: best, LabelSize: b2.Lower}, b2, nil
	}
	if b2.Upper == 0 && !b2.BudgetExhausted {
		return fallbackResult(sub), exactBounds(0), nil
	}
	return Result{}, b2, nil
}

// CliqueApprox is the approximate counterpart of CliqueSearch under the same
// contract as DecApprox.
func CliqueApprox(ctx context.Context, t *Tree, q graph.VertexID, k int, s []graph.KeywordID, ap Approx) (res Result, b Bounds, err error) {
	return scopedApprox(ctx, t, q, k, s, ap, func(k int, check *cancel.Checker) func(cand []graph.VertexID) []graph.VertexID {
		return func(cand []graph.VertexID) []graph.VertexID {
			return clique.CommunityOf(t.g, cand, q, k, check)
		}
	})
}

// TrussApprox is the approximate counterpart of TrussSearchD (and of
// TrussSearch when d ≤ 0) under the same contract as DecApprox.
func TrussApprox(ctx context.Context, t *Tree, q graph.VertexID, k, d int, s []graph.KeywordID, ap Approx) (res Result, b Bounds, err error) {
	return scopedApprox(ctx, t, q, k, s, ap, func(k int, check *cancel.Checker) func(cand []graph.VertexID) []graph.VertexID {
		if d > 0 {
			return func(cand []graph.VertexID) []graph.VertexID {
				return kdTrussFixpoint(t.g, cand, q, k, d, check)
			}
		}
		return func(cand []graph.VertexID) []graph.VertexID {
			comm, _ := truss.CommunityOf(t.g, cand, q, k, check)
			return comm
		}
	})
}

// scopedApprox is the shared driver for the (k−1)-core-scoped modes (clique,
// truss): mine with support k−1, probe levels through approxLevels with a
// fixed scope, fall back to the structure-only community when every level is
// refuted.
func scopedApprox(
	ctx context.Context, t *Tree, q graph.VertexID, k int, s []graph.KeywordID, ap Approx,
	makeVerify func(k int, check *cancel.Checker) func(cand []graph.VertexID) []graph.VertexID,
) (res Result, b Bounds, err error) {
	check, err := begin(ctx)
	if err != nil {
		return Result{}, Bounds{}, err
	}
	meter := cancel.MeterFrom(ctx)
	defer func() { check.Flush(); b.Work = meter.Spent() }()
	defer cancel.Recover(&err)
	s, err = normalizeQuery(t.g, q, k, s)
	if err != nil {
		return Result{}, Bounds{}, err
	}
	if k < 2 {
		k = 2
	}
	if int(t.Core[q]) < k-1 {
		return Result{}, Bounds{}, ErrNoKCore
	}
	root := t.LocateRoot(q, int32(k-1))
	ops := graph.NewSetOps(t.g)
	ops.SetChecker(check)
	verify := makeVerify(k, check)

	var levels [][][]graph.KeywordID
	if cancel.CatchBudget(func() {
		levels = mineCandidates(t.g, q, k-1, s, fpm.FPGrowth, check)
	}) {
		return Result{}, Bounds{Upper: len(s), BudgetExhausted: true}, nil
	}

	// Local expansion replaces the global scope filter, exactly as in
	// DecApprox: the clique and truss communities containing q are confined
	// to q's connected component of the filtered (k−1)-core, so feeding the
	// component instead of the whole filtered scope changes nothing.
	minCore := int32(k - 1)
	best, b2 := approxLevels(levels, ap, func(_ int, set []graph.KeywordID) []graph.VertexID {
		ball := ops.ExpandComponentOf(q, func(v graph.VertexID) bool {
			return t.Core[v] >= minCore && t.g.HasAllKeywords(v, set)
		})
		return verify(ball)
	})
	if best != nil {
		return Result{Communities: best, LabelSize: b2.Lower}, b2, nil
	}
	if b2.Upper == 0 && !b2.BudgetExhausted {
		var comm []graph.VertexID
		if cancel.CatchBudget(func() { comm = verify(t.SubtreeVertices(root)) }) {
			return Result{}, Bounds{BudgetExhausted: true}, nil
		}
		if comm == nil {
			return Result{}, Bounds{}, ErrNoKCore
		}
		return fallbackResult(comm), exactBounds(0), nil
	}
	return Result{}, b2, nil
}
