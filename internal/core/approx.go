package core

import (
	"context"
	"math"

	"github.com/acq-search/acq/internal/cancel"
	"github.com/acq-search/acq/internal/clique"
	"github.com/acq-search/acq/internal/graph"
	"github.com/acq-search/acq/internal/kcore"
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
// With ε = 0 and no top-r the probe sequence is the paper's largest-first
// descent, and the exact entry points (Dec, CliqueSearch, TrussSearch[D])
// are exactly that walk: the same code at the zero Approx, except that a
// budget unwind propagates to the caller as cancel.ErrBudget instead of
// ending the walk with a partial result.

// Approx tunes the approximate evaluation of a query. The zero value asks
// for exact evaluation; a work budget is supplied separately by attaching a
// cancel.Meter to the context, so it bounds every mode through the existing
// checkpoints.
type Approx struct {
	// Epsilon is the allowed relative attribute-score error in [0, 1): the
	// returned label size is ≥ (1−ε) times the maximum achievable.
	Epsilon float64
	// TopR, when positive, caps the candidate keyword sets verified per
	// level to the first TopR in mined order: within a level, candidates
	// are sorted lexicographically by keyword ID, not by support. Only sets
	// contained by at least k of q's neighbours of core ≥ k (k − 1 of core
	// ≥ k − 1 for clique and truss) are mined, so TopR counts none that
	// could never qualify.
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

// A prober runs one step of a walk — mining, one level's verification, the
// fallback — and reports whether a budget unwind cut it short. The
// approximate entry points use cancel.CatchBudget, which turns an exhausted
// budget into a partial result; the exact ones use runToEnd, which lets the
// unwind reach the entry point's cancel.Recover as cancel.ErrBudget.
type prober func(step func()) (exhausted bool)

func runToEnd(step func()) bool {
	step()
	return false
}

// approxLevels runs the ε-bounded, budget-aware, top-r-truncated search over
// mined candidate levels. levels[l-1] holds the size-l candidate sets;
// verify(set) returns the community for one candidate or nil, and probe runs
// each level's verification. It returns the qualifying communities of the
// best level probed (nil if none) and the achieved bounds (Work left for the
// caller to fill).
func approxLevels(levels [][][]graph.KeywordID, ap Approx, probe prober, verify func(set []graph.KeywordID) []graph.VertexID) ([]Community, Bounds) {
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
		exhausted = probe(func() {
			for _, set := range sets {
				if comm := verify(set); comm != nil {
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
	return e.ops.SortSet(res)
}

// DecApprox is the approximate counterpart of Dec: the same walk under the
// Approx contract and any work budget metered on ctx. At the zero Approx
// with an unspent budget the result is identical to Dec's.
func DecApprox(ctx context.Context, t *Tree, q graph.VertexID, k int, s []graph.KeywordID, opt Options, ap Approx) (Result, Bounds, error) {
	return decWalk(ctx, t, q, k, s, opt, ap, nil, cancel.CatchBudget)
}

// decWalk is the shared body of Dec, DecWithMiner and DecApprox: mine the
// candidate levels from q's neighbourhood, then walk them through
// approxLevels, verifying each candidate by local expansion. A nil mine
// selects the bitmask miner (keywordBits.mine) that Dec and DecApprox serve
// with; DecWithMiner's ablation miners run through mineCandidates instead.
// Either way the expansion tests keywords on S's bitmasks. Each probe
// grows q's connected component of {v : core(v) ≥ k ∧ S' ⊆ W(v)} by BFS and
// refines it with the usual Gk[S'] pipeline. That component is exactly the
// one Algorithm 4's R̂ filter would feed into ComponentOf — every vertex with
// core ≥ k reachable from q through S'-containing vertices lies in q's
// k-ĉore and shares ≥ |S'| query keywords — so the community is identical,
// but the cost is proportional to the community's neighbourhood rather than
// to the k-ĉore. The k-ĉore itself is materialised only for a fallback
// answer.
func decWalk(ctx context.Context, t *Tree, q graph.VertexID, k int, s []graph.KeywordID, opt Options, ap Approx, mine Miner, probe prober) (res Result, b Bounds, err error) {
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
	e := t.newEnv(q, k, opt, check)
	defer t.releaseScratch(e.sc)
	fallback := func() Result { return fallbackResult(e.ops, t.SubtreeVertices(t.LocateRoot(q, int32(k)))) }
	kb := &e.sc.bits
	kb.reset(t.g, s)

	var levels [][][]graph.KeywordID
	if probe(func() {
		if mine == nil {
			levels = kb.mine(t.g, t.Core, q, k, check)
		} else {
			levels = mineCandidates(t.g, q, k, s, mine, check)
		}
	}) {
		return Result{}, Bounds{Upper: len(s), BudgetExhausted: true}, nil
	}
	if len(levels) == 0 {
		return fallback(), exactBounds(0), nil
	}
	minCore := int32(k)
	keep := func(v graph.VertexID) bool { return t.Core[v] >= minCore && kb.covers(t.g.Keywords(v)) }
	best, b2 := approxLevels(levels, ap, probe, func(set []graph.KeywordID) []graph.VertexID {
		kb.setWant(set)
		return e.communityOfComponent(e.ops.ExpandComponentOf(q, keep))
	})
	if best != nil {
		return Result{Communities: best, LabelSize: b2.Lower}, b2, nil
	}
	if b2.Upper == 0 && !b2.BudgetExhausted {
		return fallback(), exactBounds(0), nil
	}
	return Result{}, b2, nil
}

// CliqueApprox is the approximate counterpart of CliqueSearch under the same
// contract as DecApprox.
func CliqueApprox(ctx context.Context, t *Tree, q graph.VertexID, k int, s []graph.KeywordID, ap Approx) (Result, Bounds, error) {
	return scopedWalk(ctx, t, q, k, s, ap, cancel.CatchBudget, clique.CommunityOf)
}

// TrussApprox is the approximate counterpart of TrussSearchD (and of
// TrussSearch when d ≤ 0) under the same contract as DecApprox.
func TrussApprox(ctx context.Context, t *Tree, q graph.VertexID, k, d int, s []graph.KeywordID, ap Approx) (Result, Bounds, error) {
	return scopedWalk(ctx, t, q, k, s, ap, cancel.CatchBudget, trussVerifier(d))
}

// A scopedVerifier returns q's community inside cand under the mode's
// cohesiveness at k, or nil; clique.CommunityOf is one.
type scopedVerifier func(g graph.View, cand []graph.VertexID, q graph.VertexID, k int, check *cancel.Checker) []graph.VertexID

// scopedWalk is the shared walk of the (k−1)-core-scoped modes (clique,
// truss), exact and approximate alike: mine with support k−1 over q's
// neighbours of core ≥ k−1, probe levels through approxLevels, fall back to
// the structure-only community when every level is refuted. Each candidate is verified on q's connected component of
// the S'-filtered (k−1)-core, grown by local expansion as in decWalk: the
// clique and truss communities containing q are confined to that component,
// so feeding it instead of the whole filtered (k−1)-core changes nothing.
func scopedWalk(
	ctx context.Context, t *Tree, q graph.VertexID, k int, s []graph.KeywordID, ap Approx, probe prober, verify scopedVerifier,
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
	sc := t.acquireScratch(check)
	defer t.releaseScratch(sc)
	kb := &sc.bits
	kb.reset(t.g, s)

	var levels [][][]graph.KeywordID
	if probe(func() { levels = kb.mine(t.g, t.Core, q, k-1, check) }) {
		return Result{}, Bounds{Upper: len(s), BudgetExhausted: true}, nil
	}
	minCore := int32(k - 1)
	keep := func(v graph.VertexID) bool { return t.Core[v] >= minCore && kb.covers(t.g.Keywords(v)) }
	best, b2 := approxLevels(levels, ap, probe, func(set []graph.KeywordID) []graph.VertexID {
		kb.setWant(set)
		return verify(t.g, sc.ops.ExpandComponentOf(q, keep), q, k, check)
	})
	if best != nil {
		return Result{Communities: best, LabelSize: b2.Lower}, b2, nil
	}
	if b2.Upper == 0 && !b2.BudgetExhausted {
		var comm []graph.VertexID
		if probe(func() { comm = verify(t.g, t.SubtreeVertices(t.LocateRoot(q, int32(k-1))), q, k, check) }) {
			return Result{}, Bounds{BudgetExhausted: true}, nil
		}
		if comm == nil {
			return Result{}, Bounds{}, ErrNoKCore
		}
		return fallbackResult(sc.ops, comm), exactBounds(0), nil
	}
	return Result{}, b2, nil
}
