package core

import (
	"context"
	"math"

	"github.com/acq-search/acq/internal/cancel"
	"github.com/acq-search/acq/internal/graph"
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
//   - a verification that hits an enumeration cap of its own (a clique
//     search beyond clique.MaxCliques maximal cliques) leaves its candidate
//     undecided: like a top-r cut, it keeps the level's failure from
//     refuting anything and the level's success from counting as complete;
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
	// BudgetExhausted reports that the work budget ran out mid-evaluation,
	// or that a verification hit an enumeration cap of its own (a clique
	// search beyond clique.MaxCliques maximal cliques). A budget cut ends
	// the walk; a capped verification only leaves its own candidate
	// undecided, and the walk goes on with the level's other candidates
	// and the lower levels. Either way nothing undecided refuted a level,
	// so the bounds stand, and Exact is false.
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
// verify(set) returns the community for one candidate or nil, with ok false
// when the verification hit an enumeration cap and decided nothing, and probe
// runs each level's verification. It returns the qualifying communities of the
// best level probed (nil if none) and the achieved bounds (Work left for the
// caller to fill).
func approxLevels(levels [][][]graph.KeywordID, ap Approx, probe prober, verify func(set []graph.KeywordID) (comm []graph.VertexID, ok bool)) ([]Community, Bounds) {
	h := len(levels)
	lower, upper := 0, h
	cur := h // next probe ceiling; < upper only after a truncated failure
	var best []Community
	truncated := false   // some level's candidate list was cut by top-r
	truncAtBest := false // the winning level's own scan was incomplete
	capped := false      // some verification hit an enumeration cap
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
		undecided := false // a candidate of this level hit an enumeration cap
		exhausted = probe(func() {
			for _, set := range sets {
				comm, ok := verify(set)
				undecided = undecided || !ok
				if comm != nil {
					out = append(out, Community{Label: set, Vertices: comm})
				}
			}
		})
		capped = capped || undecided
		switch {
		case len(out) > 0:
			lower = m
			best = out
			truncAtBest = trunc || undecided || exhausted
		case exhausted:
			// The probe proved nothing; the bounds stand as they are.
		case trunc || undecided:
			// Top-r hid candidates, or a capped verification decided
			// nothing, so the failure refutes nothing; move the cursor past
			// this level without tightening the bound.
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
		Exact:           lower == upper && !exhausted && !capped && !truncAtBest,
		BudgetExhausted: exhausted || capped,
		Truncated:       truncated,
	}
}

// DecApprox is the approximate counterpart of Dec: the same walk under the
// Approx contract and any work budget metered on ctx. At the zero Approx
// with an unspent budget the result is identical to Dec's.
func DecApprox(ctx context.Context, t *Tree, q graph.VertexID, k int, s []graph.KeywordID, opt Options, ap Approx) (Result, Bounds, error) {
	return walk(ctx, t, q, k, s, opt, ap, kcoreStructure, nil, cancel.CatchBudget)
}

// CliqueApprox is the approximate counterpart of CliqueSearch under the same
// contract as DecApprox.
func CliqueApprox(ctx context.Context, t *Tree, q graph.VertexID, k int, s []graph.KeywordID, ap Approx) (Result, Bounds, error) {
	return walk(ctx, t, q, k, s, DefaultOptions(), ap, cliqueStructure, nil, cancel.CatchBudget)
}

// TrussApprox is the approximate counterpart of TrussSearchD (and of
// TrussSearch when d ≤ 0) under the same contract as DecApprox.
func TrussApprox(ctx context.Context, t *Tree, q graph.VertexID, k, d int, s []graph.KeywordID, ap Approx) (Result, Bounds, error) {
	return walk(ctx, t, q, k, s, DefaultOptions(), ap, trussStructure(d), nil, cancel.CatchBudget)
}

// A structure is the structure-cohesiveness measure a walk verifies its
// candidates under.
type structure struct {
	// slack is how far below k the core bound of the measure's communities
	// lies: 0 for the k-core, 1 for k-clique and k-truss, whose communities
	// lie in the (k−1)-core. A walk with slack clamps k to at least 2.
	slack int
	// community returns q's community at e.k inside cand, sorted, or nil;
	// ok is false when the measure's own enumeration cap left it undecided.
	community func(e *env, cand []graph.VertexID) (comm []graph.VertexID, ok bool)
}

// kcoreStructure verifies by the Gk peel, which always decides.
var kcoreStructure = structure{community: func(e *env, cand []graph.VertexID) ([]graph.VertexID, bool) {
	return e.peel(cand), true
}}

// walk is the one body of Dec, DecWithMiner, DecApprox and the clique and
// truss searches, exact and approximate alike: mine the candidate levels
// from q's neighbourhood, then walk them through approxLevels, verifying each
// candidate with env.verify. The core bound is k − st.slack: a qualified
// keyword set is contained by at least that many of q's neighbours of core
// at least that bound, so the bitmask miner (keywordBits.mine, selected by a
// nil mine) mines over those neighbours with that support; DecWithMiner's
// ablation miners run through mineCandidates instead. When every level is
// refuted the answer is the structure-only fallback, the walk's only read of
// the tree's vertex lists: for the k-core a plain copy of q's k-ĉore;
// otherwise the measure's community inside q's (k−1)-ĉore, verified inside a
// probe. A capped verification never ends in ErrNoKCore: the walk answers
// the bounds it could prove, with BudgetExhausted set.
func walk(ctx context.Context, t *Tree, q graph.VertexID, k int, s []graph.KeywordID, opt Options, ap Approx, st structure, mine Miner, probe prober) (res Result, b Bounds, err error) {
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
	if st.slack > 0 && k < 2 {
		k = 2
	}
	if int(t.Core[q]) < k-st.slack {
		return Result{}, Bounds{}, ErrNoKCore
	}
	minCore := int32(k - st.slack)
	e := t.newEnv(q, k, opt, check)
	defer t.releaseScratch(e.sc)
	kb := &e.sc.bits
	kb.reset(t.g, s)

	var levels [][][]graph.KeywordID
	if probe(func() {
		if mine == nil {
			levels = kb.mine(t.g, t.Core, q, int(minCore), check)
		} else {
			levels = mineCandidates(t.g, q, int(minCore), s, mine, check)
		}
	}) {
		return Result{}, Bounds{Upper: len(s), BudgetExhausted: true}, nil
	}
	best, b2 := approxLevels(levels, ap, probe, func(set []graph.KeywordID) ([]graph.VertexID, bool) {
		kb.setWant(set)
		return e.verify(st, nil)
	})
	if best != nil {
		return Result{Communities: best, LabelSize: b2.Lower}, b2, nil
	}
	if b2.Upper > 0 || b2.BudgetExhausted {
		return Result{}, b2, nil
	}
	scope := t.SubtreeVertices(t.LocateRoot(q, minCore))
	if st.slack == 0 {
		return fallbackResult(e.ops, scope), exactBounds(0), nil
	}
	var comm []graph.VertexID
	ok := true
	if probe(func() { comm, ok = st.community(e, scope) }) || !ok {
		return Result{}, Bounds{BudgetExhausted: true}, nil
	}
	if comm == nil {
		return Result{}, Bounds{}, ErrNoKCore
	}
	return fallbackResult(e.ops, comm), exactBounds(0), nil
}
