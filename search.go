package acq

import (
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/acq-search/acq/internal/cancel"
	"github.com/acq-search/acq/internal/core"
	"github.com/acq-search/acq/internal/graph"
	"github.com/acq-search/acq/internal/kcore"
)

// Algorithm selects an ACQ evaluation strategy.
type Algorithm string

const (
	// AlgoDec is the decremental algorithm — the paper's fastest; default.
	AlgoDec Algorithm = "dec"
	// AlgoIncS is the space-efficient incremental algorithm.
	AlgoIncS Algorithm = "inc-s"
	// AlgoIncT is the time-efficient incremental algorithm.
	AlgoIncT Algorithm = "inc-t"
	// AlgoBasicG is the index-free baseline that filters inside the k-ĉore.
	AlgoBasicG Algorithm = "basic-g"
	// AlgoBasicW is the index-free baseline that filters the whole graph.
	AlgoBasicW Algorithm = "basic-w"
)

// Mode selects the community model a Query evaluates. The zero value (or
// ModeCore) is the paper's Problem 1; the other modes fold the former
// SearchFixed/SearchThreshold/SearchClique/SearchSimilar/SearchTruss
// entrypoints into the one Search surface.
type Mode string

const (
	// ModeCore (also the zero value "") answers the paper's Problem 1:
	// minimum-degree-k communities sharing a maximal subset of S.
	ModeCore Mode = "core"
	// ModeFixed is Variant 1 (Appendix G): every member must contain the
	// whole keyword set S. Empty Communities (nil error) means none exists.
	ModeFixed Mode = "fixed"
	// ModeThreshold is Variant 2 (Appendix G): every member must contain at
	// least ⌈Theta·|S|⌉ of the keywords, Query.Theta ∈ (0, 1].
	ModeThreshold Mode = "threshold"
	// ModeClique uses k-clique percolation structure cohesiveness:
	// communities are unions of overlapping cliques of size ≥ k reachable
	// from q sharing a maximal keyword subset. Requires an index; k ≥ 2.
	ModeClique Mode = "clique"
	// ModeSimilar requires every member's keyword set to have Jaccard
	// similarity ≥ Query.Tau to S (default W(q)), Tau ∈ (0, 1]. Requires an
	// index unless Algorithm is AlgoBasicG.
	ModeSimilar Mode = "similar"
	// ModeTruss uses k-truss structure cohesiveness: every community edge
	// must close ≥ k−2 triangles inside the community. Query.MaxHops > 0
	// additionally bounds the in-community hop distance from q (the
	// (k,d)-truss). Requires an index; k ≥ 2.
	ModeTruss Mode = "truss"
)

// Query describes one attributed community query.
type Query struct {
	// Vertex is the query vertex's label; when empty, VertexID is used.
	Vertex string
	// VertexID is the query vertex's dense ID (used when Vertex == "").
	VertexID int32
	// K is the minimum degree bound (structure cohesiveness); must be ≥ 1.
	K int
	// Keywords is the input keyword set S. nil or empty means S = W(q),
	// the paper's default. For ModeCore, keywords q does not carry are
	// ignored; for ModeFixed/ModeThreshold they are honoured as given.
	Keywords []string
	// Mode selects the community model; empty means ModeCore.
	Mode Mode
	// Theta is ModeThreshold's sharing fraction θ ∈ (0, 1]: each member must
	// contain at least ⌈θ·|S|⌉ of the keywords. Ignored by other modes.
	Theta float64
	// Tau is ModeSimilar's Jaccard bound τ ∈ (0, 1]. Ignored by other modes.
	Tau float64
	// Algorithm picks the evaluation strategy; empty means AlgoDec.
	// Index-free algorithms (basic-g, basic-w) work without BuildIndex.
	Algorithm Algorithm
	// DisableInvertedLists turns off the CL-tree inverted lists during
	// keyword-checking (the paper's Inc-S*/Inc-T* ablation).
	DisableInvertedLists bool
	// FuzzDistance, when > 0, expands Keywords with every dictionary word
	// within that Levenshtein distance before the search — typo-tolerant
	// keyword queries ("reserch" still finds "research"). Ignored when
	// Keywords is empty. Clamped to 3.
	FuzzDistance int
	// MaxHops bounds the hop distance from the query vertex measured inside
	// the community — the (k,d)-truss constraint. Only honoured by
	// ModeTruss; 0 means unbounded.
	MaxHops int
	// Epsilon, in [0, 1), allows approximate evaluation: the returned
	// attribute score (AC-label size) is guaranteed ≥ (1−ε) times the
	// maximum achievable, and Result reports the achieved bounds. 0 (the
	// default) keeps evaluation exact. Epsilon steers the multi-candidate
	// modes (core, clique, truss), whose approximate evaluator follows the
	// decremental strategy regardless of Algorithm; the single-candidate
	// modes satisfy any ε trivially and evaluate exactly. Index-free
	// algorithms ignore ε the same way.
	Epsilon float64
	// Budget, when > 0, caps the work spent on the query, measured in
	// vertices/edges touched at the evaluators' cancellation checkpoints.
	// An exhausted budget ends the evaluation early: the result carries
	// whatever was proven by then (possibly no communities) with
	// BudgetExhausted set and sound score bounds. Every mode and algorithm
	// honours the budget. Core (with AlgoDec), clique and truss run the same
	// level walk with or without ε, so a budget alone returns the best level
	// verified before it ran out; the other evaluators return no communities
	// and the bracket [0, largest possible label]. 0 means unbounded.
	Budget int64
	// TopR, when > 0, caps the candidate keyword sets verified per label
	// size in the multi-candidate modes, trading completeness of the
	// returned community set for latency. 0 verifies all candidates.
	TopR int
}

// Community is one attributed community.
type Community struct {
	// Label is the AC-label: the keywords shared by every member.
	Label []string
	// Members holds the member labels (or "#<id>" for unlabelled vertices).
	Members []string
	// MemberIDs holds the member vertex IDs, sorted.
	MemberIDs []int32
}

// Result is the outcome of a community search.
type Result struct {
	// Communities holds one community per maximal shared keyword set.
	Communities []Community
	// LabelSize is the number of shared keywords (0 for a fallback).
	LabelSize int
	// Fallback is true when no keywords could be shared and the plain
	// k-ĉore was returned instead.
	Fallback bool
	// ScoreLowerBound and ScoreUpperBound bracket the exact attribute score
	// (the maximal AC-label size): lower ≤ exact ≤ upper. An exact
	// evaluation reports both equal to LabelSize; an approximate one may
	// leave a gap of at most Epsilon·upper.
	ScoreLowerBound int
	ScoreUpperBound int
	// Exact reports that the result is identical to what exact evaluation
	// would return: the bounds met and no candidate was skipped. Always
	// true when Epsilon, Budget and TopR are all zero, and when a budget
	// alone was never reached, except for a clique search that hit its
	// enumeration cap (see BudgetExhausted); possibly true even with ε > 0
	// when the search happened to complete exactly.
	Exact bool
	// Work counts the work units actually spent, at checkpoint granularity.
	// Only metered when Epsilon, Budget or TopR is set; 0 otherwise.
	Work int64
	// BudgetExhausted reports that Query.Budget ran out mid-evaluation and
	// the result is whatever had been established by then: for core (with
	// AlgoDec), clique and truss the communities of the best level verified
	// (possibly none), elsewhere no communities. A clique search also sets
	// it, budget or not, when a verification passes 200 000 maximal
	// cliques: that candidate stays undecided and refutes nothing, while the
	// search goes on with the other candidates and returns the best level
	// verified.
	BudgetExhausted bool
}

// Searcher is the query surface shared by Graph (direct reads against the
// latest publication) and Snapshot (lock-free reads against one pinned
// published copy). Code that only evaluates queries should accept a Searcher
// so it serves both paths.
type Searcher interface {
	// Search evaluates one query under ctx; see Graph.Search.
	Search(ctx context.Context, q Query) (Result, error)
	// SearchBatch evaluates many queries concurrently and returns results in
	// input order; see Graph.SearchBatch.
	SearchBatch(ctx context.Context, queries []Query, opts BatchOptions) []BatchResult
}

var (
	_ Searcher = (*Graph)(nil)
	_ Searcher = (*Snapshot)(nil)
)

// view is the read-only pairing of a graph view with its (possibly nil)
// CL-tree that every search algorithm runs against: a published frozen base
// or overlay and its tree. Graph and Snapshot both evaluate queries through a
// view, so the two paths cannot drift apart.
type view struct {
	g    graph.View
	tree *core.Tree
}

// view is the graph and index as of the latest write: the current
// publication's view (see Graph.current). Direct reads go through it, so the
// writer's master is only ever touched under mu.
func (G *Graph) view() view { return G.current().v }

// Search evaluates one attributed community query. It is the single
// evaluation entrypoint: Query.Mode selects the community model (Problem 1
// by default, plus the fixed/threshold/clique/similar/truss variants).
//
// ctx bounds the evaluation. The query algorithms poll cancellation at
// amortised checkpoints inside their peeling and traversal loops, so a
// deadline or cancel stops work mid-evaluation; the returned error then
// wraps ErrCanceled and context.Cause(ctx) (context.DeadlineExceeded for a
// deadline). A nil ctx is treated as context.Background().
//
// Search reads the latest published snapshot, publishing one first when
// writes landed since; it is safe for any number of concurrent callers. For
// reads that must see one version across several queries, pin
// Snapshot() and search that.
func (G *Graph) Search(ctx context.Context, q Query) (Result, error) {
	return G.view().evaluate(ctx, q)
}

// knownMode reports whether m names a defined query mode ("" = ModeCore).
func knownMode(m Mode) bool {
	switch m {
	case "", ModeCore, ModeFixed, ModeThreshold, ModeClique, ModeSimilar, ModeTruss:
		return true
	}
	return false
}

// knownAlgorithm reports whether a names a defined evaluation strategy
// ("" = AlgoDec).
func knownAlgorithm(a Algorithm) bool {
	switch a {
	case "", AlgoDec, AlgoIncS, AlgoIncT, AlgoBasicG, AlgoBasicW:
		return true
	}
	return false
}

// validateDispatch rejects unknown Mode and Algorithm values and
// out-of-range approximation knobs. It runs before any evaluation — and, on
// the Snapshot path, before the cache probe, so a typo'd mode can never
// alias a cached result of a different model.
func validateDispatch(q Query) error {
	if !knownMode(q.Mode) {
		return fmt.Errorf("%w: %q", ErrBadMode, q.Mode)
	}
	if !knownAlgorithm(q.Algorithm) {
		return fmt.Errorf("%w: %q", ErrBadAlgorithm, q.Algorithm)
	}
	if q.Epsilon < 0 || q.Epsilon >= 1 || math.IsNaN(q.Epsilon) {
		return fmt.Errorf("%w: %v", ErrBadEpsilon, q.Epsilon)
	}
	if q.Budget < 0 {
		return fmt.Errorf("%w: budget %d", ErrBadBudget, q.Budget)
	}
	if q.TopR < 0 {
		return fmt.Errorf("%w: top_r %d", ErrBadTopR, q.TopR)
	}
	return nil
}

// approxActive reports whether any approximation knob is set. Only then is
// the query's work metered.
func (q Query) approxActive() bool {
	return q.Epsilon > 0 || q.Budget > 0 || q.TopR > 0
}

// evaluate is the one funnel under Graph.Search, Snapshot.Search and both
// batch paths: validate, resolve, attach a work meter when an approximation
// knob asks for one, run the mode's evaluator, render.
func (v view) evaluate(ctx context.Context, q Query) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := validateDispatch(q); err != nil {
		return Result{}, err
	}
	qv, s, err := v.resolve(q)
	if err != nil {
		return Result{}, err
	}
	var meter *cancel.Meter
	if q.approxActive() {
		meter = cancel.NewMeter(q.Budget)
		ctx = cancel.WithMeter(ctx, meter)
	}
	res, b, err := v.run(ctx, q, qv, s)
	if errors.Is(err, cancel.ErrBudget) {
		// An exact evaluator cut short establishes no community.
		res, b, err = core.Result{}, v.exhaustedBounds(q, qv, s), nil
	}
	if err != nil {
		return Result{}, err
	}
	out := v.render(res)
	out.ScoreLowerBound, out.ScoreUpperBound = b.Lower, b.Upper
	out.Exact = b.Exact
	out.Work = meter.Spent()
	out.BudgetExhausted = b.BudgetExhausted
	return out, nil
}

// run evaluates a resolved query with its mode × algorithm evaluator. The
// core (decremental), clique and truss walkers take the query's core.Approx —
// the zero value is exact search — and report the bounds they achieved; every
// other evaluator is exact. Index-free pairs run without a tree; every other
// pair needs one.
func (v view) run(ctx context.Context, q Query, qv graph.VertexID, s []graph.KeywordID) (core.Result, core.Bounds, error) {
	opt := core.DefaultOptions()
	opt.UseInvertedLists = !q.DisableInvertedLists
	ap := core.Approx{Epsilon: q.Epsilon, TopR: q.TopR}
	mode := q.Mode
	if mode == "" {
		mode = ModeCore
	}
	switch algo := q.Algorithm; {
	case mode == ModeCore && algo == AlgoBasicG:
		return exact(core.BasicG(ctx, v.g, qv, q.K, s, opt))
	case mode == ModeCore && algo == AlgoBasicW:
		return exact(core.BasicW(ctx, v.g, qv, q.K, s, opt))
	case mode == ModeFixed && algo == AlgoBasicG:
		return exact(core.BasicGV1(ctx, v.g, qv, q.K, s))
	case mode == ModeFixed && algo == AlgoBasicW:
		return exact(core.BasicWV1(ctx, v.g, qv, q.K, s))
	case mode == ModeThreshold && algo == AlgoBasicG:
		return exact(core.BasicGV2(ctx, v.g, qv, q.K, s, q.Theta))
	case mode == ModeThreshold && algo == AlgoBasicW:
		return exact(core.BasicWV2(ctx, v.g, qv, q.K, s, q.Theta))
	case mode == ModeSimilar && algo == AlgoBasicG:
		return exact(core.BasicGJ(ctx, v.g, qv, q.K, s, q.Tau))
	case v.tree == nil:
		return core.Result{}, core.Bounds{}, ErrNoIndex
	// Every pair below reads the index.
	case mode == ModeCore && ap == (core.Approx{}) && algo == AlgoIncS:
		return exact(core.IncS(ctx, v.tree, qv, q.K, s, opt))
	case mode == ModeCore && ap == (core.Approx{}) && algo == AlgoIncT:
		return exact(core.IncT(ctx, v.tree, qv, q.K, s, opt))
	case mode == ModeCore:
		// An approximate query follows the decremental walk whatever its
		// Algorithm: the incremental ablations are exact-only.
		return core.DecApprox(ctx, v.tree, qv, q.K, s, opt, ap)
	case mode == ModeFixed:
		return exact(core.SW(ctx, v.tree, qv, q.K, s))
	case mode == ModeThreshold:
		return exact(core.SWT(ctx, v.tree, qv, q.K, s, q.Theta))
	case mode == ModeSimilar:
		return exact(core.SJ(ctx, v.tree, qv, q.K, s, q.Tau))
	case mode == ModeClique:
		return core.CliqueApprox(ctx, v.tree, qv, q.K, s, ap)
	default: // ModeTruss; validateDispatch rejected everything else
		return core.TrussApprox(ctx, v.tree, qv, q.K, q.MaxHops, s, ap)
	}
}

// exact pairs an exact evaluator's outcome with its tight bounds.
func exact(res core.Result, err error) (core.Result, core.Bounds, error) {
	return res, core.Bounds{Lower: res.LabelSize, Upper: res.LabelSize, Exact: true}, err
}

// exhaustedBounds is the trivial sound bracket [0, max achievable for the
// mode] of an exact evaluator cut short by its work budget.
func (v view) exhaustedBounds(q Query, qv graph.VertexID, s []graph.KeywordID) core.Bounds {
	b := core.Bounds{BudgetExhausted: true}
	switch {
	case q.Mode == ModeFixed || q.Mode == ModeThreshold:
		// The label is S as given when a community exists.
		b.Upper = len(s)
	case s == nil:
		// The label can only contain keywords q itself carries.
		b.Upper = len(v.g.Keywords(qv))
	default:
		b.Upper = v.g.CountSharedKeywords(qv, s)
	}
	return b
}

// canceledErr wraps an already-canceled context into the public sentinel
// error without starting any evaluation.
func canceledErr(ctx context.Context) error { return cancel.Wrap(ctx) }

// resolve maps the public query to internal identifiers. Keywords unknown to
// the dictionary cannot appear in any community and are dropped.
func (v view) resolve(q Query) (graph.VertexID, []graph.KeywordID, error) {
	var qv graph.VertexID
	if q.Vertex != "" {
		vid, ok := v.g.VertexByLabel(q.Vertex)
		if !ok {
			return 0, nil, fmt.Errorf("%w: label %q", ErrVertexNotFound, q.Vertex)
		}
		qv = vid
	} else {
		if int(q.VertexID) < 0 || int(q.VertexID) >= v.g.NumVertices() {
			return 0, nil, fmt.Errorf("%w: id %d", ErrVertexNotFound, q.VertexID)
		}
		qv = graph.VertexID(q.VertexID)
	}
	var s []graph.KeywordID
	if len(q.Keywords) > 0 {
		if q.FuzzDistance > 0 {
			s = core.ExpandByEditDistance(v.g.Dict(), q.Keywords, q.FuzzDistance)
		} else {
			s, _ = v.g.Dict().LookupAll(q.Keywords)
		}
		if len(s) == 0 {
			// All requested keywords are unknown: keep a non-nil empty set so
			// the query semantics stay "no shared keywords possible" rather
			// than defaulting to W(q).
			s = []graph.KeywordID{}
		}
	}
	return qv, s, nil
}

func (v view) render(res core.Result) Result {
	out := Result{LabelSize: res.LabelSize, Fallback: res.Fallback}
	for _, c := range res.Communities {
		comm := Community{
			Label:     make([]string, 0, len(c.Label)),
			Members:   make([]string, 0, len(c.Vertices)),
			MemberIDs: make([]int32, 0, len(c.Vertices)),
		}
		for _, w := range c.Label {
			comm.Label = append(comm.Label, v.g.Dict().Word(w))
		}
		for _, vid := range c.Vertices {
			name := v.g.Label(vid)
			if name == "" {
				name = fmt.Sprintf("#%d", vid)
			}
			comm.Members = append(comm.Members, name)
			comm.MemberIDs = append(comm.MemberIDs, int32(vid))
		}
		out.Communities = append(out.Communities, comm)
	}
	return out
}

// stats computes summary statistics for the view's graph and index.
func (v view) stats() Stats {
	s := Stats{
		Vertices:    v.g.NumVertices(),
		Edges:       v.g.NumEdges(),
		AvgDegree:   v.g.AvgDegree(),
		AvgKeywords: v.g.AvgKeywords(),
		Keywords:    v.g.Dict().Size(),
	}
	if v.tree != nil {
		s.KMax = int(v.tree.KMax)
		s.IndexNodes = v.tree.NumNodes()
		s.IndexHeight = v.tree.Height()
	} else {
		s.KMax = int(kcore.MaxCore(kcore.Decompose(v.g)))
	}
	return s
}

// coreNumber returns the core number of a vertex (requires an index).
func (v view) coreNumber(vid int32) (int, error) {
	if v.tree == nil {
		return 0, ErrNoIndex
	}
	if int(vid) < 0 || int(vid) >= v.g.NumVertices() {
		return 0, fmt.Errorf("%w: id %d", ErrVertexNotFound, vid)
	}
	return int(v.tree.Core[vid]), nil
}
