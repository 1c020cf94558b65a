package acq_test

// Tests for the approximate-search surface: knob validation, the ε=0
// byte-identity contract across all modes and representations, the
// bounds/Exact property on synthetic presets, budget exhaustion as a partial
// result, cache-key separation of approximate results, and the batch
// budget+deadline composition.

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	acq "github.com/acq-search/acq"
)

// stripWork zeroes the one field allowed to differ between an exact run and
// a metered run of the same query (work is only counted when a knob is set).
func stripWork(r acq.Result) acq.Result {
	r.Work = 0
	return r
}

func TestApproxKnobValidation(t *testing.T) {
	g := figure1Graph(t)
	g.BuildIndex()
	snap := g.Snapshot()
	cases := []struct {
		name string
		q    acq.Query
		want error
	}{
		{"negative-epsilon", acq.Query{Vertex: "Jack", K: 3, Epsilon: -0.1}, acq.ErrBadEpsilon},
		{"epsilon-one", acq.Query{Vertex: "Jack", K: 3, Epsilon: 1}, acq.ErrBadEpsilon},
		{"epsilon-above-one", acq.Query{Vertex: "Jack", K: 3, Epsilon: 1.5}, acq.ErrBadEpsilon},
		{"epsilon-nan", acq.Query{Vertex: "Jack", K: 3, Epsilon: math.NaN()}, acq.ErrBadEpsilon},
		{"negative-budget", acq.Query{Vertex: "Jack", K: 3, Budget: -1}, acq.ErrBadBudget},
		{"negative-topr", acq.Query{Vertex: "Jack", K: 3, TopR: -1}, acq.ErrBadTopR},
	}
	for _, tc := range cases {
		if _, err := g.Search(bgCtx, tc.q); !errors.Is(err, tc.want) {
			t.Fatalf("%s direct: err = %v, want %v", tc.name, err, tc.want)
		}
		if _, err := snap.Search(bgCtx, tc.q); !errors.Is(err, tc.want) {
			t.Fatalf("%s snapshot: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	// Like Theta/Tau validation, the knob checks hold across the whole mode
	// dispatch, not just ModeCore.
	for _, mode := range []acq.Mode{acq.ModeCore, acq.ModeFixed, acq.ModeThreshold, acq.ModeClique, acq.ModeSimilar, acq.ModeTruss} {
		q := acq.Query{Vertex: "Jack", K: 3, Mode: mode, Theta: 0.5, Tau: 0.5, Epsilon: -1}
		if _, err := g.Search(bgCtx, q); !errors.Is(err, acq.ErrBadEpsilon) {
			t.Fatalf("mode %s: err = %v, want ErrBadEpsilon", mode, err)
		}
	}
}

// TestApproxZeroEpsilonByteIdentical is the ε=0 acceptance gate: with ε=0
// and an unspent budget, every mode must return results byte-identical to
// the exact path (modulo the Work counter, which only exists because a knob
// was set) — on the direct path, the snapshot path, and through SearchBatch
// at workers 1, 2 and 8. A vanishing ε additionally exercises the dedicated
// approximate drivers of the multi-candidate modes on the same contract.
func TestApproxZeroEpsilonByteIdentical(t *testing.T) {
	g := figure1Graph(t)
	g.BuildIndex()
	snap := g.Snapshot()
	for _, tc := range modeCases() {
		t.Run(tc.name, func(t *testing.T) {
			exact, err := g.Search(bgCtx, tc.query)
			if err != nil {
				t.Fatal(err)
			}
			if !exact.Exact || exact.ScoreLowerBound != exact.LabelSize || exact.ScoreUpperBound != exact.LabelSize {
				t.Fatalf("exact path bounds not self-reported: %+v", exact)
			}

			variants := map[string]acq.Query{}
			budgeted := tc.query
			budgeted.Budget = 1 << 40
			variants["budget-unspent"] = budgeted
			tiny := tc.query
			tiny.Epsilon = 1e-9 // routes multi-candidate modes through the approx driver
			variants["vanishing-epsilon"] = tiny

			for name, q := range variants {
				direct, err := g.Search(bgCtx, q)
				if err != nil {
					t.Fatalf("%s direct: %v", name, err)
				}
				if !reflect.DeepEqual(stripWork(direct), exact) {
					t.Fatalf("%s direct diverged from exact:\n%+v\nvs\n%+v", name, direct, exact)
				}
				snapped, err := snap.Search(bgCtx, q)
				if err != nil {
					t.Fatalf("%s snapshot: %v", name, err)
				}
				if !reflect.DeepEqual(stripWork(snapped), exact) {
					t.Fatalf("%s snapshot diverged from exact:\n%+v\nvs\n%+v", name, snapped, exact)
				}
				for _, workers := range []int{1, 2, 8} {
					queries := make([]acq.Query, 2*workers)
					for i := range queries {
						queries[i] = q
					}
					for i, r := range g.SearchBatch(bgCtx, queries, acq.BatchOptions{Workers: workers}) {
						if r.Err != nil {
							t.Fatalf("%s workers=%d result %d: %v", name, workers, i, r.Err)
						}
						if !reflect.DeepEqual(stripWork(r.Result), exact) {
							t.Fatalf("%s workers=%d result %d diverged from exact", name, workers, i)
						}
					}
				}
			}
		})
	}
}

// TestApproxBoundsOnPresets is the satellite property test: on the dblp and
// dbpedia presets, at every ε the reported bounds must bracket the exact
// score, the returned score must honour the (1−ε) guarantee, and Exact=true
// must hold exactly when the evaluation completed unclipped (always at ε=0
// with an unspent budget).
func TestApproxBoundsOnPresets(t *testing.T) {
	for _, preset := range []string{"dblp", "dbpedia"} {
		t.Run(preset, func(t *testing.T) {
			g, err := acq.Synthetic(preset, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			g.BuildIndex()
			var queries []int32
			for v := int32(0); int(v) < g.NumVertices() && len(queries) < 5; v++ {
				if c, _ := g.CoreNumber(v); c >= 4 {
					queries = append(queries, v)
				}
			}
			if len(queries) == 0 {
				t.Fatal("no queryable vertices")
			}
			for _, qv := range queries {
				for _, mode := range []acq.Mode{acq.ModeCore, acq.ModeTruss} {
					base := acq.Query{VertexID: qv, K: 4, Mode: mode}
					exact, err := g.Search(bgCtx, base)
					if err != nil {
						continue // e.g. no k-core at this vertex for this mode
					}
					for _, eps := range []float64{0, 0.05, 0.1, 0.2} {
						q := base
						q.Epsilon = eps
						q.Budget = 1 << 40 // unbounded in practice, but metered
						res, err := g.Search(bgCtx, q)
						if err != nil {
							t.Fatalf("q=%d mode=%s ε=%g: %v", qv, mode, eps, err)
						}
						if res.ScoreLowerBound > exact.LabelSize || res.ScoreUpperBound < exact.LabelSize {
							t.Fatalf("q=%d mode=%s ε=%g: bounds [%d,%d] miss exact score %d",
								qv, mode, eps, res.ScoreLowerBound, res.ScoreUpperBound, exact.LabelSize)
						}
						if res.BudgetExhausted {
							t.Fatalf("q=%d mode=%s ε=%g: spurious budget exhaustion", qv, mode, eps)
						}
						if float64(res.LabelSize) < (1-eps)*float64(exact.LabelSize) {
							t.Fatalf("q=%d mode=%s ε=%g: LabelSize %d below the (1-ε) guarantee against %d",
								qv, mode, eps, res.LabelSize, exact.LabelSize)
						}
						if eps == 0 && !res.Exact {
							t.Fatalf("q=%d mode=%s: ε=0 with unspent budget must report Exact", qv, mode)
						}
						if res.Exact && (res.ScoreLowerBound != res.ScoreUpperBound || res.LabelSize != res.ScoreLowerBound) {
							t.Fatalf("q=%d mode=%s ε=%g: Exact with open bounds %+v", qv, mode, eps, res)
						}
					}
				}
			}
		})
	}
}

// TestApproxBudgetExhaustedPartialResult: an implausibly small budget must
// end the query early with a partial result — nil error, BudgetExhausted
// set, Exact false, sound bounds — on every mode, and an ample budget must
// reproduce the exact result.
func TestApproxBudgetExhaustedPartialResult(t *testing.T) {
	g, qv := slowFixture(t)
	exhausted := 0
	for _, mode := range []acq.Mode{acq.ModeCore, acq.ModeFixed, acq.ModeThreshold, acq.ModeSimilar, acq.ModeTruss} {
		q := acq.Query{VertexID: qv, K: 3, Mode: mode, Theta: 0.5, Tau: 0.3, Budget: 1}
		exact := q
		exact.Budget = 0
		want, err := g.Search(bgCtx, exact)
		if err != nil {
			continue
		}
		res, err := g.Search(bgCtx, q)
		if err != nil {
			t.Fatalf("mode %s budget=1: err = %v, want partial result", mode, err)
		}
		if !res.BudgetExhausted {
			// The query finished before its first checkpoint — legitimate
			// for trivial evaluations (e.g. threshold with no keywords) —
			// and must then be indistinguishable from the exact run.
			if !reflect.DeepEqual(stripWork(res), want) {
				t.Fatalf("mode %s budget=1 finished under budget but diverged:\n%+v\nvs\n%+v", mode, res, want)
			}
			continue
		}
		exhausted++
		if res.Exact {
			t.Fatalf("mode %s budget=1: exhausted result claims Exact", mode)
		}
		if res.ScoreLowerBound > want.LabelSize || res.ScoreUpperBound < want.LabelSize {
			t.Fatalf("mode %s budget=1: bounds [%d,%d] miss exact %d",
				mode, res.ScoreLowerBound, res.ScoreUpperBound, want.LabelSize)
		}
		if res.Work < 1 {
			t.Fatalf("mode %s budget=1: Work = %d, want ≥ 1", mode, res.Work)
		}
	}
	if exhausted == 0 {
		t.Fatal("no mode exhausted a 1-unit budget on the slow fixture")
	}
}

// TestApproxNeverAliasesCache: the approximation knobs are part of the
// snapshot cache key — a budgeted or ε query must never be served a cached
// exact result, and vice versa.
func TestApproxNeverAliasesCache(t *testing.T) {
	g, qv := slowFixture(t)
	snap := g.Snapshot()
	q := acq.Query{VertexID: qv, K: 3}
	exact, err := snap.Search(bgCtx, q) // warm the exact entry
	if err != nil {
		t.Fatal(err)
	}
	budgeted := q
	budgeted.Budget = 1
	res, err := snap.Search(bgCtx, budgeted)
	if err != nil {
		t.Fatal(err)
	}
	if !res.BudgetExhausted || res.Exact {
		t.Fatalf("budgeted query served the cached exact result: %+v", res)
	}
	// And the exact entry is unharmed by the budgeted one.
	again, err := snap.Search(bgCtx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, exact) {
		t.Fatalf("exact entry corrupted after budgeted query:\n%+v\nvs\n%+v", again, exact)
	}
	// ε and top-r each key their own entries and replay deterministically.
	approx := q
	approx.Epsilon = 0.2
	approx.TopR = 1
	first, err := snap.Search(bgCtx, approx)
	if err != nil {
		t.Fatal(err)
	}
	second, err := snap.Search(bgCtx, approx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("approximate entry not deterministic across cache replay")
	}
}

// TestSearchBatchBudgetComposesWithTimeout is the satellite regression test:
// in one batch, a query's Budget and BatchOptions.PerQueryTimeout both
// apply — the budget ends its query as a partial result even under a
// generous deadline, an unbudgeted slow query still hits the per-query
// deadline, and fast queries are untouched.
func TestSearchBatchBudgetComposesWithTimeout(t *testing.T) {
	g, qv := slowFixture(t)
	fast := acq.Query{VertexID: qv, K: 3}
	budgeted := slowQuery(qv)
	budgeted.Budget = 1 // exhausts at the first checkpoint, deadline untouched

	results := g.SearchBatch(bgCtx, []acq.Query{fast, budgeted}, acq.BatchOptions{
		Workers:         2,
		PerQueryTimeout: time.Minute,
	})
	if err := results[0].Err; err != nil {
		t.Fatalf("fast query disturbed: %v", err)
	}
	if err := results[1].Err; err != nil {
		t.Fatalf("budgeted query errored instead of returning a partial result: %v", err)
	}
	if !results[1].Result.BudgetExhausted {
		t.Fatalf("budget dropped under PerQueryTimeout: %+v", results[1].Result)
	}

	// The deadline side of the composition: a pre-expired per-query timeout
	// interrupts a budgeted query before its budget is touched.
	results = g.SearchBatch(bgCtx, []acq.Query{budgeted}, acq.BatchOptions{
		Workers:         1,
		PerQueryTimeout: time.Nanosecond,
	})
	if err := results[0].Err; !errors.Is(err, acq.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("budgeted query err = %v, want per-query deadline", err)
	}
}

// TestBudgetOnlyWalkerKeepsVerifiedLevels: a budget alone (ε = 0, no top-r)
// runs core queries on the same walker as ε > 0, so a budget that runs out
// after a community was verified returns it — with LabelSize equal to the
// lower bound and bounds bracketing the exact score — rather than the empty
// [0, upper] bracket an exact evaluator cut short can only offer.
func TestBudgetOnlyWalkerKeepsVerifiedLevels(t *testing.T) {
	g, _ := slowFixture(t)
	partial := 0
	for v := int32(0); int(v) < g.NumVertices() && partial < 3; v++ {
		if c, _ := g.CoreNumber(v); c < 4 {
			continue
		}
		q := acq.Query{VertexID: v, K: 4}
		want, err := g.Search(bgCtx, q)
		if err != nil || want.Fallback {
			continue
		}
		q.Budget = 1 << 40
		full, err := g.Search(bgCtx, q)
		if err != nil || !full.Exact || !reflect.DeepEqual(full.Communities, want.Communities) {
			t.Fatalf("q=%d: unspent budget changed the answer: %+v (%v), want %+v", v, full, err, want)
		}
		q.Budget = full.Work - 1
		res, err := g.Search(bgCtx, q)
		if err != nil || !res.BudgetExhausted || res.Exact {
			t.Fatalf("q=%d budget %d of %d: %+v (%v), want an exhausted partial result", v, q.Budget, full.Work, res, err)
		}
		if res.ScoreLowerBound > want.LabelSize || res.ScoreUpperBound < want.LabelSize {
			t.Fatalf("q=%d: bounds [%d,%d] miss exact %d", v, res.ScoreLowerBound, res.ScoreUpperBound, want.LabelSize)
		}
		if len(res.Communities) == 0 {
			continue
		}
		partial++
		if res.LabelSize != res.ScoreLowerBound {
			t.Fatalf("q=%d: partial LabelSize %d, lower bound %d", v, res.LabelSize, res.ScoreLowerBound)
		}
	}
	if partial == 0 {
		t.Fatal("no budget-only core query kept a verified community")
	}
}
