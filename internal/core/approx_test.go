package core

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"github.com/acq-search/acq/internal/cancel"
	"github.com/acq-search/acq/internal/graph"
	"github.com/acq-search/acq/internal/testutil"
)

// modeRunners holds, for one multi-candidate mode, the approximate entry point,
// the exact entry point and the independent global-scan reference.
type modeRunners struct {
	approx     func(ap Approx) (Result, Bounds, error)
	exact, ref func() (Result, error)
}

// approxRunners returns the runners of every multi-candidate mode.
func approxRunners(tr *Tree, q graph.VertexID, k int, s []graph.KeywordID) map[string]modeRunners {
	opt := DefaultOptions()
	return map[string]modeRunners{
		"dec": {
			approx: func(ap Approx) (Result, Bounds, error) { return DecApprox(bgCtx, tr, q, k, s, opt, ap) },
			exact:  func() (Result, error) { return Dec(bgCtx, tr, q, k, s, opt) },
			ref:    func() (Result, error) { return refDec(bgCtx, tr, q, k, s, opt) },
		},
		"clique": {
			approx: func(ap Approx) (Result, Bounds, error) { return CliqueApprox(bgCtx, tr, q, k, s, ap) },
			exact:  func() (Result, error) { return CliqueSearch(bgCtx, tr, q, k, s) },
			ref:    func() (Result, error) { return refScoped(bgCtx, tr, q, k, s, cliqueStructure) },
		},
		"truss": {
			approx: func(ap Approx) (Result, Bounds, error) { return TrussApprox(bgCtx, tr, q, k, 0, s, ap) },
			exact:  func() (Result, error) { return TrussSearch(bgCtx, tr, q, k, s) },
			ref:    func() (Result, error) { return refScoped(bgCtx, tr, q, k, s, trussStructure(0)) },
		},
		"truss-d": {
			approx: func(ap Approx) (Result, Bounds, error) { return TrussApprox(bgCtx, tr, q, k, 2, s, ap) },
			exact:  func() (Result, error) { return TrussSearchD(bgCtx, tr, q, k, 2, s) },
			ref:    func() (Result, error) { return refScoped(bgCtx, tr, q, k, s, trussStructure(2)) },
		},
	}
}

// randomQuerySet returns nil (S = W(q)) or a random subset of q's keywords,
// occasionally padded with a keyword q lacks.
func randomQuerySet(rng *rand.Rand, g graph.View, q graph.VertexID) []graph.KeywordID {
	if rng.Intn(3) == 0 {
		return nil
	}
	var s []graph.KeywordID
	for _, w := range g.Keywords(q) {
		if rng.Intn(2) == 0 {
			s = append(s, w)
		}
	}
	if rng.Intn(4) == 0 {
		s = append(s, graph.KeywordID(rng.Intn(g.Dict().Size())))
	}
	return s
}

// TestApproxZeroEpsilonMatchesExact: the zero Approx with no budget and the
// exact entry points must both reproduce the global-scan reference byte for
// byte, including errors, and the walker must report tight exact bounds
// (matchReference).
func TestApproxZeroEpsilonMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 120; trial++ {
		g := testutil.RandomGraph(rng, 5+rng.Intn(40), 1+5*rng.Float64(), 6, 4)
		tr := BuildAdvanced(g)
		q := graph.VertexID(rng.Intn(g.NumVertices()))
		k := 1 + rng.Intn(4)
		s := randomQuerySet(rng, g, q)
		for _, mode := range []string{"dec", "clique", "truss", "truss-d"} {
			matchReference(t, tr, mode, q, k, s, 0)
		}
	}
}

// TestApproxBoundsBracketExactScore: at every ε and top-r the reported bounds
// must bracket the exact score, and without a budget the ε contract
// LabelSize ≥ (1−ε)·exact must hold.
func TestApproxBoundsBracketExactScore(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	epsilons := []float64{0, 0.05, 0.1, 0.2, 0.5}
	for trial := 0; trial < 40; trial++ {
		g := testutil.RandomGraph(rng, 5+rng.Intn(40), 1+5*rng.Float64(), 6, 4)
		tr := BuildAdvanced(g)
		q := graph.VertexID(rng.Intn(g.NumVertices()))
		k := 1 + rng.Intn(4)
		for name, run := range approxRunners(tr, q, k, nil) {
			want, wantErr := run.exact()
			if wantErr != nil {
				continue
			}
			for _, eps := range epsilons {
				for _, topR := range []int{0, 1, 2} {
					res, b, err := run.approx(Approx{Epsilon: eps, TopR: topR})
					if err != nil {
						t.Fatalf("%s trial %d ε=%g r=%d: %v", name, trial, eps, topR, err)
					}
					if b.Lower > want.LabelSize || b.Upper < want.LabelSize {
						t.Fatalf("%s trial %d ε=%g r=%d: bounds [%d,%d] miss exact score %d",
							name, trial, eps, topR, b.Lower, b.Upper, want.LabelSize)
					}
					if len(res.Communities) > 0 && !res.Fallback && res.LabelSize != b.Lower {
						t.Fatalf("%s trial %d ε=%g r=%d: LabelSize %d != Lower %d",
							name, trial, eps, topR, res.LabelSize, b.Lower)
					}
					if topR == 0 && float64(res.LabelSize) < (1-eps)*float64(want.LabelSize) {
						t.Fatalf("%s trial %d ε=%g: LabelSize %d below (1-ε)·%d",
							name, trial, eps, res.LabelSize, want.LabelSize)
					}
					if b.BudgetExhausted {
						t.Fatalf("%s trial %d ε=%g r=%d: exhausted without a budget", name, trial, eps, topR)
					}
				}
			}
		}
	}
}

// TestApproxBudgetExhaustion: a tiny budget must stop the evaluation with
// BudgetExhausted and bounds that still bracket the exact score; an ample
// budget must leave the exact result untouched while counting work.
func TestApproxBudgetExhaustion(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	exhausted := 0
	for trial := 0; trial < 60; trial++ {
		g := testutil.RandomGraph(rng, 20+rng.Intn(40), 2+5*rng.Float64(), 6, 4)
		tr := BuildAdvanced(g)
		q := graph.VertexID(rng.Intn(g.NumVertices()))
		k := 1 + rng.Intn(3)
		want, wantErr := Dec(bgCtx, tr, q, k, nil, DefaultOptions())
		if wantErr != nil {
			continue
		}

		tiny := cancel.NewMeter(1)
		res, b, err := DecApprox(cancel.WithMeter(bgCtx, tiny), tr, q, k, nil, DefaultOptions(), Approx{})
		if err != nil {
			t.Fatalf("trial %d tiny budget: %v", trial, err)
		}
		if b.BudgetExhausted {
			exhausted++
			if b.Lower > want.LabelSize || b.Upper < want.LabelSize {
				t.Fatalf("trial %d: exhausted bounds [%d,%d] miss exact %d", trial, b.Lower, b.Upper, want.LabelSize)
			}
			if b.Exact {
				t.Fatalf("trial %d: exhausted evaluation claims Exact", trial)
			}
			if res.LabelSize != b.Lower {
				if len(res.Communities) > 0 && !res.Fallback {
					t.Fatalf("trial %d: partial LabelSize %d != Lower %d", trial, res.LabelSize, b.Lower)
				}
			}
		}

		ample := cancel.NewMeter(1 << 40)
		got, b2, err := DecApprox(cancel.WithMeter(bgCtx, ample), tr, q, k, nil, DefaultOptions(), Approx{})
		if err != nil {
			t.Fatalf("trial %d ample budget: %v", trial, err)
		}
		if !reflect.DeepEqual(canonical(got), canonical(want)) || !b2.Exact {
			t.Fatalf("trial %d: ample budget changed the result (bounds %+v)", trial, b2)
		}
		if !want.Fallback && b2.Work == 0 {
			t.Fatalf("trial %d: metered verification reported zero work", trial)
		}
	}
	if exhausted == 0 {
		t.Fatal("no trial exhausted a 1-unit budget; the meter is not wired into the driver")
	}
}

// TestApproxBudgetReachesExactEvaluators: the meter rides the context, so
// the EXACT evaluators inherit the cap through their existing checkpoints
// and surface cancel.ErrBudget.
func TestApproxBudgetReachesExactEvaluators(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g := testutil.RandomGraph(rng, 200, 6, 6, 4)
	tr := BuildAdvanced(g)
	ctx := cancel.WithMeter(bgCtx, cancel.NewMeter(1))
	hit := 0
	for q := 0; q < g.NumVertices() && hit == 0; q++ {
		for _, run := range []func() error{
			func() error { _, err := Dec(ctx, tr, graph.VertexID(q), 2, nil, DefaultOptions()); return err },
			func() error { _, err := IncS(ctx, tr, graph.VertexID(q), 2, nil, DefaultOptions()); return err },
			func() error { _, err := TrussSearch(ctx, tr, graph.VertexID(q), 3, nil); return err },
			func() error { _, err := SW(ctx, tr, graph.VertexID(q), 2, kws(g, g.Dict().Word(0))); return err },
		} {
			if err := run(); errors.Is(err, cancel.ErrBudget) {
				hit++
				break
			}
		}
	}
	if hit == 0 {
		t.Fatal("no exact evaluator surfaced ErrBudget under a 1-unit meter")
	}
}
