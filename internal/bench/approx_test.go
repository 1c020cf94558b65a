package bench

// Approximate-search quality tests. They are timing-free (F1, exactness and
// score bounds only), so they cannot flake on a noisy runner, yet any
// regression that makes ε = 0.1 answers drift from the exact ones, or the
// ε = 0 control leave the exact path, fails them deterministically.

import (
	"testing"

	acq "github.com/acq-search/acq"
)

// TestApproxQualityGate checks the approximate evaluator against the exact
// one on every preset. At ε = 0.1 the mean community-membership F1 must stay
// ≥ 0.9 (the shipped approximate evaluator proves its probes, so the
// expectation is F1 = 1; the 0.9 bar leaves room for a future lever that
// genuinely trades membership for latency without letting quality silently
// collapse).
func TestApproxQualityGate(t *testing.T) {
	const (
		gateEps = 0.1
		gateF1  = 0.9
	)
	cfg := testConfig()
	cfg.Scale = 0.2
	cfg.Queries = 15
	for _, name := range DatasetNames() {
		ds, err := LoadDataset(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		snap := approxSnapshot(t, name, cfg.Scale)
		if meanF1 := approxMeanF1(t, snap, ds, gateEps); meanF1 < gateF1 {
			t.Errorf("%s: mean F1 at ε=%.2f is %.3f, below the %.2f gate", name, gateEps, meanF1, gateF1)
		}
	}
}

// TestApproxSearchRowF1Parses sweeps ε on dblp: every mean F1 must be a
// number in [0, 1], and ε = 0 is the control that must take the exact path,
// so every answer reports Exact, both bounds equal the exact score and the
// mean F1 is exactly 1.
func TestApproxSearchRowF1Parses(t *testing.T) {
	ds := loadTest(t, "dblp")
	snap := approxSnapshot(t, "dblp", testConfig().Scale)
	for _, eps := range []float64{0, 0.05, 0.1, 0.2} {
		f := approxMeanF1(t, snap, ds, eps)
		if !(f >= 0 && f <= 1) {
			t.Fatalf("ε=%.2f: mean F1 %v outside [0, 1]", eps, f)
		}
		if eps == 0 && f != 1 {
			t.Fatalf("ε=0 reports mean F1 %v, want exactly 1 (exact path)", f)
		}
	}
}

// approxSnapshot builds the indexed preset with the result cache off, so
// every query is evaluated rather than served from an earlier answer.
func approxSnapshot(t *testing.T, name string, scale float64) *acq.Snapshot {
	t.Helper()
	g, err := acq.Synthetic(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	g.SetResultCacheSize(-1)
	g.BuildIndex()
	return g.Snapshot()
}

// approxMeanF1 answers each of ds's queries exactly and at eps and returns
// the mean community-membership F1 of the approximate answers. Every answer's
// score bounds must bracket the exact score; at eps = 0 the answer must be
// the exact one.
func approxMeanF1(t *testing.T, snap *acq.Snapshot, ds *Dataset, eps float64) float64 {
	t.Helper()
	k := dsK(ds)
	sumF1 := 0.0
	for _, qv := range ds.Queries {
		exact, err := snap.Search(bgCtx, acq.Query{VertexID: int32(qv), K: k})
		if err != nil {
			t.Fatalf("%s: exact query %d: %v", ds.Name, qv, err)
		}
		approx, err := snap.Search(bgCtx, acq.Query{VertexID: int32(qv), K: k, Epsilon: eps})
		if err != nil {
			t.Fatalf("%s: ε=%.2f query %d: %v", ds.Name, eps, qv, err)
		}
		if approx.ScoreLowerBound > exact.LabelSize || approx.ScoreUpperBound < exact.LabelSize {
			t.Errorf("%s: ε=%.2f query %d: bounds [%d,%d] miss exact score %d",
				ds.Name, eps, qv, approx.ScoreLowerBound, approx.ScoreUpperBound, exact.LabelSize)
		}
		f1 := communityF1(approx, exact)
		if eps == 0 && (!approx.Exact || f1 != 1 ||
			approx.ScoreLowerBound != exact.LabelSize || approx.ScoreUpperBound != exact.LabelSize) {
			t.Errorf("%s: ε=0 query %d left the exact path: exact=%v F1=%v bounds [%d,%d], exact score %d",
				ds.Name, qv, approx.Exact, f1, approx.ScoreLowerBound, approx.ScoreUpperBound, exact.LabelSize)
		}
		sumF1 += f1
	}
	return sumF1 / float64(len(ds.Queries))
}

// communityF1 scores got's community membership against want's: the F1 of
// the unions of their member sets. Two empty answers agree perfectly.
func communityF1(got, want acq.Result) float64 {
	gm, wm := memberUnion(got), memberUnion(want)
	if len(wm) == 0 && len(gm) == 0 {
		return 1
	}
	inter := 0
	for v := range gm {
		if wm[v] {
			inter++
		}
	}
	if inter == 0 {
		return 0
	}
	p := float64(inter) / float64(len(gm))
	r := float64(inter) / float64(len(wm))
	return 2 * p * r / (p + r)
}

func memberUnion(res acq.Result) map[string]bool {
	out := map[string]bool{}
	for _, c := range res.Communities {
		for _, m := range c.Members {
			out[m] = true
		}
	}
	return out
}
