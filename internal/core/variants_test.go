package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/acq-search/acq/internal/datagen"
	"github.com/acq-search/acq/internal/graph"
	"github.com/acq-search/acq/internal/testutil"
)

// TestExample7Variant1 reproduces Example 7: on Figure 3(a), q=A, k=2 and
// predefined S={x}, Variant 1 returns {A,B,C,D}.
func TestExample7Variant1(t *testing.T) {
	g := testutil.Fig3Graph()
	tr := BuildAdvanced(g)
	a, _ := g.VertexByLabel("A")
	s := kws(g, "x")
	for name, run := range map[string]func() (Result, error){
		"sw":         func() (Result, error) { return SW(bgCtx, tr, a, 2, s) },
		"basic-g-v1": func() (Result, error) { return BasicGV1(bgCtx, g, a, 2, s) },
		"basic-w-v1": func() (Result, error) { return BasicWV1(bgCtx, g, a, 2, s) },
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Communities) != 1 {
			t.Fatalf("%s: %+v", name, res)
		}
		_, members := labelsOfCommunity(g, res.Communities[0])
		if !reflect.DeepEqual(members, []string{"A", "B", "C", "D"}) {
			t.Fatalf("%s: members = %v, want {A,B,C,D}", name, members)
		}
	}
}

// TestExample7Variant2 reproduces the second half of Example 7: q=A, k=2,
// S={x,y}, θ=50% returns {A,B,C,D,E}: every member shares ≥1 of {x,y}.
func TestExample7Variant2(t *testing.T) {
	g := testutil.Fig3Graph()
	tr := BuildAdvanced(g)
	a, _ := g.VertexByLabel("A")
	s := kws(g, "x", "y")
	for name, run := range map[string]func() (Result, error){
		"swt":        func() (Result, error) { return SWT(bgCtx, tr, a, 2, s, 0.5) },
		"basic-g-v2": func() (Result, error) { return BasicGV2(bgCtx, g, a, 2, s, 0.5) },
		"basic-w-v2": func() (Result, error) { return BasicWV2(bgCtx, g, a, 2, s, 0.5) },
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Communities) != 1 {
			t.Fatalf("%s: %+v", name, res)
		}
		_, members := labelsOfCommunity(g, res.Communities[0])
		if !reflect.DeepEqual(members, []string{"A", "B", "C", "D", "E"}) {
			t.Fatalf("%s: members = %v, want {A,B,C,D,E}", name, members)
		}
	}
}

// TestVariant1NoCommunity: a keyword set q lacks yields an empty result, not
// an error.
func TestVariant1NoCommunity(t *testing.T) {
	g := testutil.Fig3Graph()
	tr := BuildAdvanced(g)
	b, _ := g.VertexByLabel("B") // W(B) = {x}
	res, err := SW(bgCtx, tr, b, 2, kws(g, "y"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Communities) != 0 {
		t.Fatalf("SW = %+v, want empty", res)
	}
}

func TestVariantErrors(t *testing.T) {
	g := testutil.Fig3Graph()
	tr := BuildAdvanced(g)
	a, _ := g.VertexByLabel("A")
	if _, err := SW(bgCtx, tr, graph.VertexID(-1), 2, nil); !errors.Is(err, ErrVertexOutOfRange) {
		t.Fatalf("err = %v", err)
	}
	if _, err := SWT(bgCtx, tr, a, 2, kws(g, "x"), 0); !errors.Is(err, ErrBadTheta) {
		t.Fatalf("err = %v", err)
	}
	if _, err := SWT(bgCtx, tr, a, 2, kws(g, "x"), 1.5); !errors.Is(err, ErrBadTheta) {
		t.Fatalf("err = %v", err)
	}
	if _, err := BasicGV1(bgCtx, g, a, 0, nil); !errors.Is(err, ErrBadK) {
		t.Fatalf("err = %v", err)
	}
	if _, err := SW(bgCtx, tr, a, 9, kws(g, "x")); !errors.Is(err, ErrNoKCore) {
		t.Fatalf("err = %v", err)
	}
}

// TestVariant1AgreeQuick: the three Variant-1 implementations agree on
// random graphs; same for Variant 2.
func TestVariantsAgreeQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(rng, 4+rng.Intn(50), 1+5*rng.Float64(), 8, 4)
		tr := BuildAdvanced(g)
		var q graph.VertexID = -1
		for _, v := range rng.Perm(g.NumVertices()) {
			if tr.Core[v] >= 1 && len(g.Keywords(graph.VertexID(v))) > 0 {
				q = graph.VertexID(v)
				break
			}
		}
		if q < 0 {
			return true
		}
		k := 1 + rng.Intn(int(tr.Core[q]))
		wq := g.Keywords(q)
		var s []graph.KeywordID
		for i := 0; i < 1+rng.Intn(3); i++ {
			s = append(s, wq[rng.Intn(len(wq))])
		}
		s = graph.SortKeywordSet(s)

		r1, e1 := SW(bgCtx, tr, q, k, s)
		r2, e2 := BasicGV1(bgCtx, g, q, k, s)
		r3, e3 := BasicWV1(bgCtx, g, q, k, s)
		if (e1 != nil) != (e2 != nil) || (e2 != nil) != (e3 != nil) {
			return false
		}
		if e1 == nil {
			if !reflect.DeepEqual(canonical(r1), canonical(r2)) || !reflect.DeepEqual(canonical(r2), canonical(r3)) {
				return false
			}
		}

		theta := 0.2 + 0.8*rng.Float64()
		v1, e4 := SWT(bgCtx, tr, q, k, s, theta)
		v2, e5 := BasicGV2(bgCtx, g, q, k, s, theta)
		v3, e6 := BasicWV2(bgCtx, g, q, k, s, theta)
		if (e4 != nil) != (e5 != nil) || (e5 != nil) != (e6 != nil) {
			return false
		}
		if e4 == nil {
			if !reflect.DeepEqual(canonical(v1), canonical(v2)) || !reflect.DeepEqual(canonical(v2), canonical(v3)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestVariant2MembershipQuick: every member of a Variant-2 community shares
// at least ⌈θ|S|⌉ keywords with S.
func TestVariant2MembershipQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(rng, 4+rng.Intn(50), 1+4*rng.Float64(), 8, 4)
		tr := BuildAdvanced(g)
		var q graph.VertexID = -1
		for _, v := range rng.Perm(g.NumVertices()) {
			if tr.Core[v] >= 1 && len(g.Keywords(graph.VertexID(v))) >= 2 {
				q = graph.VertexID(v)
				break
			}
		}
		if q < 0 {
			return true
		}
		s := graph.SortKeywordSet(append([]graph.KeywordID(nil), g.Keywords(q)...))
		theta := 0.3 + 0.7*rng.Float64()
		res, err := SWT(bgCtx, tr, q, 1, s, theta)
		if err != nil {
			return false
		}
		need := thresholdCount(len(s), theta)
		for _, c := range res.Communities {
			for _, v := range c.Vertices {
				if g.CountSharedKeywords(v, s) < need {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestVariantsMatchReferenceScan: SWT and SJ, which verify their candidate
// by local expansion from q, return exactly what a scan of q's whole k-ĉore
// returns (refSWT, refSJ), errors included (matchReference). The trials run
// on small seeded dblp-shaped graphs and cover keyword sets with words q
// lacks, the empty set, θ ∈ {0.01, 0.5, 1}, and τ values q itself fails.
func TestVariantsMatchReferenceScan(t *testing.T) {
	base, err := datagen.Preset("dblp")
	if err != nil {
		t.Fatal(err)
	}
	var trials, answered, qFailsTau, emptyS, foreignS int
	for trial := 0; trial < 120; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		cfg := base.Scale(0.002 + 0.004*rng.Float64())
		cfg.Seed = int64(trial)
		g := datagen.Generate(cfg)
		tr := BuildAdvanced(g)
		for i := 0; i < 4; i++ {
			trials++
			q := graph.VertexID(rng.Intn(g.NumVertices()))
			k := 1 + rng.Intn(int(tr.Core[q])+1)
			var s []graph.KeywordID
			switch rng.Intn(4) {
			case 0: // nil: W(q) for SJ, the empty set for SWT
			case 1:
				s = []graph.KeywordID{}
				emptyS++
			default:
				s = randomQuerySet(rng, g, q)
				for j := rng.Intn(3); j > 0; j-- {
					s = append(s, graph.KeywordID(rng.Intn(g.Dict().Size())))
				}
				if len(s) > 0 && !g.HasAllKeywords(q, graph.SortKeywordSet(append([]graph.KeywordID(nil), s...))) {
					foreignS++
				}
			}
			for _, theta := range []float64{0.01, 0.5, 1} {
				if len(matchReference(t, tr, "swt", q, k, s, theta).Communities) > 0 {
					answered++
				}
			}
			// τ just above q's own similarity to S makes q fail its own
			// predicate; the others straddle typical member similarities.
			norm, _ := normalizeQuery(g, q, k, s)
			selfJ := 0.0
			if w := len(g.Keywords(q)); w > 0 {
				selfJ = float64(len(norm)) / float64(w)
			}
			for _, tau := range []float64{0.2, 0.5, 1, math.Min(1, selfJ+0.01)} {
				if tau > selfJ {
					qFailsTau++
				}
				if len(matchReference(t, tr, "sj", q, k, s, tau).Communities) > 0 {
					answered++
				}
			}
		}
	}
	t.Logf("%d queries: %d non-empty answers, %d with τ above q's own similarity, %d empty S, %d S with words q lacks",
		trials, answered, qFailsTau, emptyS, foreignS)
	if answered == 0 || qFailsTau == 0 || emptyS == 0 || foreignS == 0 {
		t.Fatal("the trials missed a case the differential must cover")
	}
}
