package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/acq-search/acq/internal/cancel"
	"github.com/acq-search/acq/internal/fpm"
	"github.com/acq-search/acq/internal/graph"
	"github.com/acq-search/acq/internal/testutil"
)

// Reference evaluators: the global-scan verification the exact entry points
// used before they switched to local expansion — the multi-candidate modes
// before they became the zero-ε case of the walker, and the threshold and
// Jaccard variants before they verified their one candidate by expansion
// from q. They share nothing with the evaluators under test but
// mineCandidates and the per-candidate community pipelines (the variant
// references even spell out their keyword rules afresh), so comparing the
// two checks each evaluator against an independent search rather than
// against itself.

// refDec is Algorithm 4's verification as written in the paper: bucket the
// k-ĉore's vertices by how many query keywords they share with q, and let R̂
// accumulate the vertices sharing ≥ l keywords as l descends; each size-l
// candidate is filtered out of R̂ and refined by the Gk[S'] pipeline.
func refDec(ctx context.Context, t *Tree, q graph.VertexID, k int, s []graph.KeywordID, opt Options) (res Result, err error) {
	check, err := begin(ctx)
	if err != nil {
		return Result{}, err
	}
	defer cancel.Recover(&err)
	s, err = normalizeQuery(t.g, q, k, s)
	if err != nil {
		return Result{}, err
	}
	if int(t.Core[q]) < k {
		return Result{}, ErrNoKCore
	}
	e := newEnv(t.g, q, k, opt, check)
	sub := t.SubtreeVertices(t.LocateRoot(q, int32(k)))
	levels := mineCandidates(t.g, q, k, s, fpm.FPGrowth, check)
	if len(levels) == 0 {
		return fallbackResult(e.ops, sub), nil
	}
	h := len(levels)
	shared := make([][]graph.VertexID, h+1)
	for _, v := range sub {
		i := t.g.CountSharedKeywords(v, s)
		if i > h {
			i = h
		}
		shared[i] = append(shared[i], v)
	}
	rHat := append([]graph.VertexID(nil), shared[h]...)
	for l := h; l >= 1; l-- {
		var out []Community
		for _, set := range levels[l-1] {
			if comm := e.communityOf(e.ops.FilterByKeywords(rHat, set)); comm != nil {
				out = append(out, Community{Label: set, Vertices: comm})
			}
		}
		if len(out) > 0 {
			return Result{Communities: out, LabelSize: l}, nil
		}
		if l >= 2 {
			rHat = append(rHat, shared[l-1]...)
		}
	}
	return fallbackResult(e.ops, sub), nil
}

// errRefCapped is refScoped's answer to a verification left undecided.
var errRefCapped = errors.New("reference: a verification hit its enumeration cap")

// refScoped is the (k−1)-core-scoped search of the clique and truss modes
// with the whole keyword-filtered (k−1)-core as each candidate's scope,
// handed straight to the structure's community function. A verification
// that the structure's enumeration cap leaves undecided has no reference
// answer; it fails with errRefCapped.
func refScoped(ctx context.Context, t *Tree, q graph.VertexID, k int, s []graph.KeywordID, st structure) (res Result, err error) {
	check, err := begin(ctx)
	if err != nil {
		return Result{}, err
	}
	defer cancel.Recover(&err)
	s, err = normalizeQuery(t.g, q, k, s)
	if err != nil {
		return Result{}, err
	}
	if k < 2 {
		k = 2
	}
	if int(t.Core[q]) < k-1 {
		return Result{}, ErrNoKCore
	}
	scope := t.SubtreeVertices(t.LocateRoot(q, int32(k-1)))
	e := newEnv(t.g, q, k, DefaultOptions(), check)
	levels := mineCandidates(t.g, q, k-1, s, fpm.FPGrowth, check)
	for l := len(levels); l >= 1; l-- {
		var out []Community
		for _, set := range levels[l-1] {
			comm, ok := st.community(e, e.ops.FilterByKeywords(scope, set))
			if !ok {
				return Result{}, errRefCapped
			}
			if comm != nil {
				out = append(out, Community{Label: set, Vertices: comm})
			}
		}
		if len(out) > 0 {
			return Result{Communities: out, LabelSize: l}, nil
		}
	}
	comm, ok := st.community(e, scope)
	if !ok {
		return Result{}, errRefCapped
	}
	if comm == nil {
		return Result{}, ErrNoKCore
	}
	return fallbackResult(e.ops, comm), nil
}

// refSWT is Variant 2 as a k-ĉore scan: filter every vertex of q's k-ĉore
// by the ⌈θ·|S|⌉ rule and run the Gk pipeline on the survivors.
func refSWT(ctx context.Context, t *Tree, q graph.VertexID, k int, s []graph.KeywordID, theta float64) (res Result, err error) {
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
	need := int(math.Ceil(theta * float64(len(s))))
	if need < 1 {
		need = 1
	}
	var cand []graph.VertexID
	for _, v := range t.SubtreeVertices(t.LocateRoot(q, int32(k))) {
		if t.g.CountSharedKeywords(v, s) >= need {
			cand = append(cand, v)
		}
	}
	return singleResult(s, newEnv(t.g, q, k, DefaultOptions(), check).communityOf(cand)), nil
}

// refSJ is SJ as a k-ĉore scan: filter every vertex of q's k-ĉore by
// Jaccard similarity to S and run the Gk pipeline on the survivors.
func refSJ(ctx context.Context, t *Tree, q graph.VertexID, k int, s []graph.KeywordID, tau float64) (res Result, err error) {
	check, err := begin(ctx)
	if err != nil {
		return Result{}, err
	}
	defer cancel.Recover(&err)
	s, err = normalizeQuery(t.g, q, k, s)
	if err != nil {
		return Result{}, err
	}
	if tau <= 0 || tau > 1 {
		return Result{}, ErrBadTheta
	}
	if int(t.Core[q]) < k {
		return Result{}, ErrNoKCore
	}
	var cand []graph.VertexID
	for _, v := range t.SubtreeVertices(t.LocateRoot(q, int32(k))) {
		shared := t.g.CountSharedKeywords(v, s)
		union := len(t.g.Keywords(v)) + len(s) - shared
		if union > 0 && len(s) > 0 && float64(shared)/float64(union) >= tau {
			cand = append(cand, v)
		}
	}
	return singleResult(s, newEnv(t.g, q, k, DefaultOptions(), check).communityOf(cand)), nil
}

// walkModes are the modes matchReference checks: every mode env.verify
// serves, each with its own reference.
var walkModes = []string{"dec", "clique", "truss", "truss-d", "swt", "sj"}

// matchReference runs one query through a mode's served entry points and
// fails t unless each answer, error included, is the reference's. The walks
// (dec, clique, truss, truss-d) run at the zero Approx and through their
// exact entry point against refDec or refScoped, and the walk must report
// tight exact bounds; SWT at θ = param and SJ at τ = param run against refSWT
// and refSJ. It returns the reference's answer.
func matchReference(t testing.TB, tr *Tree, mode string, q graph.VertexID, k int, s []graph.KeywordID, param float64) Result {
	t.Helper()
	type answer struct {
		who string
		res Result
		err error
	}
	var want Result
	var wantErr error
	var got []answer
	switch mode {
	case "swt":
		want, wantErr = refSWT(bgCtx, tr, q, k, s, param)
		res, err := SWT(bgCtx, tr, q, k, s, param)
		got = append(got, answer{"SWT", res, err})
	case "sj":
		want, wantErr = refSJ(bgCtx, tr, q, k, s, param)
		res, err := SJ(bgCtx, tr, q, k, s, param)
		got = append(got, answer{"SJ", res, err})
	default:
		run := approxRunners(tr, q, k, s)[mode]
		want, wantErr = run.ref()
		res, b, err := run.approx(Approx{})
		if err == nil && (!b.Exact || b.Lower != want.LabelSize || b.Upper != want.LabelSize || b.BudgetExhausted || b.Truncated) {
			t.Fatalf("%s(q=%d k=%d S=%v): bounds = %+v, want exact at %d", mode, q, k, s, b, want.LabelSize)
		}
		exact, exactErr := run.exact()
		got = append(got, answer{"approx ε=0", res, err}, answer{"exact", exact, exactErr})
	}
	for _, c := range got {
		if (c.err == nil) != (wantErr == nil) || (c.err != nil && c.err.Error() != wantErr.Error()) {
			t.Fatalf("%s(q=%d k=%d S=%v param=%g): %s err = %v, reference err = %v", mode, q, k, s, param, c.who, c.err, wantErr)
		}
		if !reflect.DeepEqual(c.res, want) {
			t.Fatalf("%s(q=%d k=%d S=%v param=%g): %s result differs from the reference\ngot:       %+v\nreference: %+v", mode, q, k, s, param, c.who, c.res, want)
		}
	}
	return want
}

// FuzzWalkMatchesReference holds every mode env.verify serves to its
// independent reference (matchReference) on random graphs of 5 to 64
// vertices: the query vertex, k ∈ [1, 5], the mode and θ or τ ∈ (0, 1] come
// from the input. The low six bits of sBits pick S among the six dictionary
// words, so S can hold words q lacks or be empty; bit 15 asks for S = nil
// (W(q) for every mode but SWT, for which it is the empty set).
func FuzzWalkMatchesReference(f *testing.F) {
	for i := range walkModes {
		f.Add(int64(i), uint8(30), uint8(24), uint8(i), uint8(i), uint8(50), uint16(1<<15))
		f.Add(int64(i+10), uint8(60), uint8(40), uint8(1), uint8(i), uint8(20), uint16(0x15))
	}
	f.Fuzz(func(t *testing.T, seed int64, nB, degB, kB, modeB, paramB uint8, sBits uint16) {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + int(nB)%60
		g := testutil.RandomGraph(rng, n, 1+float64(degB%64)/8, 6, 4)
		tr := BuildAdvanced(g)
		q := graph.VertexID(rng.Intn(n))
		var s []graph.KeywordID
		if sBits&(1<<15) == 0 {
			s = []graph.KeywordID{}
			for w := 0; w < g.Dict().Size() && w < 6; w++ {
				if sBits&(1<<w) != 0 {
					s = append(s, graph.KeywordID(w))
				}
			}
		}
		mode := walkModes[int(modeB)%len(walkModes)]
		matchReference(t, tr, mode, q, 1+int(kB)%5, s, float64(1+int(paramB)%100)/100)
	})
}
