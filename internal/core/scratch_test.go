package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/acq-search/acq/internal/datagen"
	"github.com/acq-search/acq/internal/graph"
	"github.com/acq-search/acq/internal/testutil"
)

// presetQueries returns n seeded vertices of core ≥ minCore.
func presetQueries(t *testing.T, tr *Tree, n int, minCore int32) []graph.VertexID {
	rng := rand.New(rand.NewSource(7))
	var qs []graph.VertexID
	for tries := 0; len(qs) < n && tries < 100*n; tries++ {
		if v := graph.VertexID(rng.Intn(len(tr.Core))); tr.Core[v] >= minCore {
			qs = append(qs, v)
		}
	}
	if len(qs) < n {
		t.Fatalf("only %d query vertices with core ≥ %d", len(qs), minCore)
	}
	return qs
}

// TestDecAllocatesLessThanNPerQuery: with the tree's pooled scratch, an
// exact Dec query allocates only what its own answer and candidates need —
// on average under one byte per graph vertex, where a per-query SetOps alone
// costs 12 bytes per vertex.
func TestDecAllocatesLessThanNPerQuery(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	cfg, err := datagen.Preset("dblp")
	if err != nil {
		t.Fatal(err)
	}
	g := datagen.Generate(cfg.Scale(0.5)).Freeze(1)
	tr := BuildAdvanced(g)
	qs := presetQueries(t, tr, 100, 6)
	opt := DefaultOptions()
	if _, err := Dec(bgCtx, tr, qs[0], 6, nil, opt); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, q := range qs {
		if _, err := Dec(bgCtx, tr, q, 6, nil, opt); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	n := g.NumVertices()
	perQuery := (after.TotalAlloc - before.TotalAlloc) / uint64(len(qs))
	t.Logf("dblp@0.5: n = %d, %d bytes allocated per exact Dec query", n, perQuery)
	if perQuery >= uint64(n) {
		t.Fatalf("exact Dec allocates %d bytes per query, want < n = %d", perQuery, n)
	}
}

// TestWalkersReadSubtreeOnlyForFallback: every caller of env.verify — the
// core, clique and truss walks, SWT, SJ and CommunitiesByLabelSize —
// materialises the ĉore (SubtreeVertices) only for a walk's fallback answer.
// A clone whose nodes carry no vertex lists makes SubtreeVertices return
// nothing while core numbers and core-locating still work, so every
// non-fallback answer must come out of the stripped tree unchanged.
func TestWalkersReadSubtreeOnlyForFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	checked := map[string]int{}
	for trial := 0; trial < 80; trial++ {
		g := testutil.RandomGraph(rng, 10+rng.Intn(40), 2+5*rng.Float64(), 6, 4)
		tr := BuildAdvanced(g)
		stripped := tr.Clone(g)
		for _, nd := range stripped.collectNodes() {
			nd.Vertices = nil
		}
		q := graph.VertexID(rng.Intn(g.NumVertices()))
		k := 1 + rng.Intn(4)
		s := randomQuerySet(rng, g, q)
		for name, run := range map[string]func(*Tree) (Result, error){
			"dec":     func(x *Tree) (Result, error) { return Dec(bgCtx, x, q, k, s, DefaultOptions()) },
			"clique":  func(x *Tree) (Result, error) { return CliqueSearch(bgCtx, x, q, k, s) },
			"truss-d": func(x *Tree) (Result, error) { return TrussSearchD(bgCtx, x, q, k, 2, s) },
			"swt":     func(x *Tree) (Result, error) { return SWT(bgCtx, x, q, k, s, 0.5) },
			"sj":      func(x *Tree) (Result, error) { return SJ(bgCtx, x, q, k, s, 0.4) },
		} {
			want, err := run(tr)
			if err != nil || want.Fallback {
				continue
			}
			if len(want.Communities) > 0 {
				checked[name]++
			}
			if got, err := run(stripped); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trial %d: answer read the subtree vertex lists: got %+v (%v), want %+v", name, trial, got, err, want)
			}
		}
		want, err := CommunitiesByLabelSize(bgCtx, tr, q, k, s, 0, DefaultOptions())
		if err != nil {
			continue
		}
		for _, level := range want {
			if len(level) > 0 {
				checked["by-label-size"]++
				break
			}
		}
		if got, err := CommunitiesByLabelSize(bgCtx, stripped, q, k, s, 0, DefaultOptions()); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("CommunitiesByLabelSize trial %d: read the subtree vertex lists: got %+v (%v), want %+v", trial, got, err, want)
		}
	}
	for _, name := range []string{"dec", "clique", "truss-d", "swt", "sj", "by-label-size"} {
		if checked[name] == 0 {
			t.Fatalf("no non-empty %s answer exercised: %v", name, checked)
		}
	}
	t.Logf("non-empty answers checked: %v", checked)
}

// TestScratchPoolPerView: every tree constructor starts its own pool, the
// pool only hands out scratch bound to the tree's view, and every query
// returns its scratch, whether it answers or fails.
func TestScratchPoolPerView(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g := testutil.RandomGraph(rng, 60, 5, 6, 4)
	tr := BuildAdvanced(g)
	fz := g.Freeze(1)
	views := map[string]*Tree{
		"build":     tr,
		"clone":     tr.Clone(fz),
		"cloneOpts": tr.CloneOpts(fz, BuildOptions{Workers: 2}),
		"rebind":    tr.Clone(fz).RebindPostings(fz, nil),
	}
	seen := map[*scratchPool]string{}
	for name, x := range views {
		if x.scratch == nil {
			t.Fatalf("%s: tree has no scratch pool", name)
		}
		if prev, dup := seen[x.scratch]; dup {
			t.Fatalf("%s shares its scratch pool with %s", name, prev)
		}
		seen[x.scratch] = name
		for q := 0; q < g.NumVertices(); q++ {
			v := graph.VertexID(q)
			_, _ = Dec(bgCtx, x, v, 3, nil, DefaultOptions())
			_, _ = CliqueSearch(bgCtx, x, v, 3, nil)
			_, _ = TrussSearchD(bgCtx, x, v, 3, 2, nil)
			sc := x.acquireScratch(nil)
			if sc.ops.Graph() != x.Graph() {
				t.Fatalf("%s: pooled SetOps bound to another view", name)
			}
			x.releaseScratch(sc)
		}
		if n := x.ScratchInUse(); n != 0 {
			t.Fatalf("%s: %d scratches still handed out after every query returned", name, n)
		}
	}
}
