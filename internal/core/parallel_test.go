package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/acq-search/acq/internal/datagen"
	"github.com/acq-search/acq/internal/graph"
	"github.com/acq-search/acq/internal/testutil"
)

// requireIdentical fails unless a and b are byte-identical CL-trees: same
// core numbers, same node structure in the same canonical order, same own
// vertices, same flattened postings, same NodeOf mapping. This is the contract of
// the parallel build — not merely an equivalent tree, the same tree.
func requireIdentical(t *testing.T, label string, a, b *Tree) {
	t.Helper()
	if !reflect.DeepEqual(a.Core, b.Core) {
		t.Fatalf("%s: core numbers differ", label)
	}
	if a.KMax != b.KMax || a.NumNodes() != b.NumNodes() {
		t.Fatalf("%s: kmax %d/%d or node count %d/%d differ", label, a.KMax, b.KMax, a.NumNodes(), b.NumNodes())
	}
	var walk func(path string, x, y *Node)
	walk = func(path string, x, y *Node) {
		if x.Core != y.Core {
			t.Fatalf("%s: node %s core %d != %d", label, path, x.Core, y.Core)
		}
		if !reflect.DeepEqual(x.Vertices, y.Vertices) {
			t.Fatalf("%s: node %s vertices differ:\n%v\n%v", label, path, x.Vertices, y.Vertices)
		}
		if !reflect.DeepEqual(x.InvKeys, y.InvKeys) || !reflect.DeepEqual(x.InvOff, y.InvOff) || !reflect.DeepEqual(x.InvPost, y.InvPost) {
			t.Fatalf("%s: node %s flattened postings differ", label, path)
		}
		if len(x.Children) != len(y.Children) {
			t.Fatalf("%s: node %s child counts differ: %d != %d", label, path, len(x.Children), len(y.Children))
		}
		for i := range x.Children {
			if x.Children[i].Parent != x || y.Children[i].Parent != y {
				t.Fatalf("%s: node %s child %d has a broken parent pointer", label, path, i)
			}
			walk(fmt.Sprintf("%s.%d", path, i), x.Children[i], y.Children[i])
		}
	}
	walk("root", a.Root, b.Root)
	for v := range a.NodeOf {
		if a.NodeOf[v].Core != b.NodeOf[v].Core || len(a.NodeOf[v].Vertices) != len(b.NodeOf[v].Vertices) {
			t.Fatalf("%s: NodeOf[%d] points at structurally different nodes", label, v)
		}
	}
}

// TestParallelBuildIdentical: the parallel build must produce a CL-tree
// byte-identical to the serial BuildAdvanced output on realistic synthetic
// graphs, at every worker count, including worker counts far beyond the
// machine's CPUs. The basic top-down builder is held to the same canonical
// output, pinning down that both builders and the parallel pipeline agree on
// one tree.
func TestParallelBuildIdentical(t *testing.T) {
	for _, preset := range []string{"dblp", "tencent"} {
		for _, scale := range []float64{0.01, 0.04} {
			cfg, err := datagen.Preset(preset)
			if err != nil {
				t.Fatal(err)
			}
			g := datagen.Generate(cfg.Scale(scale))
			serial := BuildAdvanced(g)
			if err := serial.Validate(); err != nil {
				t.Fatalf("%s@%.2f: serial build invalid: %v", preset, scale, err)
			}
			basic := BuildBasic(g)
			requireIdentical(t, fmt.Sprintf("%s@%.2f basic-vs-advanced", preset, scale), serial, basic)
			for _, workers := range []int{1, 2, 8} {
				par := BuildAdvancedOpts(g, BuildOptions{Workers: workers})
				requireIdentical(t, fmt.Sprintf("%s@%.2f workers=%d", preset, scale, workers), serial, par)
			}
			auto := BuildAdvancedOpts(g, BuildOptions{Workers: -1})
			requireIdentical(t, fmt.Sprintf("%s@%.2f workers=auto", preset, scale), serial, auto)
		}
	}
}

// TestParallelBuildQuick is the property-style differential test: random
// graphs of random sizes, every worker count, identical trees.
func TestParallelBuildQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(120)
		g := testutil.RandomGraph(rng, n, 1+4*rng.Float64(), 8, 3)
		serial := BuildAdvanced(g)
		for _, workers := range []int{2, 8} {
			par := BuildAdvancedOpts(g, BuildOptions{Workers: workers})
			requireIdentical(t, fmt.Sprintf("seed %d workers %d", seed, workers), serial, par)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelSearchResultsMatch: queries through a parallel-built tree must
// answer exactly like queries through the serial tree.
func TestParallelSearchResultsMatch(t *testing.T) {
	cfg, err := datagen.Preset("dblp")
	if err != nil {
		t.Fatal(err)
	}
	g := datagen.Generate(cfg.Scale(0.04))
	serial := BuildAdvanced(g)
	par := BuildAdvancedOpts(g, BuildOptions{Workers: 8})
	queries := datagen.QueryVertices(serial.Core, 4, 12, 7)
	if len(queries) == 0 {
		t.Skip("no deep-core query vertices at this scale")
	}
	opt := DefaultOptions()
	for _, q := range queries {
		r1, e1 := Dec(bgCtx, serial, q, 4, nil, opt)
		r2, e2 := Dec(bgCtx, par, q, 4, nil, opt)
		if (e1 == nil) != (e2 == nil) {
			t.Fatalf("q=%d: errors differ: %v vs %v", q, e1, e2)
		}
		if e1 == nil && !reflect.DeepEqual(canonical(r1), canonical(r2)) {
			t.Fatalf("q=%d: Dec results differ", q)
		}
		r3, e3 := IncT(bgCtx, serial, q, 4, nil, opt)
		r4, e4 := IncT(bgCtx, par, q, 4, nil, opt)
		if (e3 == nil) != (e4 == nil) {
			t.Fatalf("q=%d: IncT errors differ: %v vs %v", q, e3, e4)
		}
		if e3 == nil && !reflect.DeepEqual(canonical(r3), canonical(r4)) {
			t.Fatalf("q=%d: IncT results differ", q)
		}
	}
}

// TestCloneOptsIdentical: the parallel clone must be byte-identical to the
// serial clone, and fully detached from the original.
func TestCloneOptsIdentical(t *testing.T) {
	cfg, err := datagen.Preset("flickr")
	if err != nil {
		t.Fatal(err)
	}
	g := datagen.Generate(cfg.Scale(0.02))
	tr := BuildAdvanced(g)
	serial := tr.Clone(g.Clone())
	par := tr.CloneOpts(g.Clone(), BuildOptions{Workers: 4})
	requireIdentical(t, "clone", serial, par)
	if err := par.Validate(); err != nil {
		t.Fatalf("parallel clone invalid: %v", err)
	}
	// Mutate the original through a maintainer: the parallel clone must not move.
	m := NewMaintainer(tr)
	rng := rand.New(rand.NewSource(3))
	n := g.NumVertices()
	for i := 0; i < 30; i++ {
		u := graph.VertexID(rng.Intn(n))
		v := graph.VertexID(rng.Intn(n))
		if u == v {
			continue
		}
		if rng.Intn(2) == 0 {
			m.InsertEdge(u, v)
		} else {
			m.RemoveEdge(u, v)
		}
	}
	if err := par.Validate(); err != nil {
		t.Fatalf("parallel clone corrupted by mutations to the original: %v", err)
	}
}
