package dataio

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"strings"
	"testing"
	"testing/quick"

	"github.com/acq-search/acq/internal/core"
	"github.com/acq-search/acq/internal/graph"
	"github.com/acq-search/acq/internal/testutil"
)

func TestTextRoundTrip(t *testing.T) {
	g := testutil.Fig3Graph()
	var buf bytes.Buffer
	if err := WriteText(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameGraph(g, got); diff != "" {
		t.Fatalf("text round trip changed the graph: %s", diff)
	}
	if gotV, ok := got.VertexByLabel("A"); !ok || got.Label(gotV) != "A" {
		t.Fatal("labels lost")
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := map[string]string{
		"unknown directive": "x foo\n",
		"edge before decl":  "e a b\n",
		"dup vertex":        "v a\nv a\n",
		"short vertex":      "v\n",
		"short edge":        "v a\ne a\n",
		"one endpoint":      "v a\ne a missing\n",
	}
	for name, input := range cases {
		if _, err := ReadText(strings.NewReader(input)); err == nil {
			t.Errorf("%s: ReadText accepted %q", name, input)
		}
	}
	// Comments and blanks are fine.
	g, err := ReadText(strings.NewReader("# hi\n\nv a x y\nv b x\ne a b\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 2 || g.NumEdges() != 1 {
		t.Fatalf("parsed %d/%d", g.NumVertices(), g.NumEdges())
	}
}

// writeMappedBuf writes g and its tree (nil for none) as a mapped container.
func writeMappedBuf(t testing.TB, g *graph.Graph, tr *core.Tree) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMapped(&buf, g.Freeze(1), FlattenTree(tr), 0); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestSnapshotRoundTripWithTree(t *testing.T) {
	g := testutil.Fig5Graph()
	tr := core.BuildAdvanced(g)
	g2, tr2, err := ReadMapped(writeMappedBuf(t, g, tr))
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameGraph(g, g2); diff != "" {
		t.Fatalf("snapshot changed the graph: %s", diff)
	}
	if tr2 == nil {
		t.Fatal("tree lost")
	}
	if err := tr2.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr2.NumNodes() != tr.NumNodes() || tr2.KMax != tr.KMax {
		t.Fatalf("tree stats changed: %d/%d vs %d/%d", tr2.NumNodes(), tr2.KMax, tr.NumNodes(), tr.KMax)
	}
}

func TestSnapshotWithoutTree(t *testing.T) {
	g := testutil.Fig3Graph()
	g2, tr, err := ReadMapped(writeMappedBuf(t, g, nil))
	if err != nil {
		t.Fatal(err)
	}
	if tr != nil {
		t.Fatal("tree invented")
	}
	if diff := sameGraph(g, g2); diff != "" {
		t.Fatalf("snapshot changed the graph: %s", diff)
	}
}

func TestReadSnapshotGarbage(t *testing.T) {
	for name, content := range garbageContainers {
		if _, _, err := ReadMapped(bytes.NewReader(content)); !errors.Is(err, ErrNotMapped) {
			t.Errorf("%s: ReadMapped error = %v, want ErrNotMapped", name, err)
		}
	}
}

// TestSnapshotRejectsLegacyFormat: a gob snapshot file written by the
// releases before the mapped container became the only binary format must
// fail with an error that names its bad magic, not a half-decoded graph.
func TestSnapshotRejectsLegacyFormat(t *testing.T) {
	f, err := os.Open("testdata/legacy-gob.snap")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, _, err = ReadMapped(f)
	if !errors.Is(err, ErrNotMapped) || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("legacy gob snapshot: error = %v, want ErrNotMapped naming the bad magic", err)
	}
}

// Property: text and snapshot round trips are lossless on random graphs, and
// a rehydrated tree validates.
func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(rng, 2+rng.Intn(40), 1+4*rng.Float64(), 8, 3)
		var buf bytes.Buffer
		if err := WriteText(&buf, g); err != nil {
			return false
		}
		g2, err := ReadText(&buf)
		if err != nil || g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
			return false
		}
		tr := core.BuildAdvanced(g)
		buf.Reset()
		if err := WriteMapped(&buf, g.Freeze(1), FlattenTree(tr), 0); err != nil {
			return false
		}
		g3, tr3, err := ReadMapped(&buf)
		if err != nil || tr3 == nil {
			return false
		}
		if sameGraph(g, g3) != "" {
			return false
		}
		return tr3.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
