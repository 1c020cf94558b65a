package dataio

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/acq-search/acq/internal/datagen"
	"github.com/acq-search/acq/internal/graph"
)

// textName is the name WriteText gives v: its label, or "_<v>" if it has
// none.
func textName(g graph.View, v graph.VertexID) string {
	if label := g.Label(v); label != "" {
		return label
	}
	return "_" + strconv.Itoa(int(v))
}

// sameGraph describes the first difference between a and b — edge count,
// dictionary order, adjacency, keyword IDs or names (textName) — or returns
// "" when there is none.
func sameGraph(a, b graph.View) string {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return fmt.Sprintf("size %d/%d, want %d/%d", b.NumVertices(), b.NumEdges(), a.NumVertices(), a.NumEdges())
	}
	if !slices.Equal(a.Dict().Words(), b.Dict().Words()) {
		return fmt.Sprintf("dictionary %q, want %q", b.Dict().Words(), a.Dict().Words())
	}
	for v := 0; v < a.NumVertices(); v++ {
		id := graph.VertexID(v)
		switch {
		case !slices.Equal(a.Neighbors(id), b.Neighbors(id)):
			return fmt.Sprintf("vertex %d: neighbours %v, want %v", v, b.Neighbors(id), a.Neighbors(id))
		case !slices.Equal(a.Keywords(id), b.Keywords(id)):
			return fmt.Sprintf("vertex %d: keywords %v, want %v", v, b.Keywords(id), a.Keywords(id))
		case textName(a, id) != textName(b, id):
			return fmt.Sprintf("vertex %d: name %q, want %q", v, textName(b, id), textName(a, id))
		}
		if label := b.Label(id); label != "" {
			if u, ok := b.VertexByLabel(label); !ok || u != id {
				return fmt.Sprintf("vertex %d: label %q resolves to %d", v, label, u)
			}
		}
	}
	return ""
}

func textOf(t testing.TB, g graph.View) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteText(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// presetText generates preset at scale and writes it in the text format.
func presetText(t testing.TB, preset string, scale float64) (*graph.Graph, []byte) {
	t.Helper()
	cfg, err := datagen.Preset(preset)
	if err != nil {
		t.Fatal(err)
	}
	g := datagen.Generate(cfg.Scale(scale))
	return g, textOf(t, g)
}

// FuzzReadText holds ReadText to refReadText, the line-scanner reader it
// replaced: the two must accept and reject the same inputs with the same
// error text, line number included, and an accepted input must give equal
// graphs down to keyword IDs, labels and the edge count. Each input is read
// twice, through the real buffer and through bufio's 16-byte minimum, so the
// fuzzer reaches the long-line path without megabyte inputs.
func FuzzReadText(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := refReadText(bytes.NewReader(data))
		got, err := ReadText(bytes.NewReader(data))
		checkAgainstRef(t, want, wantErr, got, err)
		got, err = readText(bytes.NewReader(data), 16)
		checkAgainstRef(t, want, wantErr, got, err)
	})
}

// TestReadTextLongLine: a line several times the 64 KB read buffer reads
// exactly as the line scanner read it.
func TestReadTextLongLine(t *testing.T) {
	var text bytes.Buffer
	text.WriteString("# long\nv a")
	for i := 0; text.Len() < 200<<10; i++ {
		fmt.Fprintf(&text, " w%d", i)
	}
	text.WriteString("\nv b w1 w7\ne a b\n")
	want, wantErr := refReadText(bytes.NewReader(text.Bytes()))
	if wantErr != nil {
		t.Fatal(wantErr)
	}
	got, err := ReadText(bytes.NewReader(text.Bytes()))
	checkAgainstRef(t, want, nil, got, err)
}

// checkAgainstRef fails t unless ReadText's outcome (got, err) agrees with
// refReadText's (want, wantErr).
func checkAgainstRef(t *testing.T, want *graph.Graph, wantErr error, got *graph.Graph, err error) {
	t.Helper()
	if errors.Is(wantErr, bufio.ErrTooLong) {
		// The one allowed difference: the old reader's bufio.Scanner
		// refused lines over 16 MB, and ReadText has no line cap.
		if err == nil {
			if verr := got.Validate(); verr != nil {
				t.Fatalf("ReadText accepted a graph that fails Validate: %v", verr)
			}
		}
		return
	}
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("ReadText error %v, refReadText error %v", err, wantErr)
	}
	if err != nil {
		return
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("ReadText accepted a graph that fails Validate: %v", err)
	}
	if diff := sameGraph(want, got); diff != "" {
		t.Fatalf("ReadText and refReadText disagree: %s", diff)
	}
}

// TestWriteTextRefusesLossyTokens: every graph whose text would read back as
// a different graph, or not at all, is refused, naming the vertex and token.
func TestWriteTextRefusesLossyTokens(t *testing.T) {
	for _, c := range []struct {
		name string
		add  func(b *graph.Builder)
		want string
	}{
		{"space in label", func(b *graph.Builder) { b.AddVertex("a b") }, `vertex 0: label "a b" contains whitespace`},
		{"space in keyword", func(b *graph.Builder) { b.AddVertex("ok", "bad keyword") }, `vertex 0: keyword "bad keyword" contains whitespace`},
		{"carriage return in label", func(b *graph.Builder) { b.AddVertex("ok"); b.AddVertex("a\rb") }, `vertex 1: label "a\rb" contains whitespace`},
		{"NBSP in label", func(b *graph.Builder) { b.AddVertex("a\u00a0b") }, `vertex 0: label "a\u00a0b" contains whitespace`},
		{"vertical tab in keyword", func(b *graph.Builder) { b.AddVertex("a", "x\vy") }, `vertex 0: keyword "x\vy" contains whitespace`},
		{"NEL in keyword", func(b *graph.Builder) { b.AddVertex("a", "x\u0085y") }, `vertex 0: keyword "x\u0085y" contains whitespace`},
		{"empty keyword", func(b *graph.Builder) { b.AddVertex("a", "x", "") }, `vertex 0: empty keyword`},
		{"label spells an unlabelled vertex", func(b *graph.Builder) {
			b.AddVertex("a")
			b.AddVertex("b")
			b.AddVertex("_3")
			b.AddVertex("")
		}, `vertex 2: label "_3" is the name written for unlabelled vertex 3`},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := graph.NewBuilder()
			c.add(b)
			err := WriteText(&bytes.Buffer{}, b.MustBuild())
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("WriteText error = %v, want one containing %q", err, c.want)
			}
		})
	}
}

// TestWriteTextKeepsHarmlessUnderscoreLabels: "_<id>" labels that cannot
// collide — the vertex's own name, a labelled target, a non-canonical number
// — are written and read back unchanged.
func TestWriteTextKeepsHarmlessUnderscoreLabels(t *testing.T) {
	b := graph.NewBuilder()
	b.AddVertex("_0", "x")
	b.AddVertex("_2")
	b.AddVertex("c")
	b.AddVertex("_03")
	b.AddVertex("")
	b.AddVertex("_-5")
	b.AddEdge(0, 4)
	g := b.MustBuild()
	got, err := ReadText(bytes.NewReader(textOf(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameGraph(g, got); diff != "" {
		t.Fatal(diff)
	}
}

// TestTextRoundTripPresets: ReadText(WriteText(g)) is g for the dblp and
// tencent analogues, down to dictionary order, keyword IDs and labels.
func TestTextRoundTripPresets(t *testing.T) {
	for _, preset := range []string{"dblp", "tencent"} {
		t.Run(preset, func(t *testing.T) {
			g, text := presetText(t, preset, 0.25)
			got, err := ReadText(bytes.NewReader(text))
			if err != nil {
				t.Fatal(err)
			}
			if err := got.Validate(); err != nil {
				t.Fatal(err)
			}
			if diff := sameGraph(g, got); diff != "" {
				t.Fatal(diff)
			}
		})
	}
}

// TestTextMappedTextByteIdentical: text → .acqm → text reproduces the text
// byte for byte.
func TestTextMappedTextByteIdentical(t *testing.T) {
	_, text := presetText(t, "dblp", 0.25)
	g, err := ReadText(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := ReadMapped(writeMappedBuf(t, g, nil))
	if err != nil {
		t.Fatal(err)
	}
	if again := textOf(t, g2); !bytes.Equal(again, text) {
		t.Fatalf("text → .acqm → text changed the text (%d → %d bytes)", len(text), len(again))
	}
}

// TestReadTextRowsDoNotAlias: ReadText's rows are windows of shared flat
// arrays, so every mutator on vertex v must leave the rows of v−1 and v+1
// as they were.
func TestReadTextRowsDoNotAlias(t *testing.T) {
	_, text := presetText(t, "dblp", 0.05)
	g, err := ReadText(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	n := graph.VertexID(g.NumVertices())
	for _, v := range []graph.VertexID{1, n / 2, n - 2} {
		// Edge partners stay clear of v±1, whose rows an edge to them would
		// rightly change.
		clear := func(u graph.VertexID) bool { return u < v-1 || u > v+1 }
		stranger := func() graph.VertexID {
			for u := graph.VertexID(0); ; u++ {
				if clear(u) && !g.HasEdge(v, u) {
					return u
				}
			}
		}
		rows := func() [2][]int32 {
			var r [2][]int32
			for i, u := range []graph.VertexID{v - 1, v + 1} {
				for _, w := range g.Neighbors(u) {
					r[i] = append(r[i], int32(w))
				}
				r[i] = append(r[i], -1)
				for _, w := range g.Keywords(u) {
					r[i] = append(r[i], int32(w))
				}
			}
			return r
		}
		before := rows()
		i := slices.IndexFunc(g.Neighbors(v), clear)
		if i < 0 || !g.RemoveEdge(v, g.Neighbors(v)[i]) {
			t.Fatalf("vertex %d: no edge to remove away from its neighbours in ID order", v)
		}
		if !g.RemoveKeyword(v, g.Dict().Word(g.Keywords(v)[0])) {
			t.Fatalf("vertex %d: RemoveKeyword changed nothing", v)
		}
		// The first append after a removal lands inside v's own window; the
		// second overflows it and must reallocate.
		for i := 0; i < 2; i++ {
			if !g.InsertEdge(v, stranger()) || !g.AddKeyword(v, fmt.Sprintf("fresh-%d-%d", v, i)) {
				t.Fatalf("vertex %d: InsertEdge or AddKeyword changed nothing", v)
			}
		}
		if after := rows(); !slices.Equal(after[0], before[0]) || !slices.Equal(after[1], before[1]) {
			t.Fatalf("mutating vertex %d changed the rows of its ID neighbours: %v → %v", v, before, after)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestReadTextAllocationsScaleWithVertices: one parse allocates a string per
// vertex label and per distinct keyword, plus a bounded number of growth
// steps for its flat arrays and two maps — never an object per line, token
// or edge. The map steps include table splits, about one per 450 entries, so
// the fixed slack of 64 is checked on the 600-vertex dblp analogue, whose
// 2 k edges and 7 k keyword tokens would each blow it many times over.
func TestReadTextAllocationsScaleWithVertices(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	g, text := presetText(t, "dblp", 0.02)
	rd := bytes.NewReader(text)
	allocs := testing.AllocsPerRun(5, func() {
		rd.Reset(text)
		if _, err := ReadText(rd); err != nil {
			t.Fatal(err)
		}
	})
	limit := g.NumVertices() + g.Dict().Size() + 64
	t.Logf("%d vertices, %d edges, %d words: %.0f allocations (limit %d)", g.NumVertices(), g.NumEdges(), g.Dict().Size(), allocs, limit)
	if allocs > float64(limit) {
		t.Fatalf("ReadText made %.0f allocations, want ≤ |V| + |dict| + 64 = %d", allocs, limit)
	}
}

// BenchmarkReadText parses the dblp analogue at scale 1 (30 k vertices),
// generated in-process.
func BenchmarkReadText(b *testing.B) {
	_, text := presetText(b, "dblp", 1)
	rd := bytes.NewReader(text)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(text)
		if _, err := ReadText(rd); err != nil {
			b.Fatal(err)
		}
	}
}
