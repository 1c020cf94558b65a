package dataio

import (
	"bytes"
	"encoding/binary"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/acq-search/acq/internal/core"
	"github.com/acq-search/acq/internal/graph"
	"github.com/acq-search/acq/internal/testutil"
)

var updateFixture = flag.Bool("update-fixture", false, "regenerate testdata/tiny.acqm (only after a deliberate format bump)")

func writeMappedFile(t *testing.T, g *graph.Frozen, tr *core.Tree, version uint64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap.acqm")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteMapped(f, g, FlattenTree(tr), version); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func frozenEqual(t *testing.T, a, b graph.View) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("sizes differ: %d/%d vs %d/%d", a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
	}
	for v := 0; v < a.NumVertices(); v++ {
		id := graph.VertexID(v)
		if !reflect.DeepEqual(append([]graph.VertexID{}, a.Neighbors(id)...), append([]graph.VertexID{}, b.Neighbors(id)...)) {
			t.Fatalf("adjacency of %d differs", v)
		}
		if !reflect.DeepEqual(append([]string{}, a.KeywordStrings(id)...), append([]string{}, b.KeywordStrings(id)...)) {
			t.Fatalf("keywords of %d differ", v)
		}
		if a.Label(id) != b.Label(id) {
			t.Fatalf("label of %d differs", v)
		}
	}
}

func TestMappedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 6; i++ {
		g := testutil.RandomGraph(rng, 10+rng.Intn(80), 1+3*rng.Float64(), 10, 3)
		tr := core.BuildAdvanced(g)
		fz := g.Freeze(2)
		ftr := tr.Clone(fz)
		version := uint64(1000 + i)

		path := writeMappedFile(t, fz, ftr, version)
		m, err := OpenMapped(path)
		if err != nil {
			t.Fatalf("iteration %d: open: %v", i, err)
		}
		if m.GraphVersion() != version {
			t.Fatalf("iteration %d: version %d, want %d", i, m.GraphVersion(), version)
		}
		if !m.HasTree() {
			t.Fatalf("iteration %d: tree lost", i)
		}

		got, err := m.Frozen()
		if err != nil {
			t.Fatalf("iteration %d: frozen: %v", i, err)
		}
		frozenEqual(t, fz, got)
		gtr, err := m.Tree(got)
		if err != nil {
			t.Fatalf("iteration %d: tree: %v", i, err)
		}
		if err := gtr.Validate(); err != nil {
			t.Fatalf("iteration %d: mapped tree invalid: %v", i, err)
		}
		if !reflect.DeepEqual(tr.Core, gtr.Core) || tr.KMax != gtr.KMax || tr.NumNodes() != gtr.NumNodes() {
			t.Fatalf("iteration %d: tree shape moved", i)
		}

		lf, ltr, err := m.Load()
		if err != nil {
			t.Fatalf("iteration %d: load: %v", i, err)
		}
		frozenEqual(t, fz, lf)
		if ltr == nil || ltr.Validate() != nil {
			t.Fatalf("iteration %d: loaded tree lost or invalid", i)
		}
		m.Close()
	}
}

// TestMappedCopyingAndZeroCopyIdentical: the same file loaded through the
// mmap path and the heap (copying) path must produce identical graphs — the
// two paths share one format, not one implementation.
func TestMappedCopyingAndZeroCopyIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g := testutil.RandomGraph(rng, 70, 3, 12, 4)
	tr := core.BuildAdvanced(g)
	fz := g.Freeze(1)
	path := writeMappedFile(t, fz, tr.Clone(fz), 42)

	mm, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()

	// Forge the copying path by reading the same container through the heap
	// loader (what a non-unix host would do).
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	fi, _ := f.Stat()
	ro, err := readAligned(f, fi.Size())
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	heap := &Mapped{path: path, ro: ro}
	if err := heap.parseHeader(); err != nil {
		t.Fatal(err)
	}

	a, err := mm.Frozen()
	if err != nil {
		t.Fatal(err)
	}
	b, err := heap.Frozen()
	if err != nil {
		t.Fatal(err)
	}
	frozenEqual(t, a, b)
	ta, err := mm.Tree(a)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := heap.Tree(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ta.Core, tb.Core) || ta.NumNodes() != tb.NumNodes() {
		t.Fatal("trees differ between mmap and copying paths")
	}
}

// Committed container fixture: unlike the tests above, which round-trip
// through whatever WriteMapped currently produces, this file's bytes are
// pinned in git — so an accidental format change (section order, header
// layout, endianness) fails here even when encode and decode drift together.
const (
	fixturePath    = "testdata/tiny.acqm"
	fixtureVersion = 321
)

// fixtureGraph rebuilds the exact graph the committed fixture encodes; the
// generation is deterministic, so the comparison is exact.
func fixtureGraph() (*graph.Frozen, *core.Tree) {
	g := testutil.RandomGraph(rand.New(rand.NewSource(7)), 24, 3, 8, 3)
	tr := core.BuildAdvanced(g)
	fz := g.Freeze(1)
	return fz, tr.Clone(fz)
}

// TestCommittedFixtureRoundTrip loads the committed container through the
// mmap path and the heap (copying) path and checks both against the
// regenerated source graph. Regenerate with
// go test ./internal/dataio -run Fixture -update-fixture
// only after a deliberate format version bump.
func TestCommittedFixtureRoundTrip(t *testing.T) {
	fz, tr := fixtureGraph()
	if *updateFixture {
		if err := os.MkdirAll(filepath.Dir(fixturePath), 0o755); err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(fixturePath)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteMapped(f, fz, FlattenTree(tr), fixtureVersion); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", fixturePath)
	}

	mm, err := OpenMapped(fixturePath)
	if err != nil {
		t.Fatalf("open committed fixture (regenerate with -update-fixture after a format bump): %v", err)
	}
	defer mm.Close()
	if mm.GraphVersion() != fixtureVersion || !mm.HasTree() {
		t.Fatalf("fixture header: version %d (want %d), tree %v", mm.GraphVersion(), fixtureVersion, mm.HasTree())
	}

	// The heap loader reads the same bytes without mapping them.
	f, err := os.Open(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	fi, _ := f.Stat()
	ro, err := readAligned(f, fi.Size())
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	heap := &Mapped{path: fixturePath, ro: ro}
	if err := heap.parseHeader(); err != nil {
		t.Fatal(err)
	}

	a, err := mm.Frozen()
	if err != nil {
		t.Fatal(err)
	}
	b, err := heap.Frozen()
	if err != nil {
		t.Fatal(err)
	}
	// Both paths must agree with each other and with the source graph.
	frozenEqual(t, a, b)
	frozenEqual(t, fz, a)
	for _, m := range []*Mapped{mm, heap} {
		got, err := m.Tree(a)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("fixture tree invalid: %v", err)
		}
		if !reflect.DeepEqual(tr.Core, got.Core) || tr.KMax != got.KMax || tr.NumNodes() != got.NumNodes() {
			t.Fatal("fixture tree shape differs from the regenerated source")
		}
	}
}

// garbageContainers are inputs every container reader must reject as not a
// mapped snapshot.
var garbageContainers = map[string][]byte{
	"empty": {},
	"text":  []byte("v a\nv b\ne a b\n"),
	"short": []byte("ACQM\x02\x00\x00\x00 short"),
}

func TestOpenMappedRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	for name, content := range garbageContainers {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenMapped(p); err == nil {
			t.Errorf("%s: OpenMapped accepted garbage", name)
		}
	}
	// Truncated mid-section: header parses, section table points past EOF.
	g := testutil.RandomGraph(rand.New(rand.NewSource(5)), 30, 3, 6, 2)
	path := writeMappedFile(t, g.Freeze(1), nil, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, "truncated")
	if err := os.WriteFile(p, data[:len(data)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMapped(p); err == nil {
		t.Error("OpenMapped accepted a truncated container")
	}
}

// TestFrozenSnapshotRoundTrip is the internal Freeze → WriteMapped →
// ReadMapped → Validate loop on random graphs: the reloaded frozen graph plus
// rehydrated tree must validate and match the original structure.
func TestFrozenSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 8; i++ {
		g := testutil.RandomGraph(rng, 10+rng.Intn(80), 1+3*rng.Float64(), 10, 3)
		tr := core.BuildAdvanced(g)
		fz := g.Freeze(2)

		var buf bytes.Buffer
		if err := WriteMapped(&buf, fz, FlattenTree(tr.Clone(fz)), uint64(i)); err != nil {
			t.Fatalf("iteration %d: write: %v", i, err)
		}
		g2, tr2, err := ReadMapped(&buf)
		if err != nil {
			t.Fatalf("iteration %d: read: %v", i, err)
		}
		if err := g2.Validate(); err != nil {
			t.Fatalf("iteration %d: reloaded graph invalid: %v", i, err)
		}
		frozenEqual(t, g, g2)
		if tr2 == nil {
			t.Fatalf("iteration %d: tree lost", i)
		}
		if err := tr2.Validate(); err != nil {
			t.Fatalf("iteration %d: reloaded tree invalid: %v", i, err)
		}
		if !reflect.DeepEqual(tr.Core, tr2.Core) || tr.KMax != tr2.KMax || tr.NumNodes() != tr2.NumNodes() {
			t.Fatalf("iteration %d: tree shape moved", i)
		}
	}
}

// TestFrozenAndMutableSnapshotsIdentical: the container is canonical. A
// mutable graph's snapshot, loaded back with ReadMapped and written again,
// reproduces the original file byte for byte.
func TestFrozenAndMutableSnapshotsIdentical(t *testing.T) {
	g := testutil.RandomGraph(rand.New(rand.NewSource(7)), 60, 3, 10, 3)
	tr := core.BuildAdvanced(g)
	var first, second bytes.Buffer
	if err := WriteMapped(&first, g.Freeze(1), FlattenTree(tr), 9); err != nil {
		t.Fatal(err)
	}
	fz, ftr, err := ReadMapped(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteMapped(&second, fz, FlattenTree(ftr), 9); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("re-serialising the reloaded snapshot changed the container bytes")
	}
}

// overflowingCounts is a container whose header claims 2^62−1 vertices with
// every per-vertex section empty: 4·(n+1) wraps to 0 in int64, so without a
// bound on the header counts the section-length cross-check passes and the
// label table decode slices with length −1.
func overflowingCounts() []byte {
	data := make([]byte, mappedDataStart+8)
	copy(data, MappedMagic)
	binary.LittleEndian.PutUint32(data[4:], mappedVersion)
	binary.LittleEndian.PutUint64(data[16:], 1<<62-1) // n
	binary.LittleEndian.PutUint64(data[48:], mappedSections)
	for i := 0; i < mappedSections; i++ {
		binary.LittleEndian.PutUint64(data[mappedHeaderSize+16*i:], mappedDataStart)
	}
	binary.LittleEndian.PutUint64(data[mappedHeaderSize+16*secWordOff+8:], 4) // one zero offset, no words
	return data
}

func TestReadMappedRejectsOverflowingCounts(t *testing.T) {
	if _, _, err := ReadMapped(bytes.NewReader(overflowingCounts())); err == nil {
		t.Fatal("ReadMapped accepted a header whose counts overflow the section lengths")
	}
}

// negativeTreeOffset is the committed fixture with its first tree vertex
// offset set to −1. The offsets stay non-decreasing, so only an explicit
// sign check keeps the node's vertex slice from starting before the array.
func negativeTreeOffset(tb testing.TB) []byte {
	tb.Helper()
	data, err := os.ReadFile(fixturePath)
	if err != nil {
		tb.Fatal(err)
	}
	off := binary.LittleEndian.Uint64(data[mappedHeaderSize+16*secTreeVertOff:])
	binary.LittleEndian.PutUint32(data[off:], math.MaxUint32)
	return data
}

func TestReadMappedRejectsNegativeTreeOffset(t *testing.T) {
	if _, _, err := ReadMapped(bytes.NewReader(negativeTreeOffset(t))); err == nil {
		t.Fatal("ReadMapped accepted a tree vertex offset of -1")
	}
}

// FuzzReadMapped feeds arbitrary bytes to the stream loader behind
// acq.LoadSnapshot, which parses whatever file a user passes as -in. It must
// never panic, and any input it accepts must yield a Frozen that passes
// Validate.
func FuzzReadMapped(f *testing.F) {
	tiny, err := os.ReadFile(fixturePath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tiny)
	for _, n := range []int{4, mappedHeaderSize, mappedDataStart, len(tiny) / 2, len(tiny) - 1} {
		f.Add(tiny[:n])
	}
	for _, content := range garbageContainers {
		f.Add(content)
	}
	f.Add(overflowingCounts())
	f.Add(negativeTreeOffset(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, _, err := ReadMapped(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("ReadMapped accepted a graph that fails Validate: %v", err)
		}
	})
}
