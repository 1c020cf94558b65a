package acq

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/acq-search/acq/internal/graph"
)

// buildDurableBase builds the deterministic base graph every durability test
// starts from: a ring of n vertices with chords and a few keyword groups, big
// enough to exercise the maintainer but fast to index.
func buildDurableBase(tb testing.TB, n int) *Graph {
	tb.Helper()
	b := NewBuilder()
	for i := 0; i < n; i++ {
		kws := []string{"common", fmt.Sprintf("group%d", i%5)}
		if i%7 == 0 {
			kws = append(kws, "rare")
		}
		b.AddVertex(fmt.Sprintf("v%d", i), kws...)
	}
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32((i+1)%n))
		b.AddEdge(int32(i), int32((i+2)%n))
	}
	G, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	G.BuildIndex()
	return G
}

// durableBatches is the deterministic mutation workload: a mix of edge and
// keyword ops, every one effective when applied in order.
func durableBatches(n int) [][]Mutation {
	var out [][]Mutation
	for b := 0; b < 6; b++ {
		var batch []Mutation
		for i := 0; i < 4; i++ {
			u := int32((7*b + 3*i) % n)
			v := (u + 5 + int32(b)) % int32(n)
			if u == v {
				v = (v + 1) % int32(n)
			}
			batch = append(batch,
				Mutation{Op: OpInsertEdge, U: u, V: v},
				Mutation{Op: OpAddKeyword, Vertex: u, Keyword: fmt.Sprintf("w%d-%d", b, i)},
			)
		}
		// One removal per batch so replay exercises the splice path too.
		batch = append(batch, Mutation{Op: OpRemoveEdge, U: int32(b), V: int32((b + 1) % n)})
		out = append(out, batch)
	}
	return out
}

func applyAll(tb testing.TB, G *Graph, batches [][]Mutation) {
	tb.Helper()
	for bi, batch := range batches {
		for i, res := range G.ApplyMutations(batch) {
			if res.Err != nil || !res.Changed {
				tb.Fatalf("batch %d op %d not effective: %v", bi, i, res.Err)
			}
		}
	}
}

// assertSameGraph compares the full state of two graphs: version, structure,
// keywords (as strings — dictionaries must agree too) and a search answer.
func assertSameGraph(tb testing.TB, want, got *Graph) {
	tb.Helper()
	if want.Version() != got.Version() {
		tb.Fatalf("version %d, want %d", got.Version(), want.Version())
	}
	if want.NumVertices() != got.NumVertices() || want.NumEdges() != got.NumEdges() {
		tb.Fatalf("size %d/%d, want %d/%d", got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	wv, gv := want.view().g, got.view().g
	for v := 0; v < want.NumVertices(); v++ {
		id := graph.VertexID(v)
		if !reflect.DeepEqual(append([]graph.VertexID{}, wv.Neighbors(id)...), append([]graph.VertexID{}, gv.Neighbors(id)...)) {
			tb.Fatalf("adjacency of %d differs", v)
		}
		if !reflect.DeepEqual(append([]string{}, wv.KeywordStrings(id)...), append([]string{}, gv.KeywordStrings(id)...)) {
			tb.Fatalf("keywords of %d differ", v)
		}
		if want.Label(int32(v)) != got.Label(int32(v)) {
			tb.Fatalf("label of %d differs", v)
		}
	}
	q := Query{Vertex: "v3", K: 2}
	rw, errW := want.Search(context.Background(), q)
	rg, errG := got.Search(context.Background(), q)
	if (errW == nil) != (errG == nil) {
		tb.Fatalf("search errors differ: %v vs %v", errW, errG)
	}
	if errW == nil && !reflect.DeepEqual(rw.Communities, rg.Communities) {
		tb.Fatalf("search results differ")
	}
}

func TestDurableRoundTrip(t *testing.T) {
	const n = 60
	dir := t.TempDir()
	G := buildDurableBase(t, n)
	if err := G.EnableDurability(DurableOptions{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if err := G.EnableDurability(DurableOptions{Dir: dir}); err != ErrAlreadyDurable {
		t.Fatalf("second EnableDurability: %v", err)
	}
	st := G.DurabilityStats()
	if !st.Durable || st.Checkpoints != 1 || st.LastCheckpointVersion != G.Version() {
		t.Fatalf("after arming: %+v", st)
	}
	G.Snapshot() // serving mode on, like the engine
	batches := durableBatches(n)
	applyAll(t, G, batches)
	// A few single-op mutators ride along (they log through the same hook).
	if !G.AddKeyword(2, "single-op") || !G.InsertEdge(10, 40) {
		t.Fatal("single ops not effective")
	}
	if st := G.DurabilityStats(); st.WALBytes <= 8 {
		t.Fatalf("WAL did not grow: %+v", st)
	}

	// Expected state: same workload on a memory-only twin.
	want := buildDurableBase(t, n)
	applyAll(t, want, batches)
	want.AddKeyword(2, "single-op")
	want.InsertEdge(10, 40)

	got, err := OpenDurable(DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, want, got)
	st = got.DurabilityStats()
	if st.RecoveredBatches != len(batches)+2 {
		t.Fatalf("recovered %d batches, want %d", st.RecoveredBatches, len(batches)+2)
	}
	if st.MappedColdStart {
		// Replay happened, so the boot snapshot could not serve zero-copy —
		// but the flag describes the mapping, which did open.
		t.Log("mapped cold start with replay")
	}
	// Recovery settles the directory: one snapshot, empty log, no prevs.
	if st.LastCheckpointVersion != got.Version() {
		t.Fatalf("recovery did not settle: %+v", st)
	}
	if prevs, _ := sortedWalPrevs(dir); len(prevs) != 0 {
		t.Fatalf("rotated logs left behind: %v", prevs)
	}

	// And a second, replay-free reopen is the zero-copy path.
	got2, err := OpenDurable(DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, want, got2)
	st2 := got2.DurabilityStats()
	if st2.RecoveredBatches != 0 {
		t.Fatalf("clean reopen replayed %d batches", st2.RecoveredBatches)
	}
	snap := got2.Snapshot()
	if snap.Version() != want.Version() {
		t.Fatalf("boot snapshot at version %d, want %d", snap.Version(), want.Version())
	}
	// Mutations over the boot snapshot publish and serve correctly.
	if !got2.InsertEdge(5, 25) {
		t.Fatal("insert over boot snapshot not effective")
	}
	if v := got2.Snapshot().Version(); v != want.Version()+1 {
		t.Fatalf("post-boot publication at version %d", v)
	}
}

func TestDurableOpenEmptyDir(t *testing.T) {
	if _, err := OpenDurable(DurableOptions{Dir: t.TempDir()}); !errors.Is(err, ErrNoDurableState) {
		t.Fatalf("OpenDurable on empty dir: %v, want ErrNoDurableState", err)
	}
}

func TestDurableAutoCheckpoint(t *testing.T) {
	const n = 40
	dir := t.TempDir()
	G := buildDurableBase(t, n)
	// Tiny interval: every effective mutation batch crosses it.
	if err := G.EnableDurability(DurableOptions{Dir: dir, CheckpointEvery: 4}); err != nil {
		t.Fatal(err)
	}
	applyAll(t, G, durableBatches(n))
	// Background checkpoints race the assertions; force the last one inline.
	if err := G.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := G.DurabilityStats()
	if st.Checkpoints < 2 {
		t.Fatalf("automatic checkpoints did not run: %+v", st)
	}
	if st.LastCheckpointVersion != G.Version() {
		t.Fatalf("checkpoint behind: %+v", st)
	}
	got, err := OpenDurable(DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got.Version() != G.Version() {
		t.Fatalf("recovered version %d, want %d", got.Version(), G.Version())
	}
}

func TestDurableSyncModes(t *testing.T) {
	if _, err := (DurableOptions{SyncMode: "sometimes"}).policy(); err == nil {
		t.Fatal("bad sync mode accepted")
	}
	dir := t.TempDir()
	G := buildDurableBase(t, 20)
	if err := G.EnableDurability(DurableOptions{Dir: dir, SyncMode: "never"}); err != nil {
		t.Fatal(err)
	}
	if st := G.DurabilityStats(); st.SyncMode != "never" {
		t.Fatalf("sync mode %q", st.SyncMode)
	}
}

// --- crash injection. Each subtest re-executes the test binary as a helper
// that builds the same deterministic state, arms a crash at one durability
// window, and dies there with os.Exit — a hard kill, nothing flushes that
// wasn't already written. The parent then recovers the directory and checks
// every acknowledged batch (plus, for the wal-append window, the batch whose
// append had completed) against an in-memory twin.

const crashBaseN = 60

func TestCrashHelper(t *testing.T) {
	point := os.Getenv("ACQ_CRASH_POINT")
	if point == "" {
		t.Skip("crash helper; driven by TestCrashRecovery")
	}
	dir := os.Getenv("ACQ_CRASH_DIR")
	G := buildDurableBase(t, crashBaseN)
	if err := G.EnableDurability(DurableOptions{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	G.Snapshot()
	batches := durableBatches(crashBaseN)
	acked := batches[:len(batches)-1]
	last := batches[len(batches)-1]
	applyAll(t, G, acked)

	crashPoint = func(p string) {
		if p == point {
			os.Exit(42)
		}
	}
	switch point {
	case "wal-append":
		// Dies inside ApplyMutations, right after the record hit the log.
		G.ApplyMutations(last)
	case "wal-rotated", "checkpoint-written", "checkpoint-renamed":
		// The acked batches are in the WAL; the checkpoint dies right after
		// the rotation critical section / after writing the temp snapshot /
		// after renaming it.
		if err := G.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatalf("crash point %q never fired", point)
}

func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash tests")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, point := range []string{"wal-append", "wal-rotated", "checkpoint-written", "checkpoint-renamed"} {
		t.Run(point, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "col")
			cmd := exec.Command(exe, "-test.run", "^TestCrashHelper$")
			cmd.Env = append(os.Environ(), "ACQ_CRASH_POINT="+point, "ACQ_CRASH_DIR="+dir)
			out, err := cmd.CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 42 {
				t.Fatalf("helper did not die at the crash point (err=%v):\n%s", err, out)
			}

			// Expected surviving state.
			want := buildDurableBase(t, crashBaseN)
			batches := durableBatches(crashBaseN)
			applyAll(t, want, batches[:len(batches)-1])
			if point == "wal-append" {
				// The final batch's WAL append completed before the kill, so
				// recovery must include it even though the caller never got
				// the acknowledgement.
				applyAll(t, want, batches[len(batches)-1:])
			}

			got, err := OpenDurable(DurableOptions{Dir: dir})
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			assertSameGraph(t, want, got)

			// Recovery settled: a second open replays nothing and matches.
			again, err := OpenDurable(DurableOptions{Dir: dir})
			if err != nil {
				t.Fatalf("second recovery failed: %v", err)
			}
			if st := again.DurabilityStats(); st.RecoveredBatches != 0 {
				t.Fatalf("second open replayed %d batches", st.RecoveredBatches)
			}
			assertSameGraph(t, want, again)
		})
	}
}

// durableQueries is a small fixed query set over the durable base graph:
// plain, keyword-constrained and threshold queries around a few vertices.
func durableQueries() []Query {
	var qs []Query
	for _, v := range []int32{0, 3, 12, 25, 41} {
		qs = append(qs,
			Query{VertexID: v, K: 2},
			Query{VertexID: v, K: 3},
			Query{VertexID: v, K: 2, Keywords: []string{"common", "rare", "fresh"}},
			Query{VertexID: v, K: 2, Mode: ModeThreshold, Theta: 0.5})
	}
	return qs
}

// answersOf runs qs on s; a failed query records its error text.
func answersOf(s *Snapshot, qs []Query) []string {
	out := make([]string, len(qs))
	for i, q := range qs {
		res, err := s.Search(context.Background(), q)
		out[i] = fmt.Sprintf("%+v %v", res.Communities, err)
	}
	return out
}

// TestDurableWritesLeaveMappedSnapshotUntouched: after a clean boot the base
// graph and the boot snapshot read straight from the mapped snapshot.acqm,
// while writes go to the master's heap overlay. Stripping every edge of
// several vertices and churning keywords must leave the file byte for byte
// as it was and the held boot snapshot answering as before, and the written
// graph must answer like a text-booted graph given the same ops.
func TestDurableWritesLeaveMappedSnapshotUntouched(t *testing.T) {
	const n = 60
	dir := t.TempDir()
	G := buildDurableBase(t, n)
	var text bytes.Buffer
	if err := G.Save(&text); err != nil {
		t.Fatal(err)
	}
	if err := G.EnableDurability(DurableOptions{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, snapshotFile)
	fileBefore, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}

	got, err := OpenDurable(DurableOptions{Dir: dir, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !got.dur.mapped.ZeroCopy() {
		t.Log("mmap unavailable: the boot base is a heap copy of the file")
	}
	got.SetResultCacheSize(-1) // every answer below is computed, never cached
	boot := got.Snapshot()
	qs := durableQueries()
	bootAnswers := answersOf(boot, qs)

	ref, err := Load(bytes.NewReader(text.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ref.BuildIndex()
	apply := func(ops []Mutation) {
		t.Helper()
		for i, res := range got.ApplyMutations(ops) {
			if res.Err != nil || !res.Changed {
				t.Fatalf("op %+v not effective: %v", ops[i], res.Err)
			}
		}
		ref.ApplyMutations(ops)
	}
	for _, v := range []int32{3, 10, 11, 40} {
		var strip []Mutation
		for _, u := range Neighbors(got, v) {
			strip = append(strip, Mutation{Op: OpRemoveEdge, U: v, V: u})
		}
		apply(strip)
		if len(Neighbors(got, v)) != 0 {
			t.Fatalf("vertex %d kept edges", v)
		}
	}
	apply([]Mutation{
		{Op: OpAddKeyword, Vertex: 0, Keyword: "fresh"},
		{Op: OpAddKeyword, Vertex: 12, Keyword: "fresh"},
		{Op: OpRemoveKeyword, Vertex: 0, Keyword: "rare"},
		{Op: OpRemoveKeyword, Vertex: 25, Keyword: "common"},
		{Op: OpInsertEdge, U: 3, V: 41},
	})

	if fileAfter, err := os.ReadFile(snapPath); err != nil || !bytes.Equal(fileBefore, fileAfter) {
		t.Fatalf("writes changed snapshot.acqm (err %v)", err)
	}
	if !reflect.DeepEqual(answersOf(boot, qs), bootAnswers) {
		t.Fatal("the held boot snapshot answers differently after the writes")
	}
	orig, err := LoadSnapshot(bytes.NewReader(fileBefore))
	if err != nil {
		t.Fatal(err)
	}
	bv, ov := boot.v.g, orig.view().g
	for v := 0; v < n; v++ {
		id := graph.VertexID(v)
		if !reflect.DeepEqual(bv.Neighbors(id), ov.Neighbors(id)) || !reflect.DeepEqual(bv.Keywords(id), ov.Keywords(id)) {
			t.Fatalf("the boot snapshot's rows of vertex %d moved", v)
		}
	}
	assertSameGraph(t, ref, got)
	if !reflect.DeepEqual(answersOf(got.Snapshot(), qs), answersOf(ref.Snapshot(), qs)) {
		t.Fatal("the written graph answers differently from a text-booted graph given the same ops")
	}
	if reflect.DeepEqual(answersOf(got.Snapshot(), qs), bootAnswers) {
		t.Fatal("the writes changed no answer; the query set does not see them")
	}
}
