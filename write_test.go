package acq_test

// Differential acceptance tests for the LSM-style write path: serving reads
// through a delta overlay must be byte-identical to a compact-then-query
// baseline for every query mode at workers 1, 2 and 8, including reads that
// overlap a background compaction. The baseline graph runs with
// SetCompactionThreshold(-1) — the legacy republish-per-write path, which
// freezes the full graph on every effective mutation — so the two paths share
// no publication machinery beyond the master itself.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	acq "github.com/acq-search/acq"
)

// writeStream generates a deterministic mixed mutation stream: keyword churn
// (including brand-new words, exercising the dictionary-clone path), edge
// inserts and removes (exercising tree-structure repairs and the intra-node
// fast path), and removals of previously inserted edges.
func writeStream(seed int64, n int, steps int) []acq.Mutation {
	rng := rand.New(rand.NewSource(seed))
	var ops []acq.Mutation
	var inserted [][2]int32
	for i := 0; i < steps; i++ {
		v := int32(rng.Intn(n))
		switch r := rng.Intn(10); {
		case r < 4:
			ops = append(ops, acq.Mutation{Op: acq.OpAddKeyword, Vertex: v,
				Keyword: fmt.Sprintf("delta-kw-%d", rng.Intn(9))})
		case r < 6:
			ops = append(ops, acq.Mutation{Op: acq.OpRemoveKeyword, Vertex: v,
				Keyword: fmt.Sprintf("delta-kw-%d", rng.Intn(9))})
		case r < 8:
			u := int32(rng.Intn(n))
			ops = append(ops, acq.Mutation{Op: acq.OpInsertEdge, U: u, V: v})
			inserted = append(inserted, [2]int32{u, v})
		default:
			if len(inserted) > 0 && rng.Intn(2) == 0 {
				e := inserted[rng.Intn(len(inserted))]
				ops = append(ops, acq.Mutation{Op: acq.OpRemoveEdge, U: e[0], V: e[1]})
			} else {
				u := int32(rng.Intn(n))
				ops = append(ops, acq.Mutation{Op: acq.OpRemoveEdge, U: u, V: v})
			}
		}
	}
	return ops
}

// applyStream feeds the stream to a serving graph, alternating between
// single-op mutators (with interleaved Snapshot acquisitions so publications
// are eager, not coalesced) and ApplyMutations batches.
func applyStream(g *acq.Graph, ops []acq.Mutation) {
	i := 0
	for i < len(ops) {
		if i%3 == 0 {
			end := i + 7
			if end > len(ops) {
				end = len(ops)
			}
			g.ApplyMutations(ops[i:end])
			i = end
		} else {
			op := ops[i]
			switch op.Op {
			case acq.OpInsertEdge:
				g.InsertEdge(op.U, op.V)
			case acq.OpRemoveEdge:
				g.RemoveEdge(op.U, op.V)
			case acq.OpAddKeyword:
				g.AddKeyword(op.Vertex, op.Keyword)
			case acq.OpRemoveKeyword:
				g.RemoveKeyword(op.Vertex, op.Keyword)
			}
			i++
		}
		g.Snapshot() // consume so the next effective mutation publishes
	}
}

// servingGraph builds an indexed, cache-disabled serving graph of the dblp
// preset at the given worker count.
func servingGraph(t *testing.T, workers int) *acq.Graph {
	t.Helper()
	g, err := acq.Synthetic("dblp", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	g.SetResultCacheSize(-1)
	acq.ForceBuildWorkers(t, workers)
	g.BuildIndex()
	g.Snapshot()
	return g
}

// requireSameAnswers compares every mode/algorithm answer of two snapshots.
func requireSameAnswers(t *testing.T, label string, queries []int32, kwOf func(int32) []string, a, b *acq.Snapshot) {
	t.Helper()
	for _, qv := range queries {
		for _, q := range diffQueries(qv, kwOf(qv)) {
			ra, errA := a.Search(bgCtx, q)
			rb, errB := b.Search(bgCtx, q)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("%s: q=%d mode=%s algo=%s: error mismatch %v vs %v", label, qv, q.Mode, q.Algorithm, errA, errB)
			}
			if errA != nil {
				continue
			}
			if !reflect.DeepEqual(ra, rb) {
				t.Fatalf("%s: q=%d mode=%s algo=%s: answers diverged:\n%+v\nvs\n%+v", label, qv, q.Mode, q.Algorithm, ra, rb)
			}
		}
	}
}

// TestOverlayVsCompactedAllModes: after an identical mutation stream, the
// delta-overlay snapshot, the post-compaction snapshot and the
// republish-per-write baseline snapshot answer every query mode identically
// at workers 1, 2 and 8.
func TestOverlayVsCompactedAllModes(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			delta := servingGraph(t, workers)
			baseline := servingGraph(t, workers)
			baseline.SetCompactionThreshold(-1)

			ops := writeStream(42, delta.NumVertices(), 300)
			applyStream(delta, ops)
			applyStream(baseline, ops)

			ws := delta.WriteStats()
			if ws.DeltaPublishes == 0 {
				t.Fatal("delta graph never published an overlay snapshot")
			}
			if bs := baseline.WriteStats(); bs.DeltaPublishes != 0 {
				t.Fatalf("baseline published %d overlay snapshots; want 0", bs.DeltaPublishes)
			}
			if delta.Version() != baseline.Version() {
				t.Fatalf("streams diverged: version %d vs %d", delta.Version(), baseline.Version())
			}

			var queries []int32
			for v := int32(0); int(v) < delta.NumVertices() && len(queries) < 4; v++ {
				if c, _ := delta.CoreNumber(v); c >= 4 {
					queries = append(queries, v)
				}
			}
			if len(queries) == 0 {
				t.Fatal("no queryable vertices")
			}

			ovSnap := delta.Snapshot()
			base := baseline.Snapshot()
			requireSameAnswers(t, "overlay-vs-baseline", queries, delta.Keywords, ovSnap, base)

			// Fold the overlay into a new frozen base and compare again; the
			// pinned overlay snapshot must also keep answering identically.
			delta.Compact()
			if got := delta.WriteStats(); got.Compactions == 0 {
				t.Fatal("Compact did not run")
			} else if got.DeltaOps != 0 {
				t.Fatalf("compaction left %d delta ops", got.DeltaOps)
			}
			compacted := delta.Snapshot()
			if compacted.Version() != ovSnap.Version() {
				t.Fatalf("compaction changed the version: %d vs %d", compacted.Version(), ovSnap.Version())
			}
			requireSameAnswers(t, "compacted-vs-baseline", queries, delta.Keywords, compacted, base)
			requireSameAnswers(t, "pinned-overlay-vs-compacted", queries, delta.Keywords, ovSnap, compacted)

			// And the write path keeps working after the fold.
			tail := writeStream(43, delta.NumVertices(), 60)
			applyStream(delta, tail)
			applyStream(baseline, tail)
			requireSameAnswers(t, "post-compaction-tail", queries, delta.Keywords, delta.Snapshot(), baseline.Snapshot())
		})
	}
}

// TestMidCompactionReads hammers the write path with a small compaction
// threshold while concurrent readers pin snapshots and verify that repeated
// searches against one snapshot are self-consistent. Run under -race this is
// the mid-compaction safety proof: capture, fold and install all overlap
// concurrent reads.
func TestMidCompactionReads(t *testing.T) {
	g := servingGraph(t, 2)
	g.SetCompactionThreshold(24)
	ops := writeStream(7, g.NumVertices(), 600)

	var qv int32 = -1
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		if c, _ := g.CoreNumber(v); c >= 3 {
			qv = v
			break
		}
	}
	if qv < 0 {
		t.Fatal("no queryable vertex")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			q := acq.Query{VertexID: qv, K: 2 + r%2, Mode: acq.ModeCore}
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := g.Snapshot()
				r1, err1 := s.Search(bgCtx, q)
				r2, err2 := s.Search(bgCtx, q)
				if (err1 == nil) != (err2 == nil) || (err1 == nil && !reflect.DeepEqual(r1, r2)) {
					t.Errorf("snapshot v%d not self-consistent: %v/%v", s.Version(), err1, err2)
					return
				}
				s.Stats()
			}
		}(r)
	}
	applyStream(g, ops)
	close(stop)
	wg.Wait()
	g.Compact() // drain any in-flight background fold
	if ws := g.WriteStats(); ws.Compactions == 0 {
		t.Fatalf("no compaction ran over %d mutations at threshold 24", len(ops))
	}
}

// TestAutoCompactionTriggers: crossing the threshold schedules a background
// fold without any explicit Compact call.
func TestAutoCompactionTriggers(t *testing.T) {
	g := servingGraph(t, 1)
	g.SetCompactionThreshold(10)
	for i := 0; i < 40; i++ {
		g.AddKeyword(int32(i%g.NumVertices()), fmt.Sprintf("auto-kw-%d", i))
		g.Snapshot()
	}
	deadline := time.Now().Add(5 * time.Second)
	for g.WriteStats().Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background compaction never ran")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestApplyMutationsSemantics pins the batch contract: per-entry outcomes,
// one version bump per effective entry, invalid entries reported in place,
// and at most one publication per batch.
func TestApplyMutationsSemantics(t *testing.T) {
	g := servingGraph(t, 1)
	v0 := g.Version()
	p0 := g.WriteStats().FullPublishes + g.WriteStats().DeltaPublishes

	res := g.ApplyMutations([]acq.Mutation{
		{Op: acq.OpInsertEdge, U: 0, V: 1},                        // effective unless preset edge
		{Op: acq.OpAddKeyword, Vertex: 2, Keyword: "batch-kw"},    // effective
		{Op: acq.OpAddKeyword, Vertex: 2, Keyword: "batch-kw"},    // duplicate: no-op
		{Op: acq.OpRemoveEdge, U: 0, V: int32(g.NumVertices())},   // out of range
		{Op: "frobnicate", Vertex: 1},                             // unknown op
		{Op: acq.OpRemoveKeyword, Vertex: 2, Keyword: "batch-kw"}, // effective
	})
	if len(res) != 6 {
		t.Fatalf("got %d results", len(res))
	}
	if !res[1].Changed || res[1].Err != nil {
		t.Fatalf("add: %+v", res[1])
	}
	if res[2].Changed || res[2].Err != nil {
		t.Fatalf("duplicate add: %+v", res[2])
	}
	if !errors.Is(res[3].Err, acq.ErrVertexNotFound) {
		t.Fatalf("out-of-range: %+v", res[3])
	}
	if !errors.Is(res[4].Err, acq.ErrBadMutation) {
		t.Fatalf("unknown op: %+v", res[4])
	}
	if !res[5].Changed || res[5].Err != nil {
		t.Fatalf("remove keyword: %+v", res[5])
	}
	effective := 0
	for _, r := range res {
		if r.Changed {
			effective++
		}
	}
	if got := g.Version() - v0; got != uint64(effective) {
		t.Fatalf("version advanced by %d for %d effective entries", got, effective)
	}
	ws := g.WriteStats()
	if pubs := ws.FullPublishes + ws.DeltaPublishes - p0; pubs != 1 {
		t.Fatalf("batch triggered %d publications; want 1", pubs)
	}
	if snap := g.PeekSnapshot(); snap.Version() != g.Version() {
		t.Fatalf("batch publication lagging: snapshot v%d, graph v%d", snap.Version(), g.Version())
	}
}

// TestLegacyRepublishMode: SetCompactionThreshold(-1) restores the
// freeze-per-mutation behaviour, and switching back re-enables the overlay
// at the next publication.
func TestLegacyRepublishMode(t *testing.T) {
	g := servingGraph(t, 1)
	g.SetCompactionThreshold(-1)
	g.Snapshot()
	f0 := g.WriteStats().FullPublishes
	for i := 0; i < 5; i++ {
		g.AddKeyword(0, fmt.Sprintf("legacy-%d", i))
		g.Snapshot()
	}
	ws := g.WriteStats()
	if ws.FullPublishes-f0 != 5 || ws.DeltaPublishes != 0 {
		t.Fatalf("legacy mode published full=%d delta=%d; want 5/0", ws.FullPublishes-f0, ws.DeltaPublishes)
	}
	if ws.CompactionThreshold >= 0 {
		t.Fatalf("legacy mode reports threshold %d", ws.CompactionThreshold)
	}

	g.SetCompactionThreshold(0)
	g.AddKeyword(0, "back-to-delta-seed")
	g.Snapshot() // full publish: re-initialises tracking
	g.AddKeyword(0, "back-to-delta")
	g.Snapshot()
	if ws := g.WriteStats(); ws.DeltaPublishes == 0 {
		t.Fatal("overlay publication did not resume after re-enabling")
	}
}

// TestEndServingDropsOverlay: leaving serving mode releases the overlay
// tracking state, and mutations afterwards cost no delta bookkeeping.
func TestEndServingDropsOverlay(t *testing.T) {
	g := servingGraph(t, 1)
	g.AddKeyword(0, "pre-end")
	g.Snapshot()
	g.EndServing()
	if ws := g.WriteStats(); ws.DeltaOps != 0 || ws.DeltaBytes != 0 {
		t.Fatalf("EndServing left delta state: %+v", ws)
	}
	g.AddKeyword(0, "while-idle")
	if ws := g.WriteStats(); ws.DeltaOps != 0 {
		t.Fatal("idle mutation was tracked")
	}
	// Re-entering serving mode full-publishes and resumes delta tracking.
	g.Snapshot()
	g.AddKeyword(0, "back-serving")
	g.Snapshot()
	if ws := g.WriteStats(); ws.DeltaOps != 1 || ws.DeltaPublishes == 0 {
		t.Fatalf("tracking did not resume: %+v", ws)
	}
}

// TestSingleOpMutatorsRejectOutOfRange: the four single-op mutators are
// one-entry ApplyMutations batches, so a vertex ID outside the graph reports
// false — as ApplyMutations reports ErrVertexNotFound — instead of panicking,
// and leaves the version where it was.
func TestSingleOpMutatorsRejectOutOfRange(t *testing.T) {
	b := acq.NewBuilder()
	b.AddVertex("a", "x")
	b.AddVertex("b", "x")
	b.AddEdge(0, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g.BuildIndex()
	g.Snapshot()
	v0 := g.Version()
	for name, op := range map[string]func() bool{
		"InsertEdge":    func() bool { return g.InsertEdge(0, 7) },
		"InsertEdge<0":  func() bool { return g.InsertEdge(-1, 1) },
		"RemoveEdge":    func() bool { return g.RemoveEdge(2, 0) },
		"AddKeyword":    func() bool { return g.AddKeyword(7, "y") },
		"RemoveKeyword": func() bool { return g.RemoveKeyword(-3, "x") },
	} {
		if op() {
			t.Errorf("%s with an out-of-range vertex reported a change", name)
		}
	}
	if g.Version() != v0 {
		t.Fatalf("out-of-range single ops moved the version %d -> %d", v0, g.Version())
	}
	// In range, a duplicate is a no-op and a removal is effective.
	if g.InsertEdge(0, 1) || !g.RemoveEdge(0, 1) || g.Version() != v0+1 {
		t.Fatalf("in-range single ops: version %d, want %d", g.Version(), v0+1)
	}
}
