package acq_test

// Regression tests for the snapshot-isolated serving path: lock-free reads
// through Graph.Snapshot while edge and keyword updates run concurrently.
// These tests are the reason CI runs `go test -race` — before snapshots,
// nothing exercised read-during-maintain at all.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	acq "github.com/acq-search/acq"
)

// servingTestGraph builds 4 cliques of 6 vertices bridged into a ring, every
// vertex carrying a per-clique keyword and a shared one — enough structure
// that k=3 queries succeed and inter-clique edge updates actually move core
// numbers around.
func servingTestGraph(t testing.TB) *acq.Graph {
	t.Helper()
	b := acq.NewBuilder()
	const cliques, size = 4, 6
	for c := 0; c < cliques; c++ {
		for v := 0; v < size; v++ {
			b.AddVertex(fmt.Sprintf("c%dv%d", c, v), fmt.Sprintf("kw%d", c), "common")
		}
	}
	for c := 0; c < cliques; c++ {
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				b.AddEdgeByLabel(fmt.Sprintf("c%dv%d", c, i), fmt.Sprintf("c%dv%d", c, j))
			}
		}
		b.AddEdgeByLabel(fmt.Sprintf("c%dv0", c), fmt.Sprintf("c%dv0", (c+1)%cliques))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g.BuildIndex()
	return g
}

// TestSnapshotIsolation checks the core contract: a pinned snapshot is
// frozen at its version while the graph moves on.
func TestSnapshotIsolation(t *testing.T) {
	g := servingTestGraph(t)
	s0 := g.Snapshot()
	if s0 != g.Snapshot() {
		t.Fatal("unchanged graph should return the same snapshot")
	}
	edges0 := s0.NumEdges()
	v0 := s0.Version()

	u, _ := g.VertexID("c0v1")
	v, _ := g.VertexID("c1v1")
	if !g.InsertEdge(u, v) {
		t.Fatal("insert failed")
	}
	g.AddKeyword(u, "fresh")

	if s0.NumEdges() != edges0 || s0.Version() != v0 {
		t.Fatal("pinned snapshot changed under mutation")
	}
	if got := s0.Keywords(u); len(got) != 2 {
		t.Fatalf("pinned snapshot sees new keyword: %v", got)
	}
	s1 := g.Snapshot()
	if s1 == s0 {
		t.Fatal("mutation did not publish a new snapshot")
	}
	if s1.NumEdges() != edges0+1 || s1.Version() != v0+2 {
		t.Fatalf("new snapshot: edges %d version %d, want %d/%d",
			s1.NumEdges(), s1.Version(), edges0+1, v0+2)
	}
	if got := s1.Keywords(u); len(got) != 3 {
		t.Fatalf("new snapshot misses keyword: %v", got)
	}
	// Ineffective mutations must not republish.
	g.InsertEdge(u, v)
	if g.Snapshot() != s1 {
		t.Fatal("no-op mutation republished a snapshot")
	}
}

// TestEndServing checks the exit from serving mode: held snapshots stay
// valid and frozen, mutations go back to in-place maintenance, and the next
// Snapshot call re-activates publication at the current version.
func TestEndServing(t *testing.T) {
	g := servingTestGraph(t)
	s := g.Snapshot()
	edges := s.NumEdges()
	g.EndServing()

	u, _ := g.VertexID("c0v1")
	v, _ := g.VertexID("c2v1")
	if !g.InsertEdge(u, v) {
		t.Fatal("insert failed")
	}
	if s.NumEdges() != edges {
		t.Fatal("released snapshot mutated")
	}
	s2 := g.Snapshot()
	if s2 == s || s2.NumEdges() != edges+1 || s2.Version() != g.Version() {
		t.Fatalf("re-activated snapshot wrong: edges %d version %d (graph %d)",
			s2.NumEdges(), s2.Version(), g.Version())
	}
}

// TestWriteBurstCoalescing pins down the copy-on-write amortisation: the
// first mutation after a snapshot has been consumed publishes eagerly, but
// a burst of further writes with no reader in between shares one deferred
// republication, observed in full by the next Snapshot call.
func TestWriteBurstCoalescing(t *testing.T) {
	g := servingTestGraph(t)
	s0 := g.Snapshot()
	v0 := s0.Version()
	u, _ := g.VertexID("c0v1")
	v, _ := g.VertexID("c2v1")

	if !g.InsertEdge(u, v) { // eagerly published: s0 was handed to a reader
		t.Fatal("insert failed")
	}
	g.AddKeyword(u, "burst1") // no reader since the last publish: coalesced
	g.AddKeyword(u, "burst2") // coalesced

	s1 := g.Snapshot()
	if s1.Version() != v0+3 {
		t.Fatalf("version = %d, want %d (all three writes visible)", s1.Version(), v0+3)
	}
	if kws := s1.Keywords(u); len(kws) != 4 { // kw0, common, burst1, burst2
		t.Fatalf("coalesced keywords missing: %v", kws)
	}
	if g.Snapshot() != s1 {
		t.Fatal("clean graph republished")
	}
}

// TestConcurrentSearchDuringMaintenance is the acceptance-criteria race
// test: 10 goroutines hammer Search through the snapshot path while the
// main goroutine applies 160 interleaved edge and keyword updates. Run
// with -race. Reads never lock: they resolve the current snapshot via an
// atomic pointer load and query the immutable copy.
func TestConcurrentSearchDuringMaintenance(t *testing.T) {
	g := servingTestGraph(t)
	const readers = 10
	const updates = 160

	var (
		wg       sync.WaitGroup
		stop     = make(chan struct{})
		searches atomic.Uint64
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				label := fmt.Sprintf("c%dv%d", (r+i)%4, i%6)
				snap := g.Snapshot()
				res, err := snap.Search(bgCtx, acq.Query{Vertex: label, K: 3})
				if err != nil {
					// Structural updates may legitimately strand a vertex
					// below k; anything else is a bug.
					if !isAcceptable(err) {
						t.Errorf("reader %d: %v", r, err)
						return
					}
					continue
				}
				// The query vertex must be a member of every community.
				id, _ := snap.VertexID(label)
				for _, c := range res.Communities {
					if !containsID(c.MemberIDs, id) {
						t.Errorf("reader %d: community without query vertex %s", r, label)
						return
					}
				}
				searches.Add(1)
			}
		}(r)
	}

	// Interleave edge toggles (inter-clique bridges, which shift core
	// numbers) with keyword churn, all through the maintained index. Pace
	// the writer against the readers: each round of four updates waits for
	// fresh searches to land, so updates genuinely interleave with reads
	// instead of finishing before the readers are scheduled.
	for i := 0; i < updates/4; i++ {
		u, _ := g.VertexID(fmt.Sprintf("c%dv1", i%4))
		v, _ := g.VertexID(fmt.Sprintf("c%dv1", (i+1)%4))
		if !g.InsertEdge(u, v) {
			t.Fatalf("update %d: insert was a no-op", i)
		}
		g.AddKeyword(u, fmt.Sprintf("tag%d", i%5))
		if !g.RemoveEdge(u, v) {
			t.Fatalf("update %d: remove was a no-op", i)
		}
		g.RemoveKeyword(u, fmt.Sprintf("tag%d", i%5))
		for target := uint64(i + 1); searches.Load() < target && !t.Failed(); {
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()

	if searches.Load() == 0 {
		t.Fatal("readers completed no searches")
	}
	if v := g.Version(); v < updates {
		t.Fatalf("version = %d, want ≥ %d", v, updates)
	}
	// The maintained index must still be intact: a graph rebuilt from the
	// final state answers the same.
	var text bytes.Buffer
	if err := g.Save(&text); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := acq.Load(&text)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt.BuildIndex()
	want, err := rebuilt.Search(bgCtx, acq.Query{Vertex: "c0v0", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.Snapshot().Search(bgCtx, acq.Query{Vertex: "c0v0", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Communities, got.Communities) {
		t.Fatalf("post-churn mismatch: rebuilt %+v maintained %+v", want, got)
	}
}

// TestDirectReadsDuringWrites: direct reads (Search, NumEdges, Label, Stats)
// read the latest publication, publishing one when writes landed since, and
// never the writer's master — so they may overlap with mutators, with
// background compactions (which rebase the master) and with EndServing.
// Run with -race.
func TestDirectReadsDuringWrites(t *testing.T) {
	g := servingGraph(t, 2)
	g.SetCompactionThreshold(16)
	n := g.NumVertices()
	ops := writeStream(11, n, 300)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := int32((97*r + i) % n)
				if _, err := g.Search(bgCtx, acq.Query{VertexID: v, K: 2}); err != nil && !isAcceptable(err) {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if g.NumEdges() <= 0 || g.Label(v) != "" || g.Stats().Vertices != n {
					t.Errorf("reader %d: inconsistent direct reads", r)
					return
				}
			}
		}(r)
	}
	for i, op := range ops {
		g.ApplyMutations([]acq.Mutation{op})
		if i == len(ops)/2 {
			g.EndServing()
		}
	}
	close(stop)
	wg.Wait()
	g.Compact()
	if g.WriteStats().Compactions == 0 {
		t.Fatalf("no compaction ran over %d mutations at threshold 16", len(ops))
	}
}

// TestSearchBatchPinsOneSnapshot verifies the batch contract: a batch
// started on a snapshot is untouched by concurrent mutation — rerunning the
// same batch on the same snapshot after heavy churn gives identical results.
func TestSearchBatchPinsOneSnapshot(t *testing.T) {
	g := servingTestGraph(t)
	var queries []acq.Query
	for c := 0; c < 4; c++ {
		for v := 0; v < 6; v++ {
			queries = append(queries, acq.Query{Vertex: fmt.Sprintf("c%dv%d", c, v), K: 3})
		}
	}
	snap := g.Snapshot()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 30; i++ {
			u, _ := g.VertexID(fmt.Sprintf("c%dv2", i%4))
			v, _ := g.VertexID(fmt.Sprintf("c%dv2", (i+2)%4))
			g.InsertEdge(u, v)
			g.RemoveEdge(u, v)
		}
	}()
	first := snap.SearchBatch(bgCtx, queries, acq.BatchOptions{Workers: 4})
	<-done
	second := snap.SearchBatch(bgCtx, queries, acq.BatchOptions{Workers: 4})

	if len(first) != len(queries) {
		t.Fatalf("batch returned %d results", len(first))
	}
	for i := range first {
		if (first[i].Err == nil) != (second[i].Err == nil) {
			t.Fatalf("query %d: error mismatch across reruns", i)
		}
		if !reflect.DeepEqual(first[i].Result, second[i].Result) {
			t.Fatalf("query %d: pinned batch results differ across reruns", i)
		}
	}

	// Zero-query batch: no workers, non-nil empty result.
	if out := g.SearchBatch(bgCtx, nil, acq.BatchOptions{Workers: 8}); out == nil || len(out) != 0 {
		t.Fatalf("zero-query batch = %#v", out)
	}
}

// TestSnapshotResultCache checks memoisation and key normalisation:
// equivalent queries (keyword order, explicit default algorithm) share one
// cache entry.
func TestSnapshotResultCache(t *testing.T) {
	g := servingTestGraph(t)
	s := g.Snapshot()
	h0, m0 := g.ResultCacheStats()

	q1 := acq.Query{Vertex: "c0v0", K: 3, Keywords: []string{"common", "kw0"}}
	q2 := acq.Query{Vertex: "c0v0", K: 3, Keywords: []string{"kw0", "common"}, Algorithm: acq.AlgoDec}
	r1, err := s.Search(bgCtx, q1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Search(bgCtx, q2)
	if err != nil {
		t.Fatal(err)
	}
	h1, m1 := g.ResultCacheStats()
	if m1-m0 != 1 || h1-h0 != 1 {
		t.Fatalf("misses %d hits %d, want 1 miss + 1 hit (normalised key)", m1-m0, h1-h0)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("cache returned a different result")
	}
	// Distinct queries must not collide.
	if _, err := s.Search(bgCtx, acq.Query{Vertex: "c0v0", K: 4, Keywords: []string{"common"}}); err != nil {
		t.Fatal(err)
	}
	_, m2 := g.ResultCacheStats()
	if m2-m1 != 1 {
		t.Fatalf("distinct query did not miss (misses %d)", m2-m1)
	}

	// Callers own their Results: mutating one must not corrupt the cache.
	r1.Communities[0].Members[0] = "vandalised"
	r1.Communities[0].MemberIDs = r1.Communities[0].MemberIDs[:1]
	r3, err := s.Search(bgCtx, q1)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Communities[0].Members[0] == "vandalised" || len(r3.Communities[0].MemberIDs) == 1 {
		t.Fatal("mutating a returned Result corrupted the cache")
	}
}

func isAcceptable(err error) bool {
	return errors.Is(err, acq.ErrNoKCore) || errors.Is(err, acq.ErrVertexNotFound)
}

func containsID(ids []int32, id int32) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
