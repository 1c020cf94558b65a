package acq_test

// Tests for Snapshot.SearchJSON, the memoised wire form of a search answer:
// its bytes are json.Marshal of what Search answers, they survive whatever a
// caller does to a Result Search handed out, racing first hits share one
// encoding, and a hit costs the same whatever the answer's size.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"

	acq "github.com/acq-search/acq"
)

// fallbackGraph builds a triangle t0..t2 and a cycle c0..c{n-1} in which no
// two vertices share a keyword, so a k=2 query falls back to the plain 2-ĉore:
// three members from the triangle, n from the cycle.
func fallbackGraph(t testing.TB, n int) *acq.Graph {
	t.Helper()
	b := acq.NewBuilder()
	for _, ring := range []struct {
		name string
		size int
	}{{"t", 3}, {"c", n}} {
		for i := 0; i < ring.size; i++ {
			b.AddVertex(fmt.Sprintf("%s%d", ring.name, i), fmt.Sprintf("%sw%d", ring.name, i))
		}
		for i := 0; i < ring.size; i++ {
			b.AddEdgeByLabel(fmt.Sprintf("%s%d", ring.name, i), fmt.Sprintf("%s%d", ring.name, (i+1)%ring.size))
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g.BuildIndex()
	return g
}

// mustFallback fails t unless q answers on s with a fallback of want members.
func mustFallback(t *testing.T, s *acq.Snapshot, q acq.Query, want int) {
	t.Helper()
	res, err := s.Search(bgCtx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fallback || len(res.Communities) != 1 || len(res.Communities[0].Members) != want {
		t.Fatalf("%s: want a fallback of %d members, got %+v", q.Vertex, want, res)
	}
}

// marshalSearch is the encoding SearchJSON must return for q: json.Marshal of
// an uncached evaluation.
func marshalSearch(t *testing.T, g *acq.Graph, q acq.Query) []byte {
	t.Helper()
	res, err := g.Search(bgCtx, q)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestSearchJSONOwnership: a Result from Search is the caller's own. Cutting
// its members and overwriting its label leaves the memoised bytes as they
// were, whether the encoding was made before the mutation or after it, and
// a later Search still answers the original.
func TestSearchJSONOwnership(t *testing.T) {
	g := servingTestGraph(t)
	snap := g.Snapshot()
	q := acq.Query{Vertex: "c0v1", K: 3}
	want := marshalSearch(t, g, q)

	mutate := func() {
		res, err := snap.Search(bgCtx, q)
		if err != nil {
			t.Fatal(err)
		}
		c := &res.Communities[0]
		c.Members = c.Members[:1]
		c.Label[0] = "overwritten"
		c.MemberIDs[0] = -1
	}
	mutate() // miss: the entry holds no encoding yet
	got, res, err := snap.SearchJSON(bgCtx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding after a mutated miss:\n got %s\nwant %s", got, want)
	}
	if res.Communities != nil || res.LabelSize != 2 || !res.Exact {
		t.Fatalf("SearchJSON's Result = %+v, want the scalars of a label-2 exact answer", res)
	}
	mutate() // hit: the encoding exists
	if got, _, _ = snap.SearchJSON(bgCtx, q); !bytes.Equal(got, want) {
		t.Fatalf("encoding after a mutated hit:\n got %s\nwant %s", got, want)
	}
	again, err := snap.Search(bgCtx, q)
	if err != nil {
		t.Fatal(err)
	}
	if enc, _ := json.Marshal(again); !bytes.Equal(enc, want) {
		t.Fatalf("Search after two mutated copies:\n got %s\nwant %s", enc, want)
	}
}

// TestSearchJSONRacingFirstEncoding: goroutines racing on the first encoded
// hit of one entry all get the same bytes, and only one encoding exists.
func TestSearchJSONRacingFirstEncoding(t *testing.T) {
	g := fallbackGraph(t, 500)
	snap := g.Snapshot()
	q := acq.Query{Vertex: "c7", K: 2}
	mustFallback(t, snap, q, 500) // the entry exists, its encoding does not
	want := marshalSearch(t, g, q)

	const readers = 16
	got := make([][]byte, readers)
	errs := make([]error, readers)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			got[i], _, errs[i] = snap.SearchJSON(bgCtx, q)
		}()
	}
	start.Done()
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("reader %d: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], want) {
			t.Fatalf("reader %d got different bytes (%d vs %d)", i, len(got[i]), len(want))
		}
		if &got[i][0] != &got[0][0] {
			t.Fatalf("reader %d got its own encoding, not the memoised one", i)
		}
	}
}

// TestSearchJSONHitCostIsFlat: an encoded cache hit allocates the same
// whatever the answer's size. The cycle's fallback has 4000 members (some
// 60 KB of JSON), the triangle's three; their hits allocate alike.
func TestSearchJSONHitCostIsFlat(t *testing.T) {
	const members = 4000
	g := fallbackGraph(t, members)
	snap := g.Snapshot()
	small := acq.Query{Vertex: "t0", K: 2}
	large := acq.Query{Vertex: "c0", K: 2}
	mustFallback(t, snap, small, 3)
	mustFallback(t, snap, large, members)

	perHit := func(q acq.Query) (allocs, allocated float64) {
		hit := func() {
			if _, _, err := snap.SearchJSON(bgCtx, q); err != nil {
				t.Fatal(err)
			}
		}
		hit() // encode once; every call below is a hit on the memoised bytes
		allocs = testing.AllocsPerRun(200, hit)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 200; i++ {
			hit()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / 200
	}
	smallAllocs, smallBytes := perHit(small)
	largeAllocs, largeBytes := perHit(large)
	t.Logf("encoded hit: %d-member answer %.0f allocs %.0f B, %d-member answer %.0f allocs %.0f B",
		3, smallAllocs, smallBytes, members, largeAllocs, largeBytes)
	if largeAllocs != smallAllocs || largeBytes > smallBytes+64 {
		t.Fatalf("a %d-member hit costs %.0f allocs / %.0f B, a 3-member hit %.0f / %.0f B: the hit cost grows with the answer",
			members, largeAllocs, largeBytes, smallAllocs, smallBytes)
	}
}
