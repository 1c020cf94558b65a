package acq_test

// Differential acceptance tests for the frozen CSR read path: every query
// mode and algorithm must return byte-identical results on the mutable
// master (direct Graph.Search) and on the frozen snapshot (Snapshot.Search),
// with the index built and the snapshot frozen at worker counts 1, 2 and 8.
// The result cache is disabled so equality is structural, not an artifact of
// cache cloning.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	acq "github.com/acq-search/acq"
)

// diffQueries enumerates the mode × algorithm matrix evaluated per vertex.
func diffQueries(qv int32, keywords []string) []acq.Query {
	short := keywords
	if len(short) > 2 {
		short = short[:2]
	}
	qs := []acq.Query{
		{VertexID: qv, K: 3, Mode: acq.ModeCore},
		{VertexID: qv, K: 3, Mode: acq.ModeCore, DisableInvertedLists: true},
		{VertexID: qv, K: 3, Mode: acq.ModeFixed, Keywords: short},
		{VertexID: qv, K: 3, Mode: acq.ModeThreshold, Theta: 0.5, Keywords: keywords},
		{VertexID: qv, K: 3, Mode: acq.ModeSimilar, Tau: 0.3},
		{VertexID: qv, K: 4, Mode: acq.ModeClique},
		{VertexID: qv, K: 4, Mode: acq.ModeTruss},
		{VertexID: qv, K: 4, Mode: acq.ModeTruss, MaxHops: 2},
	}
	for _, algo := range []acq.Algorithm{acq.AlgoDec, acq.AlgoIncS, acq.AlgoIncT, acq.AlgoBasicG, acq.AlgoBasicW} {
		qs = append(qs, acq.Query{VertexID: qv, K: 3, Mode: acq.ModeCore, Algorithm: algo})
	}
	return qs
}

// TestFrozenVsMutableAllModes: for workers ∈ {1, 2, 8}, every mode and
// algorithm answers identically on the mutable and the frozen read path.
func TestFrozenVsMutableAllModes(t *testing.T) {
	base, err := acq.Synthetic("dblp", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	var queries []int32
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			g, err := acq.Synthetic("dblp", 0.05)
			if err != nil {
				t.Fatal(err)
			}
			g.SetResultCacheSize(-1)
			acq.ForceBuildWorkers(t, workers)
			g.BuildIndex()
			if queries == nil {
				for v := int32(0); int(v) < g.NumVertices() && len(queries) < 4; v++ {
					if c, _ := g.CoreNumber(v); c >= 4 {
						queries = append(queries, v)
					}
				}
				if len(queries) == 0 {
					t.Fatal("no queryable vertices")
				}
			}
			snap := g.Snapshot()
			for _, qv := range queries {
				for _, q := range diffQueries(qv, base.Keywords(qv)) {
					direct, dErr := g.Search(bgCtx, q)
					frozen, fErr := snap.Search(bgCtx, q)
					if (dErr == nil) != (fErr == nil) {
						t.Fatalf("q=%d mode=%s algo=%s: error mismatch %v vs %v", qv, q.Mode, q.Algorithm, dErr, fErr)
					}
					if dErr != nil {
						continue
					}
					if !reflect.DeepEqual(direct, frozen) {
						t.Fatalf("q=%d mode=%s algo=%s: frozen path diverged:\n%+v\nvs\n%+v",
							qv, q.Mode, q.Algorithm, frozen, direct)
					}
				}
			}
		})
	}
}

// TestFrozenSnapshotRoundTrip: a frozen snapshot serialised to the .acqm
// container and loaded back must carry the same graph, the same index
// answers and a valid structure — the public half of the Freeze →
// WriteMapped → ReadMapped → Validate loop (the internal half lives in
// internal/dataio). The mutable master and its frozen snapshot serialise to
// the same bytes.
func TestFrozenSnapshotRoundTrip(t *testing.T) {
	g := figure1Graph(t)
	g.BuildIndex()
	snap := g.Snapshot() // frozen CSR view + cloned tree

	var buf, master bytes.Buffer
	if err := snap.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := g.SaveSnapshot(&master); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), master.Bytes()) {
		t.Fatal("the master and its frozen snapshot serialise differently")
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("ACQM")) {
		t.Fatalf("snapshot file starts %q, want the ACQM magic", buf.Bytes()[:4])
	}
	loaded, err := acq.LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.HasIndex() {
		t.Fatal("round trip dropped the index")
	}
	if loaded.NumVertices() != g.NumVertices() || loaded.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed sizes: %d/%d vs %d/%d",
			loaded.NumVertices(), loaded.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	for _, tc := range modeCases() {
		want, wErr := g.Search(bgCtx, tc.query)
		got, gErr := loaded.Search(bgCtx, tc.query)
		if (wErr == nil) != (gErr == nil) {
			t.Fatalf("%s: error mismatch %v vs %v", tc.name, wErr, gErr)
		}
		if wErr == nil && !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: round-tripped answers diverged:\n%+v\nvs\n%+v", tc.name, got, want)
		}
	}
	// And the round trip of the reloaded graph's own snapshot still works.
	var buf2 bytes.Buffer
	if err := loaded.Snapshot().SaveSnapshot(&buf2); err != nil {
		t.Fatal(err)
	}
	if _, err := acq.LoadSnapshot(&buf2); err != nil {
		t.Fatal(err)
	}
}
