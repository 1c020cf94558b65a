package acq_test

// Differential tests for the unified Search surface across the two read
// representations: every Query.Mode must return results byte-identical on
// the direct Graph path (the writer's overlay master) and the Snapshot path
// (frozen CSR copy). This is the acceptance gate for the frozen read
// path — publishing a snapshot must never change an answer.

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	acq "github.com/acq-search/acq"
)

// modeCase is one Query.Mode exercised by the differential tests.
type modeCase struct {
	name  string
	query acq.Query
}

func modeCases() []modeCase {
	return []modeCase{
		{
			name:  "core",
			query: acq.Query{Vertex: "Jack", K: 3, Mode: acq.ModeCore},
		},
		{
			name:  "fixed",
			query: acq.Query{Vertex: "Jack", K: 3, Keywords: []string{"research", "sports"}, Mode: acq.ModeFixed},
		},
		{
			name: "threshold",
			query: acq.Query{
				Vertex: "Jack", K: 3,
				Keywords: []string{"research", "sports", "yoga", "web"},
				Mode:     acq.ModeThreshold, Theta: 0.5,
			},
		},
		{
			name:  "clique",
			query: acq.Query{Vertex: "Jack", K: 4, Mode: acq.ModeClique},
		},
		{
			name:  "similar",
			query: acq.Query{Vertex: "Jack", K: 3, Mode: acq.ModeSimilar, Tau: 0.4},
		},
		{
			name:  "truss",
			query: acq.Query{Vertex: "Jack", K: 4, Mode: acq.ModeTruss},
		},
		{
			name:  "truss-maxhops",
			query: acq.Query{Vertex: "Jack", K: 4, MaxHops: 1, Mode: acq.ModeTruss},
		},
	}
}

// TestModesFrozenMatchesMutable is the differential acceptance test: for
// every mode, the direct Graph path and the Snapshot path (with and without
// the result cache, so the equality is not an artifact of cache cloning)
// return deep-equal results.
func TestModesFrozenMatchesMutable(t *testing.T) {
	g := figure1Graph(t)
	g.BuildIndex()
	gNoCache := figure1Graph(t)
	gNoCache.BuildIndex()
	gNoCache.SetResultCacheSize(-1)

	for _, tc := range modeCases() {
		t.Run(tc.name, func(t *testing.T) {
			direct, dErr := g.Search(bgCtx, tc.query)
			snapRes, sErr := g.Snapshot().Search(bgCtx, tc.query)
			if (dErr == nil) != (sErr == nil) {
				t.Fatalf("error mismatch: direct %v, snapshot %v", dErr, sErr)
			}
			if dErr != nil {
				return
			}
			if !reflect.DeepEqual(direct, snapRes) {
				t.Fatalf("snapshot diverged from direct path:\n%+v\nvs\n%+v", snapRes, direct)
			}
			uncached, ncErr := gNoCache.Snapshot().Search(bgCtx, tc.query)
			if ncErr != nil {
				t.Fatalf("uncached snapshot search: %v", ncErr)
			}
			if !reflect.DeepEqual(direct, uncached) {
				t.Fatalf("uncached snapshot diverged:\n%+v\nvs\n%+v", uncached, direct)
			}
		})
	}
}

// TestModesFrozenMatchesMutableOnSynthetic repeats the differential check on
// a synthetic dataset workload, covering vertices whose neighbourhood
// structure is richer than the hand-built Figure 1 graph.
func TestModesFrozenMatchesMutableOnSynthetic(t *testing.T) {
	g, err := acq.Synthetic("dblp", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	g.BuildIndex()
	var queries []int32
	for v := int32(0); int(v) < g.NumVertices() && len(queries) < 6; v++ {
		if c, _ := g.CoreNumber(v); c >= 4 {
			queries = append(queries, v)
		}
	}
	if len(queries) == 0 {
		t.Fatal("no queryable vertices")
	}
	snap := g.Snapshot()
	for _, qv := range queries {
		for _, mode := range []acq.Mode{acq.ModeCore, acq.ModeFixed, acq.ModeThreshold, acq.ModeSimilar} {
			q := acq.Query{VertexID: qv, K: 4, Mode: mode}
			switch mode {
			case acq.ModeThreshold:
				q.Theta = 0.5
				q.Keywords = g.Keywords(qv)
			case acq.ModeSimilar:
				q.Tau = 0.3
			case acq.ModeFixed:
				kws := g.Keywords(qv)
				if len(kws) > 2 {
					kws = kws[:2]
				}
				q.Keywords = kws
			}
			direct, dErr := g.Search(bgCtx, q)
			snapped, sErr := snap.Search(bgCtx, q)
			if (dErr == nil) != (sErr == nil) {
				t.Fatalf("q=%d mode=%s: error mismatch %v vs %v", qv, mode, dErr, sErr)
			}
			if dErr == nil && !reflect.DeepEqual(direct, snapped) {
				t.Fatalf("q=%d mode=%s: direct and snapshot disagree", qv, mode)
			}
		}
	}
}

// TestSearchBadMode pins the unknown-mode error.
func TestSearchBadMode(t *testing.T) {
	g := figure1Graph(t)
	g.BuildIndex()
	_, err := g.Search(bgCtx, acq.Query{Vertex: "Jack", K: 3, Mode: "quantum"})
	if err == nil || !errors.Is(err, acq.ErrBadMode) {
		t.Fatalf("err = %v, want ErrBadMode", err)
	}
	// And through the snapshot path (errors are never cached).
	_, err = g.Snapshot().Search(bgCtx, acq.Query{Vertex: "Jack", K: 3, Mode: "quantum"})
	if err == nil || !errors.Is(err, acq.ErrBadMode) {
		t.Fatalf("snapshot err = %v, want ErrBadMode", err)
	}
}

// TestBadModeNeverAliasesCache is a regression test: an unknown mode must
// fail even when the equivalent ModeCore query is already cached — the
// invalid query must not share the cached entry's key and return a wrong
// success.
func TestBadModeNeverAliasesCache(t *testing.T) {
	g := figure1Graph(t)
	g.BuildIndex()
	snap := g.Snapshot()
	q := acq.Query{Vertex: "Jack", K: 3}
	if _, err := snap.Search(bgCtx, q); err != nil { // warm the core entry
		t.Fatal(err)
	}
	q.Mode = "bogus"
	if _, err := snap.Search(bgCtx, q); !errors.Is(err, acq.ErrBadMode) {
		t.Fatalf("cached-alias err = %v, want ErrBadMode", err)
	}
	q.Mode = ""
	q.Algorithm = "quantum"
	if _, err := snap.Search(bgCtx, q); !errors.Is(err, acq.ErrBadAlgorithm) {
		t.Fatalf("cached-alias err = %v, want ErrBadAlgorithm", err)
	}
}

// TestBadAlgorithmRejectedInEveryMode: the unknown-algorithm contract holds
// across the whole mode dispatch, not just ModeCore — a typo'd algo must
// never silently fall through to the indexed variant path.
func TestBadAlgorithmRejectedInEveryMode(t *testing.T) {
	g := figure1Graph(t)
	g.BuildIndex()
	for _, mode := range []acq.Mode{acq.ModeCore, acq.ModeFixed, acq.ModeThreshold, acq.ModeClique, acq.ModeSimilar, acq.ModeTruss} {
		q := acq.Query{Vertex: "Jack", K: 3, Mode: mode, Theta: 0.5, Tau: 0.5, Algorithm: "quantum"}
		if _, err := g.Search(bgCtx, q); !errors.Is(err, acq.ErrBadAlgorithm) {
			t.Fatalf("mode %s: err = %v, want ErrBadAlgorithm", mode, err)
		}
	}
}

// TestSearcherInterface pins the Searcher contract: both Graph and Snapshot
// satisfy it and evaluate identically through the interface.
func TestSearcherInterface(t *testing.T) {
	g := figure1Graph(t)
	g.BuildIndex()
	q := acq.Query{Vertex: "Jack", K: 3}
	var want acq.Result
	for i, s := range []acq.Searcher{g, g.Snapshot()} {
		res, err := s.Search(bgCtx, q)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = res
			continue
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("Searcher implementations disagree: %+v vs %+v", res, want)
		}
		batch := s.SearchBatch(bgCtx, []acq.Query{q, q}, acq.BatchOptions{Workers: 2})
		if len(batch) != 2 || batch[0].Err != nil || !reflect.DeepEqual(batch[0].Result, want) {
			t.Fatalf("SearchBatch through Searcher: %+v", batch)
		}
	}
}

// TestModeAlgorithmRoutingWithoutIndex pins, for every mode × algorithm
// pair, whether a graph without an index answers (the index-free baselines)
// or returns ErrNoIndex, exactly, approximately and under a work budget, so
// the evaluator switch cannot silently reroute an ablation. An exact answer
// must also match the indexed default evaluator's.
func TestModeAlgorithmRoutingWithoutIndex(t *testing.T) {
	g := figure1Graph(t)
	indexed := figure1Graph(t)
	indexed.BuildIndex()
	table := []struct {
		mode    acq.Mode
		answers []acq.Algorithm
	}{
		{"", []acq.Algorithm{acq.AlgoBasicG, acq.AlgoBasicW}},
		{acq.ModeCore, []acq.Algorithm{acq.AlgoBasicG, acq.AlgoBasicW}},
		{acq.ModeFixed, []acq.Algorithm{acq.AlgoBasicG, acq.AlgoBasicW}},
		{acq.ModeThreshold, []acq.Algorithm{acq.AlgoBasicG, acq.AlgoBasicW}},
		{acq.ModeSimilar, []acq.Algorithm{acq.AlgoBasicG}},
		{acq.ModeClique, nil},
		{acq.ModeTruss, nil},
	}
	knobs := []struct {
		name string
		set  func(*acq.Query)
	}{
		{"exact", func(*acq.Query) {}},
		{"epsilon", func(q *acq.Query) { q.Epsilon = 0.5 }},
		{"top-r", func(q *acq.Query) { q.TopR = 1 }},
		{"budget", func(q *acq.Query) { q.Budget = 1 << 30 }},
	}
	for _, row := range table {
		for _, algo := range []acq.Algorithm{"", acq.AlgoDec, acq.AlgoIncS, acq.AlgoIncT, acq.AlgoBasicG, acq.AlgoBasicW} {
			for _, knob := range knobs {
				q := acq.Query{Vertex: "Jack", K: 3, Keywords: []string{"research", "sports"}, Mode: row.mode, Algorithm: algo, Theta: 0.5, Tau: 0.5}
				knob.set(&q)
				res, err := g.Search(bgCtx, q)
				if !slices.Contains(row.answers, algo) {
					if !errors.Is(err, acq.ErrNoIndex) {
						t.Errorf("mode %q algo %q %s: err = %v, want ErrNoIndex", row.mode, algo, knob.name, err)
					}
					continue
				}
				if err != nil {
					t.Errorf("mode %q algo %q %s: err = %v, want an answer", row.mode, algo, knob.name, err)
					continue
				}
				if len(res.Communities) == 0 {
					t.Errorf("mode %q algo %q %s: no community for Jack", row.mode, algo, knob.name)
				}
				if knob.name != "exact" {
					continue
				}
				want, err := indexed.Search(bgCtx, acq.Query{Vertex: q.Vertex, K: q.K, Keywords: q.Keywords, Mode: q.Mode, Theta: q.Theta, Tau: q.Tau})
				if err != nil || !reflect.DeepEqual(res, want) {
					t.Errorf("mode %q algo %q: %+v, indexed default %+v (%v)", row.mode, algo, res, want, err)
				}
			}
		}
	}
}
