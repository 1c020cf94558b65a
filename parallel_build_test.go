package acq_test

import (
	"reflect"
	"testing"

	acq "github.com/acq-search/acq"
)

// TestBuildIndexWorkersEquivalence drives the public API end to end: two
// copies of the same synthetic graph, one indexed serially and one with a
// forced 8-way parallel build, must agree on every statistic and answer an
// identical batch of queries — and the build telemetry must report the
// worker count that was actually used.
func TestBuildIndexWorkersEquivalence(t *testing.T) {
	serial, err := acq.Synthetic("dblp", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := acq.Synthetic("dblp", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	acq.ForceBuildWorkers(t, 1)
	serial.BuildIndex()
	acq.ForceBuildWorkers(t, 8)
	parallel.BuildIndex()

	if d, w := serial.IndexBuildStats(); w != 1 || d <= 0 {
		t.Fatalf("serial build stats = (%v, %d), want workers 1 and positive duration", d, w)
	}
	if d, w := parallel.IndexBuildStats(); w != 8 || d <= 0 {
		t.Fatalf("parallel build stats = (%v, %d), want workers 8 and positive duration", d, w)
	}
	if !reflect.DeepEqual(serial.Stats(), parallel.Stats()) {
		t.Fatalf("stats differ:\n%+v\n%+v", serial.Stats(), parallel.Stats())
	}

	k := serial.Stats().KMax / 2
	if k < 2 {
		k = 2
	}
	var queries []acq.Query
	for v := int32(0); int(v) < serial.NumVertices() && len(queries) < 32; v++ {
		if c, err := serial.CoreNumber(v); err == nil && c >= k {
			queries = append(queries, acq.Query{VertexID: v, K: k})
		}
	}
	if len(queries) == 0 {
		t.Skip("no suitable query vertices at this scale")
	}
	rs := serial.SearchBatch(bgCtx, queries, acq.BatchOptions{Workers: 1})
	rp := parallel.SearchBatch(bgCtx, queries, acq.BatchOptions{Workers: 4})
	for i := range rs {
		if (rs[i].Err == nil) != (rp[i].Err == nil) {
			t.Fatalf("query %d: errors differ: %v vs %v", i, rs[i].Err, rp[i].Err)
		}
		if !reflect.DeepEqual(rs[i].Result, rp[i].Result) {
			t.Fatalf("query %d: results differ", i)
		}
	}
}

// TestBuildIndexOptsBasicMethod keeps the Method field wired: a basic-method
// build through the new options API must serve queries like the advanced one.
func TestBuildIndexOptsBasicMethod(t *testing.T) {
	g, err := acq.Synthetic("flickr", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	g.BuildIndexOpts(acq.BuildOptions{Method: acq.IndexBasic})
	if !g.HasIndex() {
		t.Fatal("basic-method build left no index")
	}
	if _, w := g.IndexBuildStats(); w != 1 {
		t.Fatalf("basic build reported %d workers, want 1 (always serial)", w)
	}
}
