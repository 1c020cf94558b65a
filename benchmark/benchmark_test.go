package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	acq "github.com/acq-search/acq"
	"github.com/acq-search/acq/internal/graph"
	"github.com/acq-search/acq/internal/kcore"
)

// These tests are hermetic: no sockets, no subprocess, a small generated
// graph. They pin the rules the numbers depend on, not the numbers.

func TestTailIsHighestPercentileWithTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n          int
		percentile float64
		value      float64
	}{
		{5000, 99, 4950}, // p99 has 50 beyond it
		{1000, 99, 990},  // p99 has exactly ten beyond it
		{400, 97.5, 390}, // p99 would have four: fall back to the sample with ten beyond
		{40, 75, 30},     // ten beyond the 30th
		{20, 50, 10.5},   // no tail to speak of: the median
		{1, 50, 1},
	} {
		p, v := tail(ramp(tc.n))
		if p != tc.percentile || v != tc.value {
			t.Errorf("tail of %d samples = p%v %v, want p%v %v", tc.n, p, v, tc.percentile, tc.value)
		}
	}
	if p, v := tail(nil); p != 50 || v != 0 {
		t.Errorf("tail of no samples = p%v %v", p, v)
	}
}

func TestQuartilesMatchPythonStatisticsQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of three = %v %v %v, want 1 2 4", q1, q2, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTimeIsSpanMinusChildrenOfTheSameRequest(t *testing.T) {
	msec := int64(time.Millisecond)
	spans := []span{
		// Request 1: levels replayed one after the other, not nested in time.
		{Name: "transport", Req: 1, StartNS: 0, EndNS: 10 * msec},
		{Name: "engine.search", Req: 1, Parent: "transport", StartNS: 20 * msec, EndNS: 28 * msec},
		{Name: "acq.search", Req: 1, Parent: "engine.search", StartNS: 30 * msec, EndNS: 37 * msec},
		{Name: "core.eval.core", Req: 1, Parent: "acq.search", StartNS: 40 * msec, EndNS: 45 * msec},
		{Name: "core.locate", Req: 1, Parent: "core.eval.core", StartNS: 50 * msec, EndNS: 51 * msec},
		{Name: "fpm.mine", Req: 1, Parent: "core.eval.core", StartNS: 52 * msec, EndNS: 54 * msec},
		// Request 2 is a cache hit: no evaluator below the acq level.
		{Name: "transport", Req: 2, StartNS: 60 * msec, EndNS: 63 * msec},
		{Name: "engine.search", Req: 2, Parent: "transport", StartNS: 64 * msec, EndNS: 66 * msec},
		{Name: "acq.cache.hit", Req: 2, Parent: "engine.search", StartNS: 67 * msec, EndNS: 68 * msec},
		// Another family reusing a name as parent must not leak across requests.
		{Name: "acq.search", Req: 10000, StartNS: 70 * msec, EndNS: 79 * msec},
		{Name: "core.eval.core", Req: 10000, Parent: "acq.search", StartNS: 80 * msec, EndNS: 84 * msec},
	}
	for _, tc := range []struct {
		name string
		want []float64
	}{
		{"transport", []float64{2, 1}},
		{"engine.search", []float64{1, 1}},
		{"acq.search", []float64{2, 5}},
		{"core.eval.core", []float64{2, 4}},
	} {
		if got := selfTimesMS(spans, tc.name); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("self times of %s = %v, want %v", tc.name, got, tc.want)
		}
	}
	if got := durationsMS(spans, "core.eval.core"); !reflect.DeepEqual(got, []float64{5, 4}) {
		t.Errorf("durations of core.eval.core = %v", got)
	}
	// The self times of a request telescope to its outermost span.
	if got := selfSumError(spans); got != 0 {
		t.Errorf("self times miss the round trip by %v", got)
	}
}

func TestTracerRecordsParentLinkedSpans(t *testing.T) {
	tr := newTracer()
	d := tr.call("transport", 7, "", func() { time.Sleep(time.Millisecond) })
	tr.call("engine.search", 7, "transport", func() {})
	if len(tr.spans) != 2 || tr.spans[0].dur() != d || d < time.Millisecond {
		t.Fatalf("spans = %+v, first call took %v", tr.spans, d)
	}
	if s := tr.spans[1]; s.Req != 7 || s.Parent != "transport" || s.StartNS < tr.spans[0].EndNS {
		t.Errorf("child span = %+v", s)
	}
	path := t.TempDir() + "/trace.json"
	if err := writeTrace(path, traceFile{Workload: "w", Seed: 1, Spans: tr.spans}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"name"`, `"req"`, `"parent"`, `"start_ns"`, `"end_ns"`} {
		if !bytes.Contains(data, []byte(key)) {
			t.Errorf("trace.json lacks %s: %s", key, data)
		}
	}
}

func TestOpenLoopTimesFromIntendedSend(t *testing.T) {
	// One worker, a request every 2 ms, and a server that stalls 40 ms on the
	// first request and is instant afterwards. A closed loop would report only
	// one slow request; timing from the schedule charges the stall to every
	// request that was due during it.
	const interval = 2 * time.Millisecond
	stall := 40 * time.Millisecond
	samples := openLoop(context.Background(), time.Now(), interval, 40, 1, func(i int) outcome {
		if i == 0 {
			time.Sleep(stall)
		}
		return outcome{ok: true}
	})
	if len(samples) != 40 {
		t.Fatalf("%d samples, want 40", len(samples))
	}
	for _, i := range []int{1, 5, 10} {
		s := samples[i]
		if s.due != time.Duration(i)*interval {
			t.Errorf("request %d due at %v", i, s.due)
		}
		wantAtLeast := stall - s.due - 2*time.Millisecond
		if got := s.done - s.due; got < wantAtLeast {
			t.Errorf("request %d: latency %v from its intended send, want ≥ %v (its own service time was ~0)", i, got, wantAtLeast)
		}
		if s.sent-s.due <= 0 {
			t.Errorf("request %d: no lateness recorded", i)
		}
	}
	// Only lower bounds are asserted: a loaded machine makes everything later,
	// never earlier.
	for i, s := range samples {
		if s.sent < s.due || s.done < s.sent {
			t.Fatalf("request %d: due %v sent %v done %v", i, s.due, s.sent, s.done)
		}
	}
}

func TestClosedLoopStopsAtTheDeadline(t *testing.T) {
	n := 0
	samples := closedLoop(context.Background(), time.Now(), 20*time.Millisecond, func(i int) outcome {
		n++
		time.Sleep(time.Millisecond)
		return outcome{ok: true}
	})
	// 1 ms requests cannot fit more than 20 times into 20 ms; how many do fit
	// depends on the machine.
	if len(samples) != n || n < 1 || n > 20 {
		t.Errorf("%d samples for %d calls in 20 ms of 1 ms requests", len(samples), n)
	}
	for _, s := range samples {
		if s.due != s.sent || s.done < s.sent || s.sent >= 20*time.Millisecond {
			t.Fatalf("closed-loop sample %+v", s)
		}
	}
}

// smallInputs is dblp at a scale that still has a few hundred vertices of
// core ≥ 6.
func smallInputs(t *testing.T) *inputs {
	t.Helper()
	in, err := prepare(t.TempDir(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestSameSeedSameOperationsDifferentSeedDifferentOperations(t *testing.T) {
	in := smallInputs(t)
	total := 12 * time.Second
	for _, w := range workloads {
		ops := func(seed int64) [][]byte {
			p, err := buildPlan(w, in, seed, total)
			if err != nil {
				t.Fatal(err)
			}
			return p.canonical(1000)
		}
		a, b, c := ops(7), ops(7), ops(8)
		if len(a) != 1000 {
			t.Fatalf("%s: %d canonical ops", w.name, len(a))
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different operations", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: a different seed gave the same operations", w.name)
		}
	}
}

func TestEveryQueryVertexIsAnswerableAndEveryWriteEffective(t *testing.T) {
	in := smallInputs(t)
	p, err := buildPlan(workloads[2], in, 3, 12*time.Second) // mixed-rw
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.table {
		if q := &p.table[i]; in.core[q.ID] < int32(q.K) {
			t.Fatalf("query vertex %d has core %d < k %d", q.ID, in.core[q.ID], q.K)
		}
	}
	// Apply the stream to a scratch copy: every op must change it, and sizes
	// must stay stationary.
	g := in.g.Clone()
	edges0 := g.NumEdges()
	if len(p.writes) < probeWrites {
		t.Fatalf("%d write batches drawn, want ≥ %d", len(p.writes), probeWrites)
	}
	for bi := range p.writes {
		for _, m := range p.writes[bi].muts {
			var changed bool
			switch m.Op {
			case acq.OpAddKeyword:
				changed = g.AddKeyword(graph.VertexID(m.Vertex), m.Keyword)
			case acq.OpRemoveKeyword:
				changed = g.RemoveKeyword(graph.VertexID(m.Vertex), m.Keyword)
			case acq.OpInsertEdge:
				changed = g.InsertEdge(graph.VertexID(m.U), graph.VertexID(m.V))
			case acq.OpRemoveEdge:
				changed = g.RemoveEdge(graph.VertexID(m.U), graph.VertexID(m.V))
			}
			if !changed {
				t.Fatalf("batch %d: %+v changed nothing", bi, m)
			}
		}
	}
	if d := g.NumEdges() - edges0; d < 0 || d > 3 {
		t.Errorf("|E| drifted by %d over %d batches", d, len(p.writes))
	}
}

func TestValidateChecksProblemOneFromOutside(t *testing.T) {
	// Triangle {0,1,2} sharing keyword x, triangle {3,4,5} sharing y, a bridge
	// 2–3, a pendant 6 on vertex 5, and a far triangle {7,8,9}.
	b := graph.NewBuilder()
	for v, kws := range [][]string{{"x"}, {"x"}, {"x", "y"}, {"y"}, {"y"}, {"y"}, {}, {}, {}, {}} {
		b.AddVertex(string(rune('a'+v)), kws...)
	}
	for _, e := range [][2]graph.VertexID{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}, {5, 6}, {7, 8}, {8, 9}, {7, 9}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.MustBuild()
	in := &inputs{g: g, core: kcore.Decompose(g)}
	q := &query{ID: 2, K: 2}
	answerOf := func(label []string, members ...int32) *answer {
		a := &answer{}
		a.Result.LabelSize = len(label)
		a.Result.Communities = append(a.Result.Communities, struct {
			Label     []string
			MemberIDs []int32
		}{label, members})
		return a
	}
	if err := in.validate(q, answerOf([]string{"x"}, 0, 1, 2), nil); err != nil {
		t.Errorf("valid answer rejected: %v", err)
	}
	if err := in.validate(q, answerOf(nil, 0, 1, 2, 3, 4, 5), nil); err != nil {
		t.Errorf("valid fallback answer rejected: %v", err)
	}
	mismatch := answerOf([]string{"x"}, 0, 1, 2)
	mismatch.Result.LabelSize = 2
	for name, bad := range map[string]*answer{
		"query vertex missing": answerOf([]string{"y"}, 3, 4, 5),
		"degree below k":       answerOf(nil, 0, 1, 2, 3),
		"label not shared":     answerOf([]string{"x"}, 0, 1, 2, 3, 4, 5),
		"not connected":        answerOf(nil, 0, 1, 2, 7, 8, 9),
		"unknown keyword":      answerOf([]string{"zzz"}, 0, 1, 2),
		"member out of range":  answerOf(nil, 0, 1, 2, 99),
		"label size mismatch":  mismatch,
	} {
		if err := in.validate(q, bad, nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A writer's allowance widens the graph: with edge 6–4 allowed, the pendant
	// reaches degree 2.
	q3 := &query{ID: 3, K: 2}
	allow := &allowances{kw: map[kwPair]struct{}{}, adj: map[int32][]int32{6: {4}, 4: {6}}}
	if err := in.validate(q3, answerOf(nil, 3, 4, 5, 6), allow); err != nil {
		t.Errorf("answer inside the writer's envelope rejected: %v", err)
	}
	if err := in.validate(q3, answerOf(nil, 3, 4, 5, 6), nil); err == nil {
		t.Error("pendant of degree 1 accepted without the allowance")
	}
	// So does a keyword the writer may have added.
	allow.kw[kwPair{3, "x"}] = struct{}{}
	if err := in.validate(q, answerOf([]string{"x"}, 0, 1, 2, 3), allow); err == nil {
		t.Error("vertex 3 has degree 1 among {0,1,2,3}; the keyword allowance must not hide that")
	}
}

func TestResultLineAndResultsFileSchema(t *testing.T) {
	values := map[string]float64{}
	for i, d := range endToEnd {
		values[d.Name] = float64(i) + 0.5
	}
	metrics, missing := pick(endToEnd, values)
	if len(missing) != 0 {
		t.Fatalf("missing %v", missing)
	}
	res := runResult{Correct: true, Attempted: 10, Failed: 0, Metrics: metrics, Workload: "core-cold", Seed: 1, Seconds: 10, Info: map[string]float64{"read_samples": 9}}
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(res.resultLine()), &line); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(line))
	for k := range line {
		keys = append(keys, k)
	}
	if len(keys) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Errorf("result line keys = %v, want exactly correct, attempted, failed, metrics", keys)
	}
	var got map[string]metric
	if err := json.Unmarshal(line["metrics"], &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(endToEnd) || got["setup_s"].Unit != "s" || got["setup_s"].Value != 0.5 {
		t.Errorf("metrics = %v", got)
	}
	if _, missing := pick(endToEnd, map[string]float64{"setup_s": 1}); len(missing) != len(endToEnd)-1 {
		t.Errorf("pick reported %d missing metrics", len(missing))
	}

	// results.json round trip and -compare verdicts.
	file := func(scale float64, noisy bool) *resultsFile {
		f := &resultsFile{Schema: resultsSchema, Seed: 1, Seconds: 10}
		for round := 0; round < 5; round++ {
			for _, w := range workloads {
				m := map[string]metric{}
				for _, d := range endToEnd {
					v := 100.0
					if d.Name == "read_p50_ms" {
						v *= scale
					}
					if noisy && d.Name == "read_qps" {
						v += 30 * float64(round)
					}
					m[d.Name] = metric{Value: v, Unit: d.Unit}
				}
				f.Runs = append(f.Runs, runResult{Workload: w.name, Metrics: m})
			}
		}
		return f
	}
	path := t.TempDir() + "/results.json"
	data, err := json.Marshal(file(1, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := readResults(path)
	if err != nil || len(back.Runs) != 5*len(workloads) {
		t.Fatalf("readResults: %v, %d runs", err, len(back.Runs))
	}
	var out bytes.Buffer
	if status := compareResults(&out, file(1, true), file(1.5, false)); status != 1 {
		t.Errorf("a 50%% slower read_p50_ms compared as status %d", status)
	}
	for _, want := range []string{"worse", "unresolved", "ok"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
	rows := strings.Count(out.String(), "\n") - 1
	if rows != len(workloads)*len(endToEnd) {
		t.Errorf("%d compare rows, want one per workload × metric = %d", rows, len(workloads)*len(endToEnd))
	}
	out.Reset()
	if status := compareResults(&out, file(1, false), file(1.05, false)); status != 0 {
		t.Errorf("a change inside the bound compared as status %d:\n%s", status, out.String())
	}
}

// updateBenchmarkJSON regenerates ../BENCHMARK.json from the tables:
//
//	go test ./benchmark -run TestBenchmarkJSONMatchesTables -update-benchmark-json
var updateBenchmarkJSON = flag.Bool("update-benchmark-json", false, "rewrite ../BENCHMARK.json from the benchmark's tables")

// benchmarkSpec is BENCHMARK.json: exactly the keys the driver's contract lists.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []boundedDef   `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// boundedDef is metricDef with the bound always written.
type boundedDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	if *updateBenchmarkJSON {
		want := benchmarkSpec{Command: []string{"go", "run", "./benchmark"}, Paths: []string{"benchmark"}, RunSeconds: 10, PerLayer: perLayer}
		for _, w := range workloads {
			want.Workloads = append(want.Workloads, workloadSpec{w.name, w.why})
		}
		for _, d := range endToEnd {
			want.EndToEnd = append(want.EndToEnd, boundedDef(d))
		}
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("../BENCHMARK.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricDef    `json:"end_to_end"`
		PerLayer   []metricDef    `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) {
		t.Errorf("command %v paths %v", spec.Command, spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%+v\n%+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n%+v\n%+v", spec.PerLayer, perLayer)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %q (unit %q): duplicate or too long", d.Name, d.Unit)
		}
		seen[d.Name] = true
		if d.Bound > 0.25 {
			t.Errorf("metric %q: bound %v above 0.25", d.Name, d.Bound)
		}
	}
	if endToEnd[0].Name != "setup_s" || len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("tables out of the contract's limits")
	}
}
