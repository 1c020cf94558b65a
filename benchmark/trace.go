package main

import (
	"encoding/json"
	"math"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (never inside the program). Spans of one request share Req; Parent
// names the span of the same request that this call is attributed to.
type span struct {
	Name    string `json:"name"`
	Req     int    `json:"req"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory; they are written out once, when the traced
// run ends. It is used from one goroutine only: the traced replay is
// sequential by design, so a span never includes time waiting for a sibling.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// call times fn as one span.
func (t *tracer) call(name string, req int, parent string, fn func()) time.Duration {
	start := time.Since(t.t0)
	fn()
	end := time.Since(t.t0)
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, StartNS: int64(start), EndNS: int64(end)})
	return end - start
}

// durationsMS returns the duration of every span called name, in ms.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// selfTimesMS derives, for every span called name, its self time in ms: the
// span's duration minus the durations of the spans of the same request that
// name it as their parent. The levels of one request are replayed one after
// the other rather than nested in wall time, so the subtraction is by
// duration; it is not clamped, which keeps the self times of a request
// summing exactly to its outermost span.
func selfTimesMS(spans []span, name string) []float64 {
	children := childDurations(spans)
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()-children[spanKey{s.Req, s.Name}]))
		}
	}
	return out
}

// spanKey identifies a span within its request.
type spanKey struct {
	req  int
	name string
}

// childDurations sums, per span, the durations of the spans naming it parent.
func childDurations(spans []span) map[spanKey]time.Duration {
	children := make(map[spanKey]time.Duration)
	for _, s := range spans {
		if s.Parent != "" {
			children[spanKey{s.Req, s.Parent}] += s.dur()
		}
	}
	return children
}

// selfSumError returns the largest relative gap, over the requests that have
// a transport span, between that round-trip span and the sum of the self
// times of all the request's spans.
func selfSumError(spans []span) float64 {
	children := childDurations(spans)
	root, sum := map[int]time.Duration{}, map[int]time.Duration{}
	for _, s := range spans {
		if s.Name == "transport" {
			root[s.Req] = s.dur()
		}
	}
	for _, s := range spans {
		if _, ok := root[s.Req]; ok {
			sum[s.Req] += s.dur() - children[spanKey{s.Req, s.Name}]
		}
	}
	worst := 0.0
	for req, total := range root {
		if total > 0 {
			worst = max(worst, math.Abs(float64(sum[req]-total))/float64(total))
		}
	}
	return worst
}

// traceFile is the on-disk form of a traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
