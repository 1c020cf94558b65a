package engine

// Tests for the versioned HTTP protocol: POST /v1/search and /v1/batch with
// structured error codes, request-derived contexts, body/batch limits, and
// the canceled/timed-out metrics.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	acq "github.com/acq-search/acq"
)

type v1SearchResp struct {
	Version uint64      `json:"version"`
	Result  *acq.Result `json:"result"`
	Error   *wireError  `json:"error"`
}

func doV1Search(t testing.TB, h http.Handler, body string) (*httptest.ResponseRecorder, v1SearchResp) {
	t.Helper()
	rec := do(t, h, "POST", "/v1/search", body)
	var resp v1SearchResp
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad response %q: %v", rec.Body, err)
	}
	return rec, resp
}

// TestV1SearchRoundTripsEveryMode is the acceptance check: every Query.Mode
// evaluates over POST /v1/search. The test graph's K4 {jack,bob,john,mike}
// shares research+sports, so each mode has a known answer.
func TestV1SearchRoundTripsEveryMode(t *testing.T) {
	h := testEngine(t).Handler()
	cases := []struct {
		name    string
		body    string
		members int
	}{
		{"core-default", `{"query":{"vertex":"jack","k":3}}`, 4},
		{"core-explicit", `{"query":{"vertex":"jack","k":3,"mode":"core"}}`, 4},
		{"fixed", `{"query":{"vertex":"jack","k":3,"mode":"fixed","keywords":["research","sports"]}}`, 4},
		{"threshold", `{"query":{"vertex":"jack","k":3,"mode":"threshold","theta":0.5,"keywords":["research","sports","web"]}}`, 4},
		{"clique", `{"query":{"vertex":"jack","k":4,"mode":"clique"}}`, 4},
		{"similar", `{"query":{"vertex":"jack","k":3,"mode":"similar","tau":0.4}}`, 4},
		{"truss", `{"query":{"vertex":"jack","k":4,"mode":"truss"}}`, 4},
		{"truss-maxhops", `{"query":{"vertex":"jack","k":4,"mode":"truss","max_hops":1}}`, 4},
		{"by-id", `{"query":{"id":0,"k":3}}`, 4},
		{"fuzzy", `{"query":{"vertex":"jack","k":3,"keywords":["reserch"],"fuzz":1}}`, 4},
		{"with-timeout", `{"query":{"vertex":"jack","k":3},"timeout_ms":5000}`, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec, resp := doV1Search(t, h, c.body)
			if rec.Code != http.StatusOK {
				t.Fatalf("status = %d body=%s", rec.Code, rec.Body)
			}
			if resp.Result == nil || len(resp.Result.Communities) == 0 {
				t.Fatalf("no communities: %s", rec.Body)
			}
			if got := len(resp.Result.Communities[0].Members); got != c.members {
				t.Fatalf("members = %d, want %d (%s)", got, c.members, rec.Body)
			}
		})
	}
}

// TestV1SearchStructuredErrors pins the error-code table.
func TestV1SearchStructuredErrors(t *testing.T) {
	h := testEngine(t).Handler()
	cases := []struct {
		name   string
		body   string
		code   errorCode
		status int
	}{
		{"garbage", `not json`, "bad_request", 400},
		{"missing-vertex", `{"query":{"k":3}}`, "bad_request", 400},
		{"unknown-vertex", `{"query":{"vertex":"ghost","k":3}}`, "vertex_not_found", 404},
		{"no-k-core", `{"query":{"vertex":"loner","k":1}}`, "no_k_core", 404},
		{"bad-k", `{"query":{"vertex":"jack","k":-1}}`, "bad_k", 400},
		{"bad-theta", `{"query":{"vertex":"jack","k":3,"mode":"threshold","theta":7}}`, "bad_theta", 400},
		{"bad-tau", `{"query":{"vertex":"jack","k":3,"mode":"similar","tau":0}}`, "bad_theta", 400},
		{"bad-mode", `{"query":{"vertex":"jack","k":3,"mode":"quantum"}}`, "bad_mode", 400},
		{"bad-algorithm", `{"query":{"vertex":"jack","k":3,"algo":"quantum"}}`, "bad_algorithm", 400},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec, resp := doV1Search(t, h, c.body)
			if rec.Code != c.status {
				t.Fatalf("status = %d, want %d (%s)", rec.Code, c.status, rec.Body)
			}
			if resp.Error == nil || resp.Error.Code != c.code {
				t.Fatalf("error = %+v, want code %q", resp.Error, c.code)
			}
			if resp.Error.Message == "" {
				t.Fatal("empty error message")
			}
		})
	}
}

func TestV1SearchClientDisconnect(t *testing.T) {
	e := testEngine(t)
	h := e.Handler()
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn() // the client is already gone
	req := httptest.NewRequest("POST", "/v1/search", strings.NewReader(`{"query":{"vertex":"jack","k":3}}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != codeStatus[codeCanceled] {
		t.Fatalf("status = %d, want 499 (%s)", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), `"canceled"`) {
		t.Fatalf("body = %s, want canceled code", rec.Body)
	}
	if m := e.Metrics(); m.CanceledQueries != 1 || m.QueryErrors != 1 {
		t.Fatalf("metrics = %+v, want 1 canceled query", m)
	}
}

func TestV1SearchDeadline(t *testing.T) {
	e := testEngine(t)
	h := e.Handler()
	// An already-expired deadline on the request context: evaluation must
	// stop before any work and report 504 deadline_exceeded.
	ctx, cancelFn := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelFn()
	req := httptest.NewRequest("POST", "/v1/search", strings.NewReader(`{"query":{"vertex":"jack","k":3}}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%s)", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), `"deadline_exceeded"`) {
		t.Fatalf("body = %s, want deadline_exceeded code", rec.Body)
	}
	if m := e.Metrics(); m.TimedOutQueries != 1 {
		t.Fatalf("metrics = %+v, want 1 timed-out query", m)
	}
}

func TestV1Batch(t *testing.T) {
	h := testEngine(t).Handler()
	body := `{"queries":[
		{"vertex":"jack","k":3},
		{"vertex":"ghost","k":3},
		{"vertex":"bob","k":3,"mode":"fixed","keywords":["research","sports"]},
		{"k":3}
	],"workers":2}`
	rec := do(t, h, "POST", "/v1/batch", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d %s", rec.Code, rec.Body)
	}
	var resp struct {
		Version uint64        `json:"version"`
		Results []batchV1Item `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 4 {
		t.Fatalf("results = %d", len(resp.Results))
	}
	if resp.Results[0].Result == nil || len(resp.Results[0].Result.Communities) != 1 {
		t.Fatalf("result[0] = %+v", resp.Results[0])
	}
	if resp.Results[1].Error == nil || resp.Results[1].Error.Code != codeVertexNotFound {
		t.Fatalf("result[1] = %+v, want vertex_not_found", resp.Results[1].Error)
	}
	if resp.Results[2].Result == nil {
		t.Fatalf("result[2] = %+v", resp.Results[2])
	}
	if resp.Results[3].Error == nil || resp.Results[3].Error.Code != codeBadRequest {
		t.Fatalf("result[3] = %+v, want bad_request for missing vertex", resp.Results[3].Error)
	}

	// Client-requested workers are clamped to one per CPU — a huge value
	// must not fan out past GOMAXPROCS (and must still succeed), and an
	// unset one gets the full pool.
	capped := testEngine(t)
	if got, limit := capped.clampWorkers(100000), runtime.GOMAXPROCS(0); got != limit {
		t.Fatalf("clampWorkers(100000) = %d, want GOMAXPROCS %d", got, limit)
	}
	if got, limit := capped.clampWorkers(0), runtime.GOMAXPROCS(0); got != limit {
		t.Fatalf("clampWorkers(0) = %d, want GOMAXPROCS %d", got, limit)
	}
	if got := capped.clampWorkers(1); got != 1 {
		t.Fatalf("clampWorkers(1) = %d, want 1", got)
	}
	rec = do(t, capped.Handler(), "POST", "/v1/batch", `{"queries":[{"vertex":"jack","k":3},{"vertex":"bob","k":3}],"workers":100000}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("capped batch: %d %s", rec.Code, rec.Body)
	}
	// Empty batch: no workers, still a valid response with no results.
	rec = do(t, h, "POST", "/v1/batch", `{"queries":[]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("empty batch: %d %s", rec.Code, rec.Body)
	}
	resp.Results = nil
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Results) != 0 {
		t.Fatalf("empty batch body = %s (err %v), want empty results", rec.Body, err)
	}
	rec = do(t, h, "POST", "/v1/batch", `garbage`)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), string(codeBadRequest)) {
		t.Fatalf("garbage batch: %d %s, want 400 bad_request", rec.Code, rec.Body)
	}
}

func TestV1BatchTooManyQueries(t *testing.T) {
	e := New(testGraph(t), Config{MaxBatchQueries: 1, Logf: func(string, ...any) {}})
	rec := do(t, e.Handler(), "POST", "/v1/batch", `{"queries":[{"vertex":"jack"},{"vertex":"bob"}]}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (%s)", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), string(codeTooManyQueries)) {
		t.Fatalf("body = %s, want too_many_queries", rec.Body)
	}
}

func TestV1BodyTooLarge(t *testing.T) {
	e := New(testGraph(t), Config{MaxBodyBytes: 64, Logf: func(string, ...any) {}})
	h := e.Handler()
	big := `{"queries":[` + strings.Repeat(`{"vertex":"jack","k":3},`, 100) + `{"vertex":"jack"}]}`
	for _, target := range []string{"/v1/batch", "/v1/search"} {
		rec := do(t, h, "POST", target, big)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status = %d, want 413 (%s)", target, rec.Code, rec.Body)
		}
		if !strings.Contains(rec.Body.String(), string(codeBodyTooLarge)) {
			t.Fatalf("%s: body = %s, want body_too_large", target, rec.Body)
		}
	}
}

// TestV1BatchPerQueryTimeout wires per_query_timeout_ms through to
// BatchOptions: with a sane timeout on a tiny graph everything succeeds;
// the plumbing for actual expiry is covered by the library-level tests on
// the large fixture.
func TestV1BatchPerQueryTimeout(t *testing.T) {
	h := testEngine(t).Handler()
	rec := do(t, h, "POST", "/v1/batch", `{"queries":[{"vertex":"jack","k":3}],"per_query_timeout_ms":5000,"timeout_ms":5000}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (%s)", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), `"result"`) {
		t.Fatalf("body = %s", rec.Body)
	}
}

// TestDefaultTimeoutIsPerQueryNotPerBatch is a regression test: the server's
// DefaultTimeout bounds each query evaluation, not the whole batch — a batch
// request must not inherit a single-query-sized deadline on its shared
// context. With a generous default, every query of a multi-query batch
// succeeds; and batch item failures land in batch_query_errors, leaving the
// single-query error rate untouched.
func TestDefaultTimeoutIsPerQueryNotPerBatch(t *testing.T) {
	e := New(testGraph(t), Config{DefaultTimeout: 5 * time.Second, Logf: func(string, ...any) {}})
	h := e.Handler()
	queries := strings.Repeat(`{"vertex":"jack","k":3},`, 20)
	rec := do(t, h, "POST", "/v1/batch", `{"queries":[`+queries+`{"vertex":"ghost","k":3}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (%s)", rec.Code, rec.Body)
	}
	var resp struct {
		Results []batchV1Item `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 21 {
		t.Fatalf("results = %d", len(resp.Results))
	}
	for i, item := range resp.Results[:20] {
		if item.Error != nil {
			t.Fatalf("query %d failed under per-query default timeout: %+v", i, item.Error)
		}
	}
	m := e.Metrics()
	if m.QueryErrors != 0 {
		t.Fatalf("batch item error leaked into QueryErrors: %+v", m)
	}
	if m.BatchQueryErrors != 1 {
		t.Fatalf("BatchQueryErrors = %d, want 1 (the ghost query)", m.BatchQueryErrors)
	}
}

// TestMaxTimeoutCapsRequests: a client asking for an hour is clamped to the
// server cap; with an aggressive 1ns cap every query times out.
func TestMaxTimeoutCapsRequests(t *testing.T) {
	e := New(testGraph(t), Config{MaxTimeout: time.Nanosecond, Logf: func(string, ...any) {}})
	rec := do(t, e.Handler(), "POST", "/v1/search", `{"query":{"vertex":"jack","k":3},"timeout_ms":3600000}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%s)", rec.Code, rec.Body)
	}
	if m := e.Metrics(); m.TimedOutQueries != 1 {
		t.Fatalf("metrics = %+v, want 1 timed-out query", m)
	}
}

// TestMetricsExposeCancellationCounters: the JSON metrics payload carries
// the new counters.
func TestMetricsExposeCancellationCounters(t *testing.T) {
	h := testEngine(t).Handler()
	rec := do(t, h, "GET", "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	for _, field := range []string{"canceled_queries", "timed_out_queries"} {
		if !strings.Contains(rec.Body.String(), field) {
			t.Fatalf("metrics missing %q: %s", field, rec.Body)
		}
	}
}
