package engine

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	acq "github.com/acq-search/acq"
)

func testGraph(t testing.TB) *acq.Graph {
	t.Helper()
	b := acq.NewBuilder()
	b.AddVertex("jack", "research", "sports", "web")
	b.AddVertex("bob", "research", "sports", "yoga")
	b.AddVertex("john", "research", "sports", "web")
	b.AddVertex("mike", "research", "sports", "yoga")
	b.AddVertex("loner", "cats")
	for _, e := range [][2]string{{"jack", "bob"}, {"jack", "john"}, {"jack", "mike"},
		{"bob", "john"}, {"bob", "mike"}, {"john", "mike"}} {
		b.AddEdgeByLabel(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testEngine(t testing.TB) *Engine {
	t.Helper()
	return New(testGraph(t), Config{Logf: func(string, ...any) {}})
}

func do(t testing.TB, h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, target, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestRemovedEndpoints pins the end of the pre-v1 surface: the legacy
// POST /batch and GET /stats, and the routes that answered 410 for one
// release, are not mounted at all, so the mux answers them with its own 404
// or 405 while the v1 routes keep working.
func TestRemovedEndpoints(t *testing.T) {
	h := testEngine(t).Handler()
	for _, c := range [][2]string{
		{"POST", "/batch"},
		{"GET", "/stats"},
		{"GET", "/query?q=jack&k=3"},
		{"POST", "/edges"},
		{"POST", "/keywords"},
		{"POST", "/v1/edges"},
		{"POST", "/v1/keywords"},
		{"POST", "/v1/collections/default/edges"},
		{"POST", "/v1/collections/default/keywords"},
	} {
		rec := do(t, h, c[0], c[1], `{"queries":[{"q":"jack","k":3}]}`)
		if rec.Code != http.StatusNotFound && rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status = %d, want the mux's 404 or 405 (%s)", c[0], c[1], rec.Code, rec.Body)
		}
	}
	if rec := do(t, h, "POST", "/v1/batch", `{"queries":[{"vertex":"jack","k":3}]}`); rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/batch: %d %s", rec.Code, rec.Body)
	}
}

// TestUpdateThenQuery exercises the full read-write cycle: an update
// publishes a new snapshot and changes subsequent query results.
func TestUpdateThenQuery(t *testing.T) {
	e := testEngine(t)
	h := e.Handler()
	v0 := e.Graph().Version()
	rec := do(t, h, "POST", "/v1/mutations", `{"mutations":[
		{"op":"add_keyword","vertex":"loner","keyword":"sports"},
		{"op":"add_keyword","vertex":"loner","keyword":"research"},
		{"op":"insert_edge","u":"loner","v":"jack"},
		{"op":"insert_edge","u":"loner","v":"bob"},
		{"op":"insert_edge","u":"loner","v":"john"}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("mutations: %d %s", rec.Code, rec.Body)
	}
	if e.Graph().Version() != v0+5 {
		t.Fatalf("version = %d, want %d", e.Graph().Version(), v0+5)
	}
	rec = do(t, h, "POST", "/v1/search", `{"query":{"vertex":"loner","k":3}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d %s", rec.Code, rec.Body)
	}
	var resp struct {
		Result *acq.Result `json:"result"`
	}
	json.Unmarshal(rec.Body.Bytes(), &resp)
	if resp.Result == nil || len(resp.Result.Communities) != 1 || len(resp.Result.Communities[0].Members) != 5 {
		t.Fatalf("loner's community = %s", rec.Body)
	}
}

func TestMetricsAndCaching(t *testing.T) {
	e := testEngine(t)
	h := e.Handler()
	for i := 0; i < 3; i++ {
		if rec := do(t, h, "POST", "/v1/search", `{"query":{"vertex":"jack","k":3}}`); rec.Code != http.StatusOK {
			t.Fatalf("query %d: %d", i, rec.Code)
		}
	}
	m := e.Metrics()
	if m.Queries != 3 || m.QueryErrors != 0 {
		t.Fatalf("metrics = %+v", m)
	}
	// Identical repeated queries on one snapshot: 1 miss, 2 hits.
	if m.CacheMisses != 1 || m.CacheHits != 2 {
		t.Fatalf("cache hits/misses = %d/%d, want 2/1", m.CacheHits, m.CacheMisses)
	}
	// An update publishes a new snapshot with a cold cache.
	do(t, h, "POST", "/v1/mutations", `{"mutations":[{"op":"insert_edge","u":"loner","v":"jack"}]}`)
	do(t, h, "POST", "/v1/search", `{"query":{"vertex":"jack","k":3}}`)
	m = e.Metrics()
	if m.Updates != 1 {
		t.Fatalf("updates = %d", m.Updates)
	}
	if m.CacheMisses != 2 {
		t.Fatalf("post-update misses = %d, want 2 (new snapshot, cold cache)", m.CacheMisses)
	}
	// The engine built the index at New time, so the build telemetry must be
	// populated: a positive duration and a resolved worker count ≥ 1.
	if m.IndexBuildNanos <= 0 || m.IndexBuildWorkers < 1 {
		t.Fatalf("index build telemetry = %d ns / %d workers, want positive", m.IndexBuildNanos, m.IndexBuildWorkers)
	}
	rec := do(t, h, "GET", "/metrics", "")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "snapshot_version") {
		t.Fatalf("metrics endpoint: %d %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "index_build_nanos") {
		t.Fatalf("metrics endpoint missing index build fields: %s", rec.Body)
	}
	rec = do(t, h, "GET", "/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
}

func TestCacheDisabled(t *testing.T) {
	e := New(testGraph(t), Config{CacheSize: -1, Logf: func(string, ...any) {}})
	h := e.Handler()
	for i := 0; i < 3; i++ {
		do(t, h, "POST", "/v1/search", `{"query":{"vertex":"jack","k":3}}`)
	}
	m := e.Metrics()
	if m.CacheHits != 0 || m.CacheMisses != 0 {
		t.Fatalf("disabled cache counted hits/misses: %+v", m)
	}
}

// TestConcurrentQueriesAndUpdates hammers the handler from parallel readers
// while writers toggle edges — the serving-layer version of the snapshot
// race regression test (run with -race).
func TestConcurrentQueriesAndUpdates(t *testing.T) {
	e := testEngine(t)
	h := e.Handler()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			targets := []string{"jack", "bob", "john", "mike"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				body := fmt.Sprintf(`{"query":{"vertex":%q,"k":3}}`, targets[(r+i)%len(targets)])
				rec := do(t, h, "POST", "/v1/search", body)
				if rec.Code != http.StatusOK && rec.Code != http.StatusNotFound {
					t.Errorf("reader: unexpected status %d: %s", rec.Code, rec.Body)
					return
				}
			}
		}(r)
	}
	for i := 0; i < 60; i++ {
		op := "insert_edge"
		if i%2 == 1 {
			op = "remove_edge"
		}
		do(t, h, "POST", "/v1/mutations", `{"mutations":[
			{"op":"`+op+`","u":"loner","v":"jack"},
			{"op":"add_keyword","vertex":"loner","keyword":"k`+fmt.Sprint(i%7)+`"}]}`)
	}
	close(stop)
	wg.Wait()
}
