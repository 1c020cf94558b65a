package engine

// Tests for the multi-collection serving surface: the named-collection
// registry, the /v1/collections lifecycle endpoints, per-collection routing
// of search/batch/mutations, per-collection readiness in /healthz and
// /metrics, and the concurrent create/drop/swap lifecycle under load (run
// with -race).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// waitState polls the named collection until it reaches want.
func waitState(t *testing.T, e *Engine, name string, want CollectionState) *Collection {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		c, ok := e.Collection(name)
		if ok && c.State() == want {
			return c
		}
		if time.Now().After(deadline) {
			state := CollectionState(-1)
			if ok {
				state = c.State()
			}
			t.Fatalf("collection %q did not reach %v (stuck at %v)", name, want, state)
		}
		time.Sleep(time.Millisecond)
	}
}

// writeTriangle writes a 3-vertex text graph file: a-b-c-a, all sharing "x".
func writeTriangle(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tri.txt")
	data := "v a x\nv b x\nv c x\ne a b\ne b c\ne c a\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

type errEnvelope struct {
	Error *wireError `json:"error"`
}

func decodeErr(t *testing.T, rec *httptest.ResponseRecorder) *wireError {
	t.Helper()
	var env errEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("bad error body %q: %v", rec.Body, err)
	}
	if env.Error == nil {
		t.Fatalf("no structured error in %q", rec.Body)
	}
	return env.Error
}

// TestCollectionLifecycle walks the acceptance path: an engine serving its
// default collection gains a second collection at runtime via
// POST /v1/collections, both answer searches with independent snapshots,
// and DELETE removes the new one again.
func TestCollectionLifecycle(t *testing.T) {
	e := testEngine(t)
	h := e.Handler()
	path := writeTriangle(t)

	rec := do(t, h, "POST", "/v1/collections", fmt.Sprintf(`{"name":"tri","path":%q}`, path))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("create: status = %d body=%s", rec.Code, rec.Body)
	}
	var created collectionInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	if created.Name != "tri" {
		t.Fatalf("created = %+v", created)
	}
	waitState(t, e, "tri", CollectionReady)

	// The listing shows both collections.
	rec = do(t, h, "GET", "/v1/collections", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("list: %d %s", rec.Code, rec.Body)
	}
	var list struct {
		Collections []collectionInfo `json:"collections"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Collections) != 2 {
		t.Fatalf("collections = %+v", list.Collections)
	}
	if list.Collections[0].Name != "default" || list.Collections[1].Name != "tri" {
		t.Fatalf("collections order = %+v", list.Collections)
	}

	// The detailed view carries state, stats and snapshot version.
	rec = do(t, h, "GET", "/v1/collections/tri", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("get: %d %s", rec.Code, rec.Body)
	}
	var info struct {
		collectionInfo
		Stats *struct{ Vertices, Edges, KMax int } `json:"stats"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.State != "ready" || !info.HasIndex || info.Vertices != 3 || info.Edges != 3 {
		t.Fatalf("info = %+v", info)
	}
	if info.Stats == nil || info.Stats.Vertices != 3 || info.Stats.Edges != 3 || info.Stats.KMax != 2 {
		t.Fatalf("stats = %+v", info.Stats)
	}

	// Search both collections: independent graphs, independent answers.
	rec, resp := doV1Search(t, h, `{"query":{"vertex":"jack","k":3}}`)
	if rec.Code != http.StatusOK || len(resp.Result.Communities[0].Members) != 4 {
		t.Fatalf("default search: %d %s", rec.Code, rec.Body)
	}
	rec = do(t, h, "POST", "/v1/collections/tri/search", `{"query":{"vertex":"a","k":2}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("tri search: %d %s", rec.Code, rec.Body)
	}
	var triResp v1SearchResp
	if err := json.Unmarshal(rec.Body.Bytes(), &triResp); err != nil {
		t.Fatal(err)
	}
	if len(triResp.Result.Communities) != 1 || len(triResp.Result.Communities[0].Members) != 3 {
		t.Fatalf("tri community = %s", rec.Body)
	}
	// "jack" exists only in the default collection.
	rec = do(t, h, "POST", "/v1/collections/tri/search", `{"query":{"vertex":"jack","k":2}}`)
	if rec.Code != http.StatusNotFound || decodeErr(t, rec).Code != codeVertexNotFound {
		t.Fatalf("cross-collection vertex: %d %s", rec.Code, rec.Body)
	}

	// Batches route per collection too.
	rec = do(t, h, "POST", "/v1/collections/tri/batch", `{"queries":[{"vertex":"a","k":2},{"vertex":"b","k":2}]}`)
	if rec.Code != http.StatusOK || strings.Count(rec.Body.String(), `"result"`) != 2 {
		t.Fatalf("tri batch: %d %s", rec.Code, rec.Body)
	}

	// Mutations on tri are invisible to default.
	v0 := e.Graph().Version()
	rec = do(t, h, "POST", "/v1/collections/tri/mutations", `{"mutations":[{"op":"remove_edge","u":"a","v":"b"}]}`)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "true") {
		t.Fatalf("tri edge remove: %d %s", rec.Code, rec.Body)
	}
	if e.Graph().Version() != v0 {
		t.Fatal("mutating tri bumped the default collection's version")
	}

	// Delete: the name disappears, subsequent requests get the structured 404.
	rec = do(t, h, "DELETE", "/v1/collections/tri", "")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"deleted":true`) {
		t.Fatalf("delete: %d %s", rec.Code, rec.Body)
	}
	rec = do(t, h, "POST", "/v1/collections/tri/search", `{"query":{"vertex":"a","k":2}}`)
	if rec.Code != http.StatusNotFound || decodeErr(t, rec).Code != codeCollectionNotFound {
		t.Fatalf("post-delete search: %d %s", rec.Code, rec.Body)
	}
	rec = do(t, h, "DELETE", "/v1/collections/tri", "")
	if rec.Code != http.StatusNotFound || decodeErr(t, rec).Code != codeCollectionNotFound {
		t.Fatalf("double delete: %d %s", rec.Code, rec.Body)
	}
}

// TestCollectionCreateErrors pins the lifecycle error codes.
func TestCollectionCreateErrors(t *testing.T) {
	e := testEngine(t)
	h := e.Handler()
	cases := []struct {
		name   string
		body   string
		code   errorCode
		status int
	}{
		{"garbage", `not json`, codeBadRequest, 400},
		{"empty-name", `{"preset":"dblp"}`, codeBadRequest, 400},
		{"bad-name", `{"name":"a/b"}`, codeBadRequest, 400},
		{"dot-name", `{"name":".."}`, codeBadRequest, 400},
		{"long-name", `{"name":"` + strings.Repeat("x", 65) + `"}`, codeBadRequest, 400},
		{"both-sources", `{"name":"z","path":"g.txt","preset":"dblp"}`, codeBadRequest, 400},
		{"negative-scale", `{"name":"z","preset":"dblp","scale":-0.5}`, codeBadRequest, 400},
		{"scale-without-preset", `{"name":"z","scale":0.5}`, codeBadRequest, 400},
		{"duplicate", `{"name":"default"}`, codeCollectionExists, 409},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := do(t, h, "POST", "/v1/collections", c.body)
			if rec.Code != c.status {
				t.Fatalf("status = %d, want %d (%s)", rec.Code, c.status, rec.Body)
			}
			if got := decodeErr(t, rec).Code; got != c.code {
				t.Fatalf("code = %q, want %q", got, c.code)
			}
		})
	}

	// Unknown collections: structured 404 on get, delete, and every data route.
	for _, req := range [][2]string{
		{"GET", "/v1/collections/ghost"},
		{"DELETE", "/v1/collections/ghost"},
		{"POST", "/v1/collections/ghost/search"},
		{"POST", "/v1/collections/ghost/batch"},
		{"POST", "/v1/collections/ghost/mutations"},
		{"POST", "/v1/collections/ghost/checkpoint"},
	} {
		rec := do(t, h, req[0], req[1], `{}`)
		if rec.Code != http.StatusNotFound || decodeErr(t, rec).Code != codeCollectionNotFound {
			t.Fatalf("%s %s: %d %s", req[0], req[1], rec.Code, rec.Body)
		}
	}
}

// TestCollectionAsyncFailure: a create whose load fails lands in the failed
// state with the cause queryable, serves collection_failed on the data
// plane, and can be deleted to free the name.
func TestCollectionAsyncFailure(t *testing.T) {
	e := testEngine(t)
	h := e.Handler()
	rec := do(t, h, "POST", "/v1/collections", `{"name":"broken","path":"/nonexistent/graph.txt"}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	waitState(t, e, "broken", CollectionFailed)

	rec = do(t, h, "GET", "/v1/collections/broken", "")
	var info collectionInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.State != "failed" || info.Error == "" {
		t.Fatalf("info = %+v", info)
	}
	rec = do(t, h, "POST", "/v1/collections/broken/search", `{"query":{"vertex":"a","k":2}}`)
	if rec.Code != http.StatusInternalServerError || decodeErr(t, rec).Code != codeCollectionFailed {
		t.Fatalf("failed-collection search: %d %s", rec.Code, rec.Body)
	}
	// Deleting the failed slot frees the name for a retry.
	if rec = do(t, h, "DELETE", "/v1/collections/broken", ""); rec.Code != http.StatusOK {
		t.Fatalf("delete failed collection: %d %s", rec.Code, rec.Body)
	}
	rec = do(t, h, "POST", "/v1/collections", `{"name":"broken"}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("re-create after delete: %d %s", rec.Code, rec.Body)
	}
	waitState(t, e, "broken", CollectionReady)
}

// TestIndexBuildingResponses: while a collection is building, its data
// plane answers 503 index_building, its status is queryable, and healthz
// stays OK as long as the *default* collection is ready.
func TestIndexBuildingResponses(t *testing.T) {
	e := testEngine(t)
	h := e.Handler()
	// White-box: hold a collection in the building state deterministically
	// (an HTTP-created one races to ready too quickly to observe reliably).
	c, err := e.reg.reserve("slow", "test")
	if err != nil {
		t.Fatal(err)
	}

	rec := do(t, h, "GET", "/v1/collections/slow", "")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"building"`) {
		t.Fatalf("status while building: %d %s", rec.Code, rec.Body)
	}
	for _, target := range []string{"search", "batch", "mutations"} {
		rec := do(t, h, "POST", "/v1/collections/slow/"+target, `{}`)
		if rec.Code != http.StatusServiceUnavailable || decodeErr(t, rec).Code != codeIndexBuilding {
			t.Fatalf("%s while building: %d %s", target, rec.Code, rec.Body)
		}
	}
	// A building sibling never fails the probe; the default is ready.
	if rec := do(t, h, "GET", "/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthz with building sibling: %d %s", rec.Code, rec.Body)
	}

	g := testGraph(t)
	e.prepare("slow", g)
	c.complete(g)
	rec = do(t, h, "POST", "/v1/collections/slow/search", `{"query":{"vertex":"jack","k":3}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("search after build: %d %s", rec.Code, rec.Body)
	}
}

// TestHealthzReadiness: the probe reports per-collection readiness and
// returns 503 while the default collection's index is still building (and
// when it failed), 200 once it is ready.
func TestHealthzReadiness(t *testing.T) {
	e := New(nil, Config{Logf: func(string, ...any) {}})
	h := e.Handler()

	// No collections at all: the process is alive and nothing is unready.
	if rec := do(t, h, "GET", "/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("empty healthz: %d %s", rec.Code, rec.Body)
	}

	// Default building → 503 with build_in_progress.
	c, err := e.reg.reserve(DefaultCollection, "test")
	if err != nil {
		t.Fatal(err)
	}
	rec := do(t, h, "GET", "/healthz", "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while default builds: %d %s", rec.Code, rec.Body)
	}
	var probe struct {
		OK          bool                        `json:"ok"`
		Collections map[string]healthCollection `json:"collections"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &probe); err != nil {
		t.Fatal(err)
	}
	if probe.OK || !probe.Collections["default"].BuildInProgress {
		t.Fatalf("probe = %+v", probe)
	}

	// Default ready → 200 with index + version visible.
	g := testGraph(t)
	e.prepare(DefaultCollection, g)
	c.complete(g)
	rec = do(t, h, "GET", "/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz after build: %d %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &probe); err != nil {
		t.Fatal(err)
	}
	if !probe.OK || !probe.Collections["default"].Index || probe.Collections["default"].State != "ready" {
		t.Fatalf("probe = %+v", probe)
	}

	// Failed default → 503 with the cause.
	e2 := New(nil, Config{Logf: func(string, ...any) {}})
	c2, err := e2.reg.reserve(DefaultCollection, "test")
	if err != nil {
		t.Fatal(err)
	}
	c2.fail(fmt.Errorf("boom"))
	rec = do(t, e2.Handler(), "GET", "/healthz", "")
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "boom") {
		t.Fatalf("healthz with failed default: %d %s", rec.Code, rec.Body)
	}
}

// TestNoDefaultCollection: an engine without a default collection serves
// structured collection_not_found on the sugar routes.
func TestNoDefaultCollection(t *testing.T) {
	e := New(nil, Config{Logf: func(string, ...any) {}})
	if e.Graph() != nil {
		t.Fatal("Graph() should be nil without a default collection")
	}
	h := e.Handler()
	rec := do(t, h, "POST", "/v1/search", `{"query":{"vertex":"a","k":2}}`)
	if rec.Code != http.StatusNotFound || decodeErr(t, rec).Code != codeCollectionNotFound {
		t.Fatalf("sugar search: %d %s", rec.Code, rec.Body)
	}
	for _, req := range [][2]string{{"POST", "/v1/batch"}, {"POST", "/v1/mutations"}} {
		rec := do(t, h, req[0], req[1], `{}`)
		if rec.Code != http.StatusNotFound || decodeErr(t, rec).Code != codeCollectionNotFound {
			t.Fatalf("%s %s without default: %d %s", req[0], req[1], rec.Code, rec.Body)
		}
	}
}

// TestMutationBodyLimit: oversized mutation bodies get the structured 413
// before any parsing or graph work. (The wider mutation protocol —
// per-item results, errors, cancellation — lives in mutations_test.go.)
func TestMutationBodyLimit(t *testing.T) {
	small := New(testGraph(t), Config{MaxBodyBytes: 8, Logf: func(string, ...any) {}})
	rec := do(t, small.Handler(), "POST", "/v1/mutations", `{"mutations":[{"op":"insert_edge","u":"loner","v":"jack"}]}`)
	if rec.Code != http.StatusRequestEntityTooLarge || decodeErr(t, rec).Code != codeBodyTooLarge {
		t.Fatalf("oversized mutation: %d %s", rec.Code, rec.Body)
	}
}

// TestDefaultRouteDifferential: the sugar route and the explicit
// default-collection route are the same endpoint — byte-identical responses
// for search, batch and mutations.
func TestDefaultRouteDifferential(t *testing.T) {
	pairs := []struct {
		name         string
		sugar, named string
		body         string
	}{
		{"search", "/v1/search", "/v1/collections/default/search",
			`{"query":{"vertex":"jack","k":3,"keywords":["research","sports"]}}`},
		{"batch", "/v1/batch", "/v1/collections/default/batch",
			`{"queries":[{"vertex":"jack","k":3},{"vertex":"ghost","k":3},{"vertex":"mike","k":3,"mode":"truss","max_hops":1}]}`},
		{"search-error", "/v1/search", "/v1/collections/default/search",
			`{"query":{"vertex":"ghost","k":3}}`},
		{"mutations", "/v1/mutations", "/v1/collections/default/mutations",
			`{"mutations":[{"op":"add_keyword","vertex":"loner","keyword":"diff"}]}`},
	}
	for _, p := range pairs {
		t.Run(p.name, func(t *testing.T) {
			// Fresh engines so caches, versions and counters line up exactly.
			sugar := do(t, testEngine(t).Handler(), "POST", p.sugar, p.body)
			named := do(t, testEngine(t).Handler(), "POST", p.named, p.body)
			if sugar.Code != named.Code {
				t.Fatalf("status: sugar %d vs named %d", sugar.Code, named.Code)
			}
			if !bytes.Equal(sugar.Body.Bytes(), named.Body.Bytes()) {
				t.Fatalf("bodies differ:\nsugar: %s\nnamed: %s", sugar.Body, named.Body)
			}
		})
	}
}

// TestPerCollectionMetrics: counters are attributed to the collection that
// served the request, and the top-level fields aggregate across collections.
func TestPerCollectionMetrics(t *testing.T) {
	e := testEngine(t)
	if _, err := e.AddCollection("b", testGraph(t)); err != nil {
		t.Fatal(err)
	}
	h := e.Handler()
	do(t, h, "POST", "/v1/search", `{"query":{"vertex":"jack","k":3}}`)
	do(t, h, "POST", "/v1/search", `{"query":{"vertex":"jack","k":3}}`)
	do(t, h, "POST", "/v1/collections/b/search", `{"query":{"vertex":"bob","k":3}}`)
	do(t, h, "POST", "/v1/collections/b/mutations", `{"mutations":[{"op":"insert_edge","u":"loner","v":"jack"}]}`)

	m := e.Metrics()
	def, b := m.Collections["default"], m.Collections["b"]
	if def.Queries != 2 || b.Queries != 1 {
		t.Fatalf("per-collection queries = %d/%d, want 2/1", def.Queries, b.Queries)
	}
	if b.Updates != 1 || def.Updates != 0 {
		t.Fatalf("per-collection updates = %d/%d, want 1/0", b.Updates, def.Updates)
	}
	if m.Queries != 3 || m.Updates != 1 {
		t.Fatalf("aggregates = %d queries / %d updates, want 3/1", m.Queries, m.Updates)
	}
	// Repeated identical default queries: one miss then one hit, per
	// collection; b's single query is one miss.
	if def.CacheHits != 1 || def.CacheMisses != 1 || b.CacheMisses != 1 {
		t.Fatalf("cache counters: default %d/%d, b %d/%d", def.CacheHits, def.CacheMisses, b.CacheHits, b.CacheMisses)
	}
	if def.State != "ready" || b.SnapshotVersion != e.Metrics().Collections["b"].SnapshotVersion {
		t.Fatalf("collection metrics = %+v", def)
	}
	// The JSON payload carries the breakdown.
	rec := do(t, h, "GET", "/metrics", "")
	if !strings.Contains(rec.Body.String(), `"collections"`) || !strings.Contains(rec.Body.String(), `"b"`) {
		t.Fatalf("metrics payload missing collections: %s", rec.Body)
	}
}

// TestConcurrentCollectionLifecycle is the -race regression for the
// registry: readers and writers hammer the default collection and a sibling
// while a lifecycle goroutine creates, drops and swaps collections.
// Searches against a live collection must succeed; searches racing a drop
// may only fail with the structured collection_not_found.
func TestConcurrentCollectionLifecycle(t *testing.T) {
	e := testEngine(t)
	if _, err := e.AddCollection("sibling", testGraph(t)); err != nil {
		t.Fatal(err)
	}
	h := e.Handler()
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Readers on the default collection and the sibling.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			targets := []string{"/v1/search", "/v1/collections/sibling/search"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rec := do(t, h, "POST", targets[(r+i)%2], `{"query":{"vertex":"jack","k":3}}`)
				if rec.Code != http.StatusOK && rec.Code != http.StatusNotFound {
					t.Errorf("reader: unexpected status %d: %s", rec.Code, rec.Body)
					return
				}
			}
		}(r)
	}
	// Readers on the churning collection: only 200 (alive) or the
	// structured 404 (dropped) are acceptable.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rec := do(t, h, "POST", "/v1/collections/churn/search", `{"query":{"vertex":"jack","k":3}}`)
			switch rec.Code {
			case http.StatusOK, http.StatusServiceUnavailable:
			case http.StatusNotFound:
				// Either the collection is gone, or the empty swapped-in
				// graph doesn't know the vertex — both are structured 404s.
				if code := decodeErr(t, rec).Code; code != codeCollectionNotFound && code != codeVertexNotFound {
					t.Errorf("churn reader: wrong 404 code: %s", rec.Body)
					return
				}
			default:
				t.Errorf("churn reader: unexpected status %d: %s", rec.Code, rec.Body)
				return
			}
		}
	}()

	// Writers mutate default and sibling while the lifecycle churns.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			op := "insert_edge"
			if i%2 == 1 {
				op = "remove_edge"
			}
			do(t, h, "POST", "/v1/mutations", `{"mutations":[{"op":"`+op+`","u":"loner","v":"jack"}]}`)
			do(t, h, "POST", "/v1/collections/sibling/mutations", `{"mutations":[
				{"op":"`+op+`","u":"loner","v":"mike"},
				{"op":"add_keyword","vertex":"loner","keyword":"k`+fmt.Sprint(i%5)+`"}]}`)
		}
	}()

	// Lifecycle churn: create "churn" (swapping between a preloaded graph
	// and an HTTP-created empty collection), then drop it again.
	for i := 0; i < 15; i++ {
		if i%2 == 0 {
			if _, err := e.AddCollection("churn", testGraph(t)); err != nil {
				t.Errorf("add churn: %v", err)
				break
			}
		} else {
			rec := do(t, h, "POST", "/v1/collections", `{"name":"churn"}`)
			if rec.Code != http.StatusAccepted {
				t.Errorf("create churn: %d %s", rec.Code, rec.Body)
				break
			}
			waitState(t, e, "churn", CollectionReady)
		}
		do(t, h, "POST", "/v1/collections/churn/search", `{"query":{"vertex":"jack","k":3}}`)
		e.reg.Delete("churn")
	}

	close(stop)
	wg.Wait()
}
