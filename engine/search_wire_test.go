package engine

// Tests for the wire form of POST /v1/search: the handler writes the
// snapshot's memoised result encoding, and the body must be exactly what
// encoding the response map would give, on a cache miss, on a hit and with
// the cache disabled. FuzzSearchV1 holds arbitrary bodies to the v1
// contract.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"

	acq "github.com/acq-search/acq"
)

// searchWireCases are one answer of each shape on testGraph: a fallback to
// the plain k-ĉore, a labelled community, the no_k_core error, and a core
// query at ε = 0.1.
var searchWireCases = []struct {
	name  string
	body  string
	query acq.Query
}{
	{"fallback", `{"query":{"vertex":"jack","k":3,"keywords":["cats"]}}`,
		acq.Query{Vertex: "jack", K: 3, Keywords: []string{"cats"}}},
	{"labelled", `{"query":{"vertex":"jack","k":3}}`,
		acq.Query{Vertex: "jack", K: 3}},
	{"no-k-core", `{"query":{"vertex":"jack","k":4}}`,
		acq.Query{Vertex: "jack", K: 4}},
	{"epsilon", `{"query":{"vertex":"jack","k":3,"epsilon":0.1}}`,
		acq.Query{Vertex: "jack", K: 3, Epsilon: 0.1}},
}

// wantSearchBody is the body and status the v1 search handler answered
// before it served memoised encodings: the response map run through
// json.Encoder, for an answer computed by an uncached snapshot's Search.
func wantSearchBody(t *testing.T, ref *acq.Snapshot, version uint64, q acq.Query) (int, []byte, acq.Result) {
	t.Helper()
	res, err := ref.Search(context.Background(), q)
	var v map[string]any
	status := http.StatusOK
	if err != nil {
		var code errorCode
		code, status = errorInfo(err)
		v = map[string]any{"error": wireError{Code: code, Message: err.Error()}}
	} else {
		v = map[string]any{"version": version, "result": res}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return status, buf.Bytes(), res
}

// TestV1SearchBodyIsTheEncodedResult: every case answers byte for byte what
// encoding the response map gives, on the miss, on the hit and with the
// result cache off, and the approx counters count each answer once.
func TestV1SearchBodyIsTheEncodedResult(t *testing.T) {
	g := testGraph(t)
	e := New(g, Config{Logf: func(string, ...any) {}})
	h := e.Handler()
	ref := testGraph(t)
	ref.BuildIndex()
	ref.SetResultCacheSize(-1)
	refSnap := ref.Snapshot()

	var approx, inexact uint64
	for _, phase := range []string{"miss", "hit", "cache-off"} {
		if phase == "cache-off" {
			g.SetResultCacheSize(-1)
		}
		for _, c := range searchWireCases {
			hits, _ := g.ResultCacheStats()
			status, want, res := wantSearchBody(t, refSnap, g.Snapshot().Version(), c.query)
			if c.name == "fallback" && (status != http.StatusOK || !res.Fallback) {
				t.Fatalf("the fallback case answers %+v", res)
			}
			rec := do(t, h, "POST", "/v1/search", c.body)
			if rec.Code != status || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("%s on the %s: %d\n%s\nwant %d\n%s", c.name, phase, rec.Code, rec.Body, status, want)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("%s on the %s: Content-Type %q", c.name, phase, ct)
			}
			hit, _ := g.ResultCacheStats()
			if wantHit := phase == "hit" && status == http.StatusOK; (hit > hits) != wantHit {
				t.Fatalf("%s on the %s: cache hits %d → %d", c.name, phase, hits, hit)
			}
			if c.query.Epsilon > 0 {
				approx++
				if !res.Exact {
					inexact++
				}
			}
		}
	}

	var m Metrics
	if err := json.Unmarshal(do(t, h, "GET", "/metrics", "").Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.ApproxQueries != approx || m.InexactResults != inexact {
		t.Fatalf("/metrics approx_queries %d inexact_results %d, want %d and %d",
			m.ApproxQueries, m.InexactResults, approx, inexact)
	}
}

// FuzzSearchV1 posts arbitrary bodies to /v1/search, each twice so the
// second can answer from the result cache. Every response is either a 200
// whose body is the encoded {"result", "version"} map, the same both times,
// or a structured v1 error on its code's status. Nothing may panic.
func FuzzSearchV1(f *testing.F) {
	h := testEngine(f).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		var first []byte
		for call := 0; call < 2; call++ {
			rec := do(t, h, "POST", "/v1/search", string(body))
			if rec.Code == http.StatusOK {
				checkSearchBody(t, rec.Body.Bytes())
				if first != nil && !bytes.Equal(rec.Body.Bytes(), first) {
					t.Fatalf("the repeat answered\n%s\nthe first\n%s", rec.Body, first)
				}
				first = rec.Body.Bytes()
				continue
			}
			var resp struct {
				Error *wireError `json:"error"`
			}
			dec := json.NewDecoder(rec.Body)
			dec.DisallowUnknownFields()
			if err := dec.Decode(&resp); err != nil || resp.Error == nil {
				t.Fatalf("status %d with an unstructured body %q (%v)", rec.Code, rec.Body, err)
			}
			if status, ok := codeStatus[resp.Error.Code]; !ok || status != rec.Code || resp.Error.Message == "" {
				t.Fatalf("status %d with error %+v", rec.Code, resp.Error)
			}
		}
	})
}

// checkSearchBody fails t unless body is a search response: an object of
// exactly result and version that json.Encoder writes back byte for byte.
func checkSearchBody(t *testing.T, body []byte) {
	t.Helper()
	var resp struct {
		Result  *acq.Result `json:"result"`
		Version *uint64     `json:"version"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&resp); err != nil || resp.Result == nil || resp.Version == nil {
		t.Fatalf("200 with body %q (%v)", body, err)
	}
	var again bytes.Buffer
	if err := json.NewEncoder(&again).Encode(map[string]any{"version": *resp.Version, "result": *resp.Result}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), body) {
		t.Fatalf("200 body\n%s\nre-encodes as\n%s", body, again.Bytes())
	}
	if dec.More() {
		t.Fatal("trailing data after the search response")
	}
}
