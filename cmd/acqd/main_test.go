package main

// The handler-level tests for the HTTP API live in the engine package, which
// acqd wraps. What remains here checks the wrapper's own responsibilities:
// resolving the bootstrap flags into a graph and handing it to the engine.

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/acq-search/acq/engine"
)

func TestLoadSourceErrors(t *testing.T) {
	if _, err := engine.LoadSource("/nonexistent/path.txt", "", 1.0); err == nil {
		t.Fatal("LoadSource accepted a missing file")
	}
	if _, err := engine.LoadSource("", "", 1.0); err == nil {
		t.Fatal("LoadSource accepted empty flags")
	}
	if _, err := engine.LoadSource("", "no-such-preset", 1.0); err == nil {
		t.Fatal("LoadSource accepted an unknown preset")
	}
	// A gob snapshot from before .acqm was the only binary format.
	if _, err := engine.LoadSource("../../internal/dataio/testdata/legacy-gob.snap", "", 1.0); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("legacy gob snapshot: error = %v, want one naming the bad magic", err)
	}
}

// TestServeFromFile walks the acqd bootstrap end to end: write a graph file,
// load it the way main does, and serve a query through the engine handler.
func TestServeFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.txt")
	data := "v a x\nv b x\nv c x\ne a b\ne b c\ne c a\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := engine.LoadSource(path, "", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(g, engine.Config{Logf: func(string, ...any) {}})
	req := httptest.NewRequest("POST", "/v1/search", strings.NewReader(`{"query":{"vertex":"a","k":2}}`))
	rec := httptest.NewRecorder()
	e.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body=%s", rec.Code, rec.Body)
	}
}

func TestParseCollectionSpec(t *testing.T) {
	cases := []struct {
		in   string
		name string
		src  engine.Source
		bad  bool
	}{
		{in: "wiki=wiki.snap", name: "wiki", src: engine.Source{Path: "wiki.snap"}},
		{in: "social=preset:flickr", name: "social", src: engine.Source{Preset: "flickr"}},
		{in: "social=preset:flickr@0.5", name: "social", src: engine.Source{Preset: "flickr", Scale: 0.5}},
		{in: "noequals", bad: true},
		{in: "=path", bad: true},
		{in: "name=", bad: true},
		{in: "a=preset:dblp@zero", bad: true},
		{in: "a=preset:dblp@-1", bad: true},
		{in: "a=preset:", bad: true},
		{in: "a=preset:@0.5", bad: true},
	}
	for _, c := range cases {
		name, src, err := parseCollectionSpec(c.in)
		if c.bad {
			if err == nil {
				t.Errorf("%q: accepted, want error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", c.in, err)
			continue
		}
		if name != c.name || src != c.src {
			t.Errorf("%q: got %q %+v, want %q %+v", c.in, name, src, c.name, c.src)
		}
	}
}

// TestMultiCollectionBootstrap assembles the engine the way main does with
// -in plus two -collection flags and checks that each collection answers on
// its own route.
func TestMultiCollectionBootstrap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.txt")
	data := "v a x\nv b x\nv c x\ne a b\ne b c\ne c a\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}

	e := engine.New(nil, engine.Config{Logf: func(string, ...any) {}})
	g, err := engine.LoadSource(path, "", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddCollection(engine.DefaultCollection, g); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"tri=" + path, "syn=preset:dblp@0.02"} {
		name, src, err := parseCollectionSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		g, err := src.Load()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.AddCollection(name, g); err != nil {
			t.Fatal(err)
		}
	}

	h := e.Handler()
	for _, target := range []string{"/v1/search", "/v1/collections/tri/search"} {
		req := httptest.NewRequest("POST", target, strings.NewReader(`{"query":{"vertex":"a","k":2}}`))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status = %d body=%s", target, rec.Code, rec.Body)
		}
	}
	// The synthetic collection is unlabelled; address it by dense ID with a
	// permissive k=1 (any non-isolated vertex has a 1-core).
	req := httptest.NewRequest("POST", "/v1/collections/syn/search", strings.NewReader(`{"query":{"id":0,"k":1}}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK && rec.Code != http.StatusNotFound {
		t.Fatalf("syn: status = %d body=%s", rec.Code, rec.Body)
	}
	// Healthz reports all three ready.
	req = httptest.NewRequest("GET", "/healthz", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"syn"`) {
		t.Fatalf("healthz: %d %s", rec.Code, rec.Body)
	}
}
