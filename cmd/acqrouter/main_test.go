package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

func TestIsRead(t *testing.T) {
	for _, c := range []struct {
		method, path string
		read         bool
	}{
		{"POST", "/v1/search", true},
		{"POST", "/v1/batch", true},
		{"POST", "/v1/collections/wiki/search", true},
		{"POST", "/v1/collections/wiki/batch", true},
		{"GET", "/v1/collections", true},
		{"GET", "/healthz", true},
		{"POST", "/v1/mutations", false},
		{"POST", "/v1/collections/wiki/mutations", false},
		{"POST", "/v1/collections/wiki/checkpoint", false},
		{"POST", "/v1/collections", false},
		{"DELETE", "/v1/collections/wiki", false},
		{"GET", "/v1/replication/collections", false},
		{"GET", "/v1/replication/collections/wiki/tail", false},
		{"POST", "/batch", false}, // the removed legacy batch is no read
	} {
		if got := isRead(httptest.NewRequest(c.method, c.path, nil)); got != c.read {
			t.Errorf("isRead(%s %s) = %v, want %v", c.method, c.path, got, c.read)
		}
	}
}

// countingBackend is an upstream that answers 200 and counts its requests.
func countingBackend(t *testing.T) (*httptest.Server, *atomic.Int64) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.WriteString(w, `{"ok":true}`)
	}))
	t.Cleanup(srv.Close)
	return srv, &hits
}

// refusedURL is the address of a closed server: dials to it are refused.
func refusedURL() string {
	srv := httptest.NewServer(http.NotFoundHandler())
	srv.Close()
	return srv.URL
}

func TestRoutingAndFallback(t *testing.T) {
	leader, leaderHits := countingBackend(t)
	replica, replicaHits := countingBackend(t)
	dead := refusedURL()

	// A read whose replica refuses the dial falls back to the leader and
	// takes that replica out of rotation.
	rt := newRouter(leader.URL, []string{dead}, 1<<10)
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/search", strings.NewReader(`{"query":{"id":0}}`)))
	if rec.Code != http.StatusOK || rec.Header().Get("X-Acq-Upstream") != leader.URL {
		t.Fatalf("read with a dead replica: %d via %q, want 200 via the leader", rec.Code, rec.Header().Get("X-Acq-Upstream"))
	}
	if rt.replicas[0].healthy.Load() {
		t.Fatal("the replica that refused the dial is still marked healthy")
	}

	// A write never reaches a replica, even a healthy one.
	rt = newRouter(leader.URL, []string{replica.URL}, 1<<10)
	leaderHits.Store(0)
	rec = httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/mutations", strings.NewReader(`{"mutations":[]}`)))
	if rec.Code != http.StatusOK || leaderHits.Load() != 1 || replicaHits.Load() != 0 {
		t.Fatalf("write: %d, leader hits %d, replica hits %d; want 200, 1, 0", rec.Code, leaderHits.Load(), replicaHits.Load())
	}
	rec = httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/batch", strings.NewReader(`{"queries":[]}`)))
	if rec.Header().Get("X-Acq-Upstream") != replica.URL {
		t.Fatalf("read went to %q, want the healthy replica", rec.Header().Get("X-Acq-Upstream"))
	}

	// The router's own errors are JSON and say so.
	for _, c := range []struct {
		rt     *router
		body   string
		status int
		code   string
	}{
		{newRouter(leader.URL, nil, 8), `{"query":{"id":0}}`, http.StatusRequestEntityTooLarge, "body_too_large"},
		{newRouter(dead, []string{dead}, 1<<10), `{}`, http.StatusBadGateway, "no_backend"},
	} {
		rec := httptest.NewRecorder()
		c.rt.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/search", strings.NewReader(c.body)))
		if rec.Code != c.status || !strings.Contains(rec.Body.String(), `"code":"`+c.code+`"`) {
			t.Errorf("%s: %d %s, want %d", c.code, rec.Code, rec.Body, c.status)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q, want application/json", c.code, ct)
		}
	}
}
