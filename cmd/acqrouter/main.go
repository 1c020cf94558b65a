// Command acqrouter is the cluster tier's thin read router: it spreads
// search/batch traffic across a set of read replicas with failure-aware
// round-robin and forwards everything else (mutations, collection lifecycle,
// checkpoints) to the leader.
//
// The router is deliberately dumb: it holds no replication state, keeps no
// per-collection routing table, and trusts the replicas' own /healthz (a
// replica whose default collection is not ready answers 503 there and is
// taken out of rotation until it recovers). A read that fails to reach one
// replica is retried on the next, and the leader is the fallback of last
// resort, so a router in front of a fully degraded replica set degrades to
// leader-only serving instead of erroring.
//
// Usage:
//
//	acqrouter -leader http://leader:8475 \
//	    -replicas http://r1:8476,http://r2:8477 [-listen :8480]
//
// Reads are GET requests and the POST search/batch endpoints (/v1/search,
// /v1/batch, /v1/collections/{name}/search|batch); every other request is a
// write and goes to the leader only. Replication-plane
// reads (/v1/replication/*) also pin to the leader so chained followers see
// one consistent history.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

func main() {
	listen := flag.String("listen", ":8480", "router listen address")
	leader := flag.String("leader", "", "leader base URL (required; receives writes and is the read fallback)")
	replicasArg := flag.String("replicas", "", "comma-separated read replica base URLs")
	healthEvery := flag.Duration("health-interval", 2*time.Second, "replica health-poll cadence")
	maxBody := flag.Int64("max-body-bytes", 1<<20, "max request body buffered for retry, in bytes")
	flag.Parse()

	if *leader == "" {
		log.Fatal("acqrouter: -leader is required")
	}
	rt := newRouter(*leader, splitURLs(*replicasArg), *maxBody)
	go rt.healthLoop(*healthEvery)
	log.Printf("acqrouter: routing reads across %d replica(s) (leader %s) on %s",
		len(rt.replicas), rt.leader, *listen)
	log.Fatal(http.ListenAndServe(*listen, rt))
}

func splitURLs(arg string) []string {
	var out []string
	for _, u := range strings.Split(arg, ",") {
		if u = strings.TrimRight(strings.TrimSpace(u), "/"); u != "" {
			out = append(out, u)
		}
	}
	return out
}

// backend is one upstream server with its health bit, flipped by the health
// loop and by in-band dial failures.
type backend struct {
	url     string
	healthy atomic.Bool
}

type router struct {
	leader   string
	replicas []*backend
	next     atomic.Uint64 // round-robin cursor over replicas
	maxBody  int64
	hc       *http.Client
}

func newRouter(leader string, replicaURLs []string, maxBody int64) *router {
	rt := &router{
		leader:  strings.TrimRight(leader, "/"),
		maxBody: maxBody,
		hc:      &http.Client{Timeout: 60 * time.Second},
	}
	for _, u := range replicaURLs {
		b := &backend{url: u}
		b.healthy.Store(true) // optimistic until the first health poll
		rt.replicas = append(rt.replicas, b)
	}
	return rt
}

// healthLoop keeps each replica's health bit current: a replica is in
// rotation while its /healthz answers 200.
func (rt *router) healthLoop(every time.Duration) {
	hc := &http.Client{Timeout: every}
	for {
		for _, b := range rt.replicas {
			resp, err := hc.Get(b.url + "/healthz")
			ok := err == nil && resp.StatusCode == http.StatusOK
			if resp != nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			if b.healthy.Swap(ok) != ok {
				log.Printf("acqrouter: replica %s healthy=%v", b.url, ok)
			}
		}
		time.Sleep(every)
	}
}

// isRead classifies a request: reads may go to any replica, everything else
// is a write (or replication-plane traffic) and pins to the leader.
func isRead(r *http.Request) bool {
	if strings.HasPrefix(r.URL.Path, "/v1/replication/") {
		return false // pin to the leader: one consistent history for followers
	}
	if r.Method == http.MethodGet {
		return true
	}
	if r.Method != http.MethodPost {
		return false
	}
	p := r.URL.Path
	return p == "/v1/search" || p == "/v1/batch" ||
		(strings.HasPrefix(p, "/v1/collections/") &&
			(strings.HasSuffix(p, "/search") || strings.HasSuffix(p, "/batch")))
}

// targets returns the backends to try, in order: for reads, the healthy
// replicas starting at the round-robin cursor with the leader as the final
// fallback; for writes, the leader alone.
func (rt *router) targets(read bool) []string {
	if !read || len(rt.replicas) == 0 {
		return []string{rt.leader}
	}
	start := rt.next.Add(1)
	out := make([]string, 0, len(rt.replicas)+1)
	for i := range rt.replicas {
		b := rt.replicas[(int(start)+i)%len(rt.replicas)]
		if b.healthy.Load() {
			out = append(out, b.url)
		}
	}
	return append(out, rt.leader)
}

func (rt *router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Buffer the body so a dial failure on one backend can replay the
	// request against the next.
	var body []byte
	if r.Body != nil {
		var err error
		body, err = io.ReadAll(io.LimitReader(r.Body, rt.maxBody+1))
		r.Body.Close()
		if err != nil || int64(len(body)) > rt.maxBody {
			writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
				fmt.Sprintf("router buffers at most %d bytes", rt.maxBody))
			return
		}
	}
	var lastErr error
	for _, base := range rt.targets(isRead(r)) {
		req, err := http.NewRequestWithContext(r.Context(), r.Method, base+r.URL.RequestURI(), bytes.NewReader(body))
		if err != nil {
			lastErr = err
			continue
		}
		req.Header = r.Header.Clone()
		resp, err := rt.hc.Do(req)
		if err != nil {
			// A transport failure, not an HTTP error: drop the backend from
			// rotation until the health loop sees it again and try the next.
			rt.markUnhealthy(base)
			lastErr = err
			continue
		}
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.Header().Set("X-Acq-Upstream", base)
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
		return
	}
	log.Printf("acqrouter: %s %s: no backend reachable: %v", r.Method, r.URL.Path, lastErr)
	writeError(w, http.StatusBadGateway, "no_backend", "no backend reachable")
}

// writeError answers with the structured error envelope the backends use,
// labelled as the JSON it is.
func writeError(w http.ResponseWriter, status int, code, message string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{"error": map[string]string{"code": code, "message": message}})
}

func (rt *router) markUnhealthy(base string) {
	for _, b := range rt.replicas {
		if b.url == base && b.healthy.Swap(false) {
			log.Printf("acqrouter: replica %s healthy=false (dial failure)", base)
		}
	}
}
