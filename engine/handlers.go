package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	acq "github.com/acq-search/acq"
)

// Handler returns the engine's HTTP API.
//
// Versioned protocol (v1) — the supported surface. Collection lifecycle:
//
//	POST   /v1/collections        {"name": "wiki", "path": "wiki.acqm"} |
//	                              {"name": "syn", "preset": "dblp", "scale": 0.5} |
//	                              {"name": "scratch"}            (empty graph)
//	GET    /v1/collections        list collections + build states
//	GET    /v1/collections/{name} one collection's stats, snapshot version,
//	                              index/build status
//	DELETE /v1/collections/{name} drop a collection (in-flight requests finish
//	                              against their pinned snapshots)
//
// Per-collection data plane (and the "default"-collection sugar forms):
//
//	POST /v1/collections/{name}/search      POST /v1/search
//	POST /v1/collections/{name}/batch       POST /v1/batch
//	POST /v1/collections/{name}/mutations   POST /v1/mutations
//	POST /v1/collections/{name}/checkpoint  force a durability checkpoint
//
//	POST .../search  {"query": {...}, "timeout_ms": 250}
//	POST .../batch   {"queries": [{...}, ...], "workers": 4,
//	                  "timeout_ms": 2000, "per_query_timeout_ms": 100}
//	POST .../mutations {"mutations": [{"op":"insert_edge","u":"a","v":"b"},
//	                    {"op":"add_keyword","vertex":"a","keyword":"yoga"}]}
//
// POST .../mutations is the write endpoint: it applies many edge/keyword
// operations under one writer-lock acquisition with at most one snapshot
// publication for the whole batch, reporting a per-operation outcome list.
// Mutation vertices are addressed by label (u/v/vertex) or dense ID
// (u_id/v_id/id), like queries.
//
// Every v1 query object addresses its vertex by "vertex" (label) or "id"
// (dense vertex ID) and selects the community model with "mode"
// (core|fixed|threshold|clique|similar|truss, default core) plus the
// mode parameters "theta" / "tau" / "max_hops". The approximation knobs
// "epsilon" (ε-bounded early termination), "budget" (per-query work cap)
// and "top_r" (per-level candidate cutoff) ride on the same query object;
// results then report score bounds, exactness, and work spent (see
// acq.Query / acq.Result). v1 errors are structured:
// {"error": {"code": "vertex_not_found", "message": "..."}} — see README.md
// for the full code table, including the lifecycle codes collection_not_found
// (404), collection_exists (409) and index_building (503). Evaluation
// contexts derive from the request (a client disconnect cancels the search)
// bounded by the server's default/max timeouts.
//
// Unversioned operational endpoints:
//
//	GET  /metrics   serving counters, aggregated + per collection
//	GET  /healthz   readiness: per-collection build/index state plus
//	                durability state (WAL bytes, checkpoint version); 503
//	                while the default collection is not ready
func (e *Engine) Handler() http.Handler {
	mux := http.NewServeMux()
	// Default-collection sugar: the pre-registry single-graph surface.
	mux.HandleFunc("POST /v1/search", e.defaultCol(e.serveSearchV1))
	mux.HandleFunc("POST /v1/batch", e.defaultCol(e.serveBatchV1))
	mux.HandleFunc("POST /v1/mutations", e.defaultCol(e.serveMutationsV1))
	// Collection lifecycle.
	mux.HandleFunc("POST /v1/collections", e.handleCollectionCreate)
	mux.HandleFunc("GET /v1/collections", e.handleCollectionList)
	mux.HandleFunc("GET /v1/collections/{name}", e.handleCollectionGet)
	mux.HandleFunc("DELETE /v1/collections/{name}", e.handleCollectionDelete)
	// Per-collection data plane.
	mux.HandleFunc("POST /v1/collections/{name}/search", e.namedCol(e.serveSearchV1))
	mux.HandleFunc("POST /v1/collections/{name}/batch", e.namedCol(e.serveBatchV1))
	mux.HandleFunc("POST /v1/collections/{name}/mutations", e.namedCol(e.serveMutationsV1))
	mux.HandleFunc("POST /v1/collections/{name}/checkpoint", e.namedCol(e.serveCheckpointV1))
	// Replication plane: followers bootstrap and catch up from here. Always
	// mounted — any durable collection is replicable, and a follower's own
	// collections are durable, so replicas can be chained.
	mux.HandleFunc("GET /v1/replication/collections", e.handleReplicationList)
	mux.HandleFunc("GET /v1/replication/collections/{name}/snapshot", e.namedCol(e.serveReplicationSnapshot))
	mux.HandleFunc("GET /v1/replication/collections/{name}/tail", e.namedCol(e.serveReplicationTail))
	// Operational.
	mux.HandleFunc("GET /metrics", e.handleMetrics)
	mux.HandleFunc("GET /healthz", e.handleHealthz)
	return mux
}

// colHandler is a data-plane handler bound to a resolved, ready collection.
type colHandler func(w http.ResponseWriter, r *http.Request, c *Collection, g *acq.Graph)

// defaultCol adapts a colHandler to the unsuffixed sugar routes serving the
// default collection.
func (e *Engine) defaultCol(h colHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		e.withCollection(w, r, DefaultCollection, h)
	}
}

// namedCol adapts a colHandler to the /v1/collections/{name}/... routes.
func (e *Engine) namedCol(h colHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		e.withCollection(w, r, r.PathValue("name"), h)
	}
}

// withCollection resolves the collection once per request and rejects
// unknown/building/failed collections with their structured errors before
// any body is decoded.
func (e *Engine) withCollection(w http.ResponseWriter, r *http.Request, name string, h colHandler) {
	c, g, err := e.resolveReady(name)
	if err != nil {
		writeV1Error(w, err)
		return
	}
	h(w, r, c, g)
}

// --- Health.

// healthCollection is one collection's entry in the /healthz payload.
type healthCollection struct {
	State string `json:"state"`
	// Ready collections report their snapshot version and whether an index
	// is present; building ones report build_in_progress instead.
	Version         uint64 `json:"version"`
	Index           bool   `json:"index"`
	BuildInProgress bool   `json:"build_in_progress,omitempty"`
	Error           string `json:"error,omitempty"`
	// Write-path state: the size of the delta overlay awaiting compaction
	// and whether a background fold is running right now.
	DeltaOps             int  `json:"delta_ops"`
	DeltaBytes           int  `json:"delta_bytes"`
	CompactionInProgress bool `json:"compaction_in_progress,omitempty"`
	// Durability state: WAL bytes pending the next checkpoint, the version
	// the last checkpoint covered, and how many WAL batches the boot replay
	// recovered. Zero/absent for non-durable collections.
	Durable               bool   `json:"durable,omitempty"`
	WALBytes              int64  `json:"wal_bytes,omitempty"`
	LastCheckpointVersion uint64 `json:"last_checkpoint_version,omitempty"`
	RecoveredBatches      int    `json:"recovered_batches,omitempty"`
	CheckpointInProgress  bool   `json:"checkpoint_in_progress,omitempty"`
	DurabilityError       string `json:"durability_error,omitempty"`
	// Admission state: current wait-queue depth and requests shed with 429.
	QueueDepth int64  `json:"queue_depth"`
	ShedTotal  uint64 `json:"shed_total"`
	// Replica carries this collection's replication lag on a follower.
	Replica *ReplicaStatus `json:"replica,omitempty"`
}

// handleHealthz reports per-collection readiness. The probe returns 503
// while the default collection exists but is not ready (still building, or
// failed), so load balancers keep traffic away until the graph that the
// unsuffixed endpoints serve can answer; named collections building in the
// background do not fail the probe. Uses Graph.Version, not pin(): a
// liveness probe must not mark the snapshot consumed and thereby trigger
// eager republication on the next write.
func (e *Engine) handleHealthz(w http.ResponseWriter, r *http.Request) {
	cols := make(map[string]healthCollection)
	ok := true
	var defaultVersion uint64
	for _, c := range e.reg.All() {
		// One state read per collection: a building→ready transition between
		// two loads must not yield a self-contradictory entry.
		st := c.State()
		hc := healthCollection{State: st.String()}
		if a := c.adm; a != nil {
			hc.QueueDepth = a.queueDepth()
			hc.ShedTotal = a.shed.Load()
		}
		if rs := c.ReplicaStatus(); rs != nil {
			snap := rs.snapshot(time.Now())
			hc.Replica = &snap
		}
		switch st {
		case CollectionReady:
			g := c.Graph()
			hc.Version = g.Version()
			hc.Index = g.HasIndex()
			ws := g.WriteStats()
			hc.DeltaOps = ws.DeltaOps
			hc.DeltaBytes = ws.DeltaBytes
			hc.CompactionInProgress = ws.CompactionInProgress
			if ds := g.DurabilityStats(); ds.Durable {
				hc.Durable = true
				hc.WALBytes = ds.WALBytes
				hc.LastCheckpointVersion = ds.LastCheckpointVersion
				hc.RecoveredBatches = ds.RecoveredBatches
				hc.CheckpointInProgress = ds.CheckpointInProgress
				hc.DurabilityError = ds.Err
			}
		case CollectionBuilding:
			hc.BuildInProgress = true
		case CollectionFailed:
			if err := c.Err(); err != nil {
				hc.Error = err.Error()
			}
		}
		if c.Name() == DefaultCollection {
			defaultVersion = hc.Version
			if st != CollectionReady {
				ok = false
			}
		}
		cols[c.Name()] = hc
	}
	status := http.StatusOK
	if !ok {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{
		"ok":          ok,
		"version":     defaultVersion, // pre-registry field, kept for probes
		"collections": cols,
	})
}

// --- Collection lifecycle handlers.

// collectionInfo is the wire shape of one collection in listings and the
// single-collection GET.
type collectionInfo struct {
	Name   string `json:"name"`
	State  string `json:"state"`
	Source string `json:"source,omitempty"`
	Error  string `json:"error,omitempty"`
	// Populated once the collection is ready.
	Vertices        int    `json:"vertices"`
	Edges           int    `json:"edges"`
	SnapshotVersion uint64 `json:"snapshot_version"`
	HasIndex        bool   `json:"has_index"`
	// Write-path state: the overlay delta accumulated since the last full
	// publication or compaction, and whether a fold is in flight.
	DeltaOps             int  `json:"delta_ops"`
	DeltaBytes           int  `json:"delta_bytes"`
	CompactionInProgress bool `json:"compaction_in_progress,omitempty"`
	// Durability state (zero/absent for non-durable collections); see
	// acq.DurabilityStats for field semantics.
	Durable               bool   `json:"durable,omitempty"`
	WALBytes              int64  `json:"wal_bytes,omitempty"`
	LastCheckpointVersion uint64 `json:"last_checkpoint_version,omitempty"`
	RecoveredBatches      int    `json:"recovered_batches,omitempty"`
	CheckpointInProgress  bool   `json:"checkpoint_in_progress,omitempty"`
	MappedColdStart       bool   `json:"mapped_cold_start,omitempty"`
	DurabilityError       string `json:"durability_error,omitempty"`
}

func infoOf(c *Collection) collectionInfo {
	info := collectionInfo{
		Name:   c.Name(),
		State:  c.State().String(),
		Source: c.SourceDesc(),
	}
	if err := c.Err(); err != nil {
		info.Error = err.Error()
	}
	if g := c.Graph(); g != nil {
		info.Vertices = g.NumVertices()
		info.Edges = g.NumEdges()
		info.SnapshotVersion = g.Version()
		info.HasIndex = g.HasIndex()
		ws := g.WriteStats()
		info.DeltaOps = ws.DeltaOps
		info.DeltaBytes = ws.DeltaBytes
		info.CompactionInProgress = ws.CompactionInProgress
		if ds := g.DurabilityStats(); ds.Durable {
			info.Durable = true
			info.WALBytes = ds.WALBytes
			info.LastCheckpointVersion = ds.LastCheckpointVersion
			info.RecoveredBatches = ds.RecoveredBatches
			info.CheckpointInProgress = ds.CheckpointInProgress
			info.MappedColdStart = ds.MappedColdStart
			info.DurabilityError = ds.Err
		}
	}
	return info
}

// createCollectionReq is the wire shape of POST /v1/collections: a name plus
// the inline Source fields (path | preset[+scale] | neither = empty graph).
type createCollectionReq struct {
	Name string `json:"name"`
	Source
}

func (e *Engine) handleCollectionCreate(w http.ResponseWriter, r *http.Request) {
	if e.rejectFollowerWrite(w) {
		return
	}
	var req createCollectionReq
	if err := e.decodeBody(w, r, &req); err != nil {
		writeV1Error(w, fmt.Errorf("bad body: %w", err))
		return
	}
	c, err := e.CreateCollection(req.Name, req.Source)
	if err != nil {
		writeV1Error(w, err)
		return
	}
	// 202: the graph is loading and indexing asynchronously; poll
	// GET /v1/collections/{name} for build status.
	writeJSON(w, http.StatusAccepted, infoOf(c))
}

func (e *Engine) handleCollectionList(w http.ResponseWriter, r *http.Request) {
	cols := e.reg.All()
	infos := make([]collectionInfo, 0, len(cols))
	for _, c := range cols {
		infos = append(infos, infoOf(c))
	}
	writeJSON(w, http.StatusOK, map[string]any{"collections": infos})
}

func (e *Engine) handleCollectionGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	c, ok := e.reg.Get(name)
	if !ok {
		writeV1Error(w, fmt.Errorf("%w: %q", ErrCollectionNotFound, name))
		return
	}
	// The detailed view adds the full stats block (core numbers, keyword
	// averages, index shape) for ready collections; the listing stays cheap.
	// PeekSnapshot, not pin(): this is the documented build-status polling
	// endpoint, and a status probe must not mark the snapshot consumed —
	// that would force an eager copy-on-write republication per mutation on
	// a write-heavy collection someone happens to be polling.
	payload := struct {
		collectionInfo
		Stats *acq.Stats `json:"stats,omitempty"`
	}{collectionInfo: infoOf(c)}
	if g := c.Graph(); g != nil {
		if s := g.PeekSnapshot(); s != nil {
			st := s.Stats()
			payload.Stats = &st
		}
	}
	writeJSON(w, http.StatusOK, payload)
}

func (e *Engine) handleCollectionDelete(w http.ResponseWriter, r *http.Request) {
	if e.rejectFollowerWrite(w) {
		return
	}
	name := r.PathValue("name")
	c, ok := e.reg.Delete(name)
	if !ok {
		writeV1Error(w, fmt.Errorf("%w: %q", ErrCollectionNotFound, name))
		return
	}
	// A durable collection's delete covers its on-disk state too — otherwise
	// the next restart would silently resurrect it. The name passed the
	// registry grammar (no separators, no leading dot), so the join cannot
	// escape the data dir. In-flight requests finish against their pinned
	// snapshots; on unix, unlinking files a live mapping still references is
	// safe.
	if e.cfg.DataDir != "" {
		dir := filepath.Join(e.cfg.DataDir, name)
		if err := os.RemoveAll(dir); err != nil {
			e.cfg.Logf("engine: collection %q: removing durable state %s: %v", name, dir, err)
		}
	}
	e.cfg.Logf("engine: collection %q deleted (state %s)", name, c.State())
	writeJSON(w, http.StatusOK, map[string]any{"deleted": true, "name": name})
}

// --- v1 wire format.

// wireQuery is the JSON shape of one query in the v1 protocol. ID is a
// pointer so an omitted field is distinguishable from the valid vertex 0.
type wireQuery struct {
	Vertex   string   `json:"vertex,omitempty"`
	ID       *int32   `json:"id,omitempty"`
	K        int      `json:"k,omitempty"`
	Keywords []string `json:"keywords,omitempty"`
	Mode     string   `json:"mode,omitempty"`
	Theta    float64  `json:"theta,omitempty"`
	Tau      float64  `json:"tau,omitempty"`
	Algo     string   `json:"algo,omitempty"`
	Fuzz     int      `json:"fuzz,omitempty"`
	MaxHops  int      `json:"max_hops,omitempty"`
	// Approximation knobs (see acq.Query): ε ∈ [0, 1) relative score
	// tolerance, a per-query work budget in graph-operation units, and a
	// per-level candidate cutoff. Responses carry the resulting bounds in
	// the ScoreLowerBound/ScoreUpperBound/Exact/Work/BudgetExhausted result
	// fields.
	Epsilon float64 `json:"epsilon,omitempty"`
	Budget  int64   `json:"budget,omitempty"`
	TopR    int     `json:"top_r,omitempty"`
}

// DefaultK is the degree bound assumed when a request omits "k".
const DefaultK = 6

// toQuery maps the wire query onto the library query. Addressing errors are
// reported here; everything else (unknown mode/algorithm, bad k/θ/τ) is left
// to acq.Search so the one dispatch owns all validation.
func (wq wireQuery) toQuery() (acq.Query, error) {
	if wq.Vertex == "" && wq.ID == nil {
		return acq.Query{}, errMissingVertex
	}
	q := acq.Query{
		Vertex:       wq.Vertex,
		K:            wq.K,
		Keywords:     wq.Keywords,
		Mode:         acq.Mode(wq.Mode),
		Theta:        wq.Theta,
		Tau:          wq.Tau,
		Algorithm:    acq.Algorithm(wq.Algo),
		FuzzDistance: wq.Fuzz,
		MaxHops:      wq.MaxHops,
		Epsilon:      wq.Epsilon,
		Budget:       wq.Budget,
		TopR:         wq.TopR,
	}
	if wq.ID != nil {
		q.VertexID = *wq.ID
	}
	if q.K == 0 {
		q.K = DefaultK
	}
	return q, nil
}

var errMissingVertex = errors.New("missing vertex (label) or id (dense vertex ID)")

// wireError is the structured error envelope of the v1 protocol. Code is
// typed: the errcodes analyzer (cmd/acqvet) rejects raw string literals in
// errorCode positions, so every code a handler can emit is a constant from
// the generated registry below — and therefore a row of README's table.
type wireError struct {
	Code    errorCode `json:"code"`
	Message string    `json:"message"`
}

// The registry (errorcodes.go: the errorCode constants + codeStatus map) is
// rendered from README.md's error-code table.
//go:generate go run ./gen

// errorInfo classifies a search, mutation or lifecycle error into its v1
// code and the HTTP status that code rides on. The code→status pairing
// lives only in the generated registry, i.e. in README's table.
func errorInfo(err error) (errorCode, int) {
	code := errorCodeOf(err)
	return code, codeStatus[code]
}

func errorCodeOf(err error) errorCode {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.Is(err, acq.ErrCanceled) && errors.Is(err, context.DeadlineExceeded):
		return codeDeadlineExceeded
	case errors.Is(err, acq.ErrCanceled):
		return codeCanceled
	case errors.Is(err, acq.ErrVertexNotFound), errors.Is(err, errUnknownVertex):
		return codeVertexNotFound
	case errors.Is(err, acq.ErrNoKCore):
		return codeNoKCore
	case errors.Is(err, acq.ErrBadK):
		return codeBadK
	case errors.Is(err, acq.ErrBadTheta):
		return codeBadTheta
	case errors.Is(err, acq.ErrBadEpsilon):
		return codeBadEpsilon
	// A negative budget or top_r is a garden-variety malformed request —
	// unlike ε they need no numeric-domain explanation of their own.
	case errors.Is(err, acq.ErrBadBudget), errors.Is(err, acq.ErrBadTopR):
		return codeBadRequest
	case errors.Is(err, acq.ErrBadMode):
		return codeBadMode
	case errors.Is(err, acq.ErrBadAlgorithm):
		return codeBadAlgorithm
	case errors.Is(err, acq.ErrNoIndex):
		return codeNoIndex
	case errors.Is(err, ErrCollectionNotFound):
		return codeCollectionNotFound
	case errors.Is(err, ErrCollectionExists):
		return codeCollectionExists
	case errors.Is(err, acq.ErrNotDurable):
		return codeNotDurable
	case errors.Is(err, ErrIndexBuilding):
		return codeIndexBuilding
	case errors.Is(err, errCollectionFailed):
		return codeCollectionFailed
	// Raw context errors surface from the write path, which checks the
	// request context before applying a mutation (searches wrap them in
	// acq.ErrCanceled, handled above).
	case errors.Is(err, context.DeadlineExceeded):
		return codeDeadlineExceeded
	case errors.Is(err, context.Canceled):
		return codeCanceled
	case errors.As(err, &tooLarge):
		return codeBodyTooLarge
	default:
		return codeBadRequest
	}
}

// writeV1Error writes the structured v1 error envelope for err.
func writeV1Error(w http.ResponseWriter, err error) {
	code, status := errorInfo(err)
	writeJSON(w, status, map[string]any{"error": wireError{Code: code, Message: err.Error()}})
}

// queryContext derives the evaluation context for one request: the request's
// own context (so a client disconnect cancels evaluation mid-search) bounded
// by the requested timeout, the server default, and the server cap.
func (e *Engine) queryContext(r *http.Request, requestedMS int64) (context.Context, context.CancelFunc) {
	d := e.boundTimeout(time.Duration(requestedMS) * time.Millisecond)
	if d > 0 {
		return context.WithTimeout(r.Context(), d)
	}
	return context.WithCancel(r.Context())
}

// boundTimeout applies the server's default and cap to a client-requested
// per-evaluation timeout (≤ 0 = none requested). 0 means "no deadline".
func (e *Engine) boundTimeout(requested time.Duration) time.Duration {
	d := requested
	if d <= 0 {
		d = e.cfg.DefaultTimeout
	}
	if e.cfg.MaxTimeout > 0 && (d <= 0 || d > e.cfg.MaxTimeout) {
		d = e.cfg.MaxTimeout
	}
	return d
}

// batchContext derives the context for a whole batch request. Only an
// explicit client timeout_ms (capped by MaxTimeout) applies batch-wide:
// DefaultTimeout and MaxTimeout are per-evaluation bounds, enforced on each
// query through BatchOptions.PerQueryTimeout — applying them to the whole
// batch would kill a large batch of individually-fast queries with a
// single-query-sized deadline. The request context still flows through, so
// a client disconnect cancels the remaining queries either way.
func (e *Engine) batchContext(r *http.Request, requestedMS int64) (context.Context, context.CancelFunc) {
	d := time.Duration(requestedMS) * time.Millisecond
	if d > 0 && e.cfg.MaxTimeout > 0 && d > e.cfg.MaxTimeout {
		d = e.cfg.MaxTimeout
	}
	if d > 0 {
		return context.WithTimeout(r.Context(), d)
	}
	return context.WithCancel(r.Context())
}

// decodeBody decodes a JSON request body under the engine's size cap.
func (e *Engine) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	body := r.Body
	if limit := e.cfg.maxBodyBytes(); limit > 0 {
		body = http.MaxBytesReader(w, r.Body, limit)
	}
	return json.NewDecoder(body).Decode(v)
}

// searchV1Req is the wire shape of POST .../search.
type searchV1Req struct {
	Query     wireQuery `json:"query"`
	TimeoutMS int64     `json:"timeout_ms,omitempty"`
}

func (e *Engine) serveSearchV1(w http.ResponseWriter, r *http.Request, c *Collection, g *acq.Graph) {
	var req searchV1Req
	if err := e.decodeBody(w, r, &req); err != nil {
		writeV1Error(w, fmt.Errorf("bad body: %w", err))
		return
	}
	query, err := req.Query.toQuery()
	if err != nil {
		writeV1Error(w, err)
		return
	}
	ctx, cancel := e.queryContext(r, req.TimeoutMS)
	defer cancel()
	release, ok := e.admitQuery(w, r, c)
	if !ok {
		return
	}
	defer release()

	snap := pin(g)
	start := time.Now()
	body, res, err := snap.SearchJSON(ctx, query)
	c.met.queries.Add(1)
	c.met.queryNanos.Add(time.Since(start).Nanoseconds())
	if err != nil {
		c.met.recordQueryError(err)
		writeV1Error(w, err)
		return
	}
	c.met.recordApprox(query, &res)
	writeSearchResult(w, snap.Version(), body)
}

// searchHead opens every search response body.
var searchHead = []byte(`{"result":`)

// writeSearchResult writes a 200 search response around a memoised result
// encoding. The body is byte for byte what writeJSON(w, http.StatusOK,
// map[string]any{"version": version, "result": res}) writes, since
// encoding/json emits map keys sorted, but it copies and encodes nothing.
func writeSearchResult(w http.ResponseWriter, version uint64, result []byte) {
	tail := strconv.AppendUint([]byte(`,"version":`), version, 10)
	tail = append(tail, "}\n"...)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(searchHead)+len(result)+len(tail)))
	w.WriteHeader(http.StatusOK)
	for _, part := range [][]byte{searchHead, result, tail} {
		if _, err := w.Write(part); err != nil {
			return // the client has gone: nobody is left to answer
		}
	}
}

// batchV1Req is the wire shape of POST .../batch.
type batchV1Req struct {
	Queries   []wireQuery `json:"queries"`
	Workers   int         `json:"workers,omitempty"`
	TimeoutMS int64       `json:"timeout_ms,omitempty"`
	// PerQueryTimeoutMS bounds each query individually: a slow query times
	// out without disturbing the rest of the batch.
	PerQueryTimeoutMS int64 `json:"per_query_timeout_ms,omitempty"`
}

// batchV1Item is one entry of the POST .../batch response, in input order.
type batchV1Item struct {
	Result *acq.Result `json:"result,omitempty"`
	Error  *wireError  `json:"error,omitempty"`
}

func (e *Engine) serveBatchV1(w http.ResponseWriter, r *http.Request, c *Collection, g *acq.Graph) {
	var req batchV1Req
	if err := e.decodeBody(w, r, &req); err != nil {
		writeV1Error(w, fmt.Errorf("bad body: %w", err))
		return
	}
	if maxQ := e.cfg.maxBatchQueries(); maxQ > 0 && len(req.Queries) > maxQ {
		writeJSON(w, codeStatus[codeTooManyQueries], map[string]any{"error": wireError{
			Code:    codeTooManyQueries,
			Message: fmt.Sprintf("batch of %d queries exceeds the server limit of %d", len(req.Queries), maxQ),
		}})
		return
	}

	// Validate addressing up front: entries with neither a label nor an ID
	// get a per-item error instead of silently querying vertex 0.
	items := make([]batchV1Item, len(req.Queries))
	queries := make([]acq.Query, 0, len(req.Queries))
	itemOf := make([]int, 0, len(req.Queries))
	for i, wq := range req.Queries {
		q, err := wq.toQuery()
		if err != nil {
			code, _ := errorInfo(err)
			items[i].Error = &wireError{Code: code, Message: err.Error()}
			continue
		}
		queries = append(queries, q)
		itemOf = append(itemOf, i)
	}

	ctx, cancel := e.batchContext(r, req.TimeoutMS)
	defer cancel()
	// One admission slot covers the whole batch: its queries already share
	// the worker pool, so per-query slots would double-count the quota.
	release, ok := e.admitQuery(w, r, c)
	if !ok {
		return
	}
	defer release()
	opts := acq.BatchOptions{
		Workers: e.clampWorkers(req.Workers),
		// boundTimeout substitutes the server's DefaultTimeout when the
		// client asked for no per-query bound, and caps either by
		// MaxTimeout — the per-evaluation latency control.
		PerQueryTimeout: e.boundTimeout(time.Duration(req.PerQueryTimeoutMS) * time.Millisecond),
	}

	snap := pin(g) // one snapshot for the whole batch
	start := time.Now()
	results := snap.SearchBatch(ctx, queries, opts)
	c.met.batches.Add(1)
	c.met.batchQueries.Add(uint64(len(queries)))
	c.met.queryNanos.Add(time.Since(start).Nanoseconds())

	for j := range results {
		i := itemOf[j]
		if err := results[j].Err; err != nil {
			c.met.recordBatchItemError(err)
			code, _ := errorInfo(err)
			items[i].Error = &wireError{Code: code, Message: err.Error()}
		} else {
			c.met.recordApprox(queries[j], &results[j].Result)
			items[i].Result = &results[j].Result
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"version": snap.Version(),
		"results": items,
	})
}

// clampWorkers resolves a client-requested worker count against one worker
// per CPU: clients may request fewer workers, never more.
func (e *Engine) clampWorkers(requested int) int {
	limit := runtime.GOMAXPROCS(0)
	if requested <= 0 || requested > limit {
		return limit
	}
	return requested
}

// --- v1 mutation + durability endpoints.

// serveCheckpointV1 forces a durability checkpoint: fold the overlay, write
// a fresh mapped snapshot, retire the WAL. Synchronous — when it returns
// 200, the state it covers is on disk.
func (e *Engine) serveCheckpointV1(w http.ResponseWriter, r *http.Request, c *Collection, g *acq.Graph) {
	if err := g.Checkpoint(); err != nil {
		writeV1Error(w, err)
		return
	}
	ds := g.DurabilityStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"checkpointed":            true,
		"version":                 g.Version(),
		"last_checkpoint_version": ds.LastCheckpointVersion,
		"wal_bytes":               ds.WALBytes,
		"checkpoints_total":       ds.Checkpoints,
	})
}

// wireMutation is one entry of POST .../mutations. Edge ops address their
// endpoints by label (u/v) or dense ID (u_id/v_id); keyword ops by label
// (vertex) or dense ID (id). IDs are pointers so an omitted field is
// distinguishable from the valid vertex 0.
type wireMutation struct {
	Op      string `json:"op"`
	U       string `json:"u,omitempty"`
	V       string `json:"v,omitempty"`
	UID     *int32 `json:"u_id,omitempty"`
	VID     *int32 `json:"v_id,omitempty"`
	Vertex  string `json:"vertex,omitempty"`
	ID      *int32 `json:"id,omitempty"`
	Keyword string `json:"keyword,omitempty"`
}

// resolveVertex maps a label-or-ID vertex address onto a dense vertex ID.
// Range checking is left to acq.ApplyMutations, which owns it.
func resolveVertex(g *acq.Graph, label string, id *int32) (int32, error) {
	if label != "" {
		v, ok := g.VertexID(label)
		if !ok {
			return 0, fmt.Errorf("%w: %q", errUnknownVertex, label)
		}
		return v, nil
	}
	if id == nil {
		return 0, errMissingVertex
	}
	return *id, nil
}

// toMutation resolves the wire entry's vertex addresses against g's label
// table (the same non-consuming lookup as applyEdge). Unknown op strings pass
// through untouched: acq.ApplyMutations owns op validation and reports them
// per entry as acq.ErrBadMutation.
func (wm wireMutation) toMutation(g *acq.Graph) (acq.Mutation, error) {
	m := acq.Mutation{Op: acq.MutationOp(wm.Op), Keyword: wm.Keyword}
	switch m.Op {
	case acq.OpInsertEdge, acq.OpRemoveEdge:
		u, err := resolveVertex(g, wm.U, wm.UID)
		if err != nil {
			return m, err
		}
		v, err := resolveVertex(g, wm.V, wm.VID)
		if err != nil {
			return m, err
		}
		m.U, m.V = u, v
	case acq.OpAddKeyword, acq.OpRemoveKeyword:
		v, err := resolveVertex(g, wm.Vertex, wm.ID)
		if err != nil {
			return m, err
		}
		m.Vertex = v
	}
	return m, nil
}

// mutationsV1Req is the wire shape of POST .../mutations.
type mutationsV1Req struct {
	Mutations []wireMutation `json:"mutations"`
}

// mutationV1Item is one entry of the POST .../mutations response, in input
// order. Changed is false for no-ops (duplicate inserts, missing removals)
// and for rejected entries, which carry their structured error instead.
type mutationV1Item struct {
	Changed bool       `json:"changed"`
	Error   *wireError `json:"error,omitempty"`
}

// serveMutationsV1 is the batched write endpoint: the whole body is applied
// under one writer-lock acquisition with at most one snapshot publication
// (acq.ApplyMutations), so ingest pays the per-publication cost once per
// batch instead of once per operation. Entries are validated independently —
// a bad entry is reported in its result item and never aborts the rest.
func (e *Engine) serveMutationsV1(w http.ResponseWriter, r *http.Request, c *Collection, g *acq.Graph) {
	if e.rejectFollowerWrite(w) {
		return
	}
	var req mutationsV1Req
	if err := e.decodeBody(w, r, &req); err != nil {
		writeV1Error(w, fmt.Errorf("bad body: %w", err))
		return
	}
	if maxM := e.cfg.maxBatchMutations(); maxM > 0 && len(req.Mutations) > maxM {
		writeJSON(w, codeStatus[codeTooManyMutations], map[string]any{"error": wireError{
			Code:    codeTooManyMutations,
			Message: fmt.Sprintf("batch of %d mutations exceeds the server limit of %d", len(req.Mutations), maxM),
		}})
		return
	}
	// Honour a disconnect or expired deadline before mutating rather than
	// paying for writes nobody waits for.
	if err := context.Cause(r.Context()); err != nil {
		writeV1Error(w, err)
		return
	}

	// Resolve labels up front; entries that fail get a per-item error and
	// stay out of the applied batch.
	items := make([]mutationV1Item, len(req.Mutations))
	ops := make([]acq.Mutation, 0, len(req.Mutations))
	itemOf := make([]int, 0, len(req.Mutations))
	for i, wm := range req.Mutations {
		m, err := wm.toMutation(g)
		if err != nil {
			code, _ := errorInfo(err)
			items[i].Error = &wireError{Code: code, Message: err.Error()}
			continue
		}
		ops = append(ops, m)
		itemOf = append(itemOf, i)
	}

	results := g.ApplyMutations(ops)
	applied := 0
	for j := range results {
		i := itemOf[j]
		if err := results[j].Err; err != nil {
			code, _ := errorInfo(err)
			items[i].Error = &wireError{Code: code, Message: err.Error()}
			continue
		}
		items[i].Changed = results[j].Changed
		if results[j].Changed {
			applied++
		}
	}
	c.met.updates.Add(uint64(len(ops)))
	c.met.mutationBatches.Add(1)
	writeJSON(w, http.StatusOK, map[string]any{
		"version": g.Version(),
		"applied": applied,
		"results": items,
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
