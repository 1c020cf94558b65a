// Package engine is the importable ACQ serving engine: it wraps named
// *acq.Graph collections in the HTTP API that cmd/acqd exposes, serving
// reads from immutable index snapshots and writes through the incremental
// maintainer.
//
// The query protocol is versioned: POST /v1/search and POST /v1/batch carry
// JSON queries with an explicit mode (core/fixed/threshold/clique/similar/
// truss), per-request timeouts, and structured error codes; see Handler and
// the README's "HTTP API v1" section. Every evaluation runs under a context
// derived from the request, bounded by Config.DefaultTimeout/MaxTimeout, so
// client disconnects and deadlines stop searches mid-evaluation instead of
// burning CPU on abandoned requests.
//
// # Collections
//
// One engine serves many independent graphs. The Registry maps collection
// names to Collection values, each owning one *acq.Graph with its own
// snapshot chain, index maintainer and serving counters. Lifecycle is part
// of the v1 surface: POST /v1/collections creates a collection (empty, from
// a file, or from a synthetic preset) whose graph loads and indexes
// asynchronously — its build status is queryable at GET
// /v1/collections/{name} the whole time — and every data endpoint exists
// per collection under /v1/collections/{name}/... . The plain /v1/search,
// /v1/batch and /v1/mutations endpoints are sugar over the "default"
// collection, so single-graph clients never see the registry.
//
// Writes go through POST /v1/mutations (and its per-collection form): one
// JSON batch of insert_edge/remove_edge/add_keyword/remove_keyword
// operations, applied under a single lock hold with per-item results and
// exactly one snapshot publication per batch. It is the only write
// endpoint. The v1 routes plus /metrics and /healthz are the whole HTTP
// surface; the pre-v1 endpoints are gone and answer the mux's 404 or 405
// (see the acq package documentation for the migration).
//
// # Durability
//
// With Config.DataDir set, collections persist across restarts: every
// acknowledged mutation batch is appended to a per-collection write-ahead
// log before it publishes, and checkpoints fold the log into a
// memory-mappable snapshot (see the acq package's Durability documentation
// for the WAL format and crash-recovery guarantees). At startup the engine
// recovers every collection found under DataDir — replaying whatever WAL
// tail the last checkpoint had not absorbed — and a clean shutdown-to-start
// cycle serves its first snapshot zero-copy from the mapped file.
// POST /v1/collections/{name}/checkpoint forces a checkpoint; /healthz,
// /metrics and GET /v1/collections/{name} report WAL size, checkpoint
// version and recovery counters per collection.
//
// # Architecture
//
// Every query handler resolves its collection (one read-locked map probe)
// and pins the current snapshot with one atomic pointer load
// (acq.Graph.Snapshot), then runs entirely against that immutable copy —
// the read path holds no lock, so a burst of edge inserts can never stall
// queries, and deleting a collection never disturbs requests already
// running against its snapshot. Updates serialise inside each acq.Graph:
// each effective mutation is applied incrementally to the master copy
// (Appendix F maintenance) and published as an O(delta) overlay over the
// last frozen snapshot, with a background compactor folding the overlay
// into a fresh base past Config.CompactionThreshold — so write cost tracks
// the delta, not the graph. Repeated queries against one snapshot are
// answered from its bounded LRU result cache; POST /v1/search writes the
// cached answer's JSON encoding, memoised on first use, around the version.
//
// Use New + Handler to mount the API inside an existing server, or Serve as
// a one-call production entry point (what cmd/acqd does).
package engine

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"time"

	acq "github.com/acq-search/acq"
	"github.com/acq-search/acq/internal/dataio"
)

// Config tunes the engine. The zero value serves on DefaultAddr with default
// cache, worker and request-limit settings (and no server-side timeouts).
type Config struct {
	// Addr is the listen address for ListenAndServe/Serve (default ":8475").
	Addr string
	// CacheSize is the per-snapshot query-result cache capacity: 0 keeps
	// acq.DefaultResultCacheSize, negative disables result caching.
	CacheSize int
	// DefaultTimeout bounds each query evaluation when the request does not
	// ask for a timeout itself (single queries via their request deadline,
	// batch queries via an implied per-query timeout); 0 means no default.
	// The evaluation context always derives from the request's, so a client
	// disconnect cancels the search either way.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested timeouts (timeout_ms,
	// per_query_timeout_ms) and, when set, also bounds per-query evaluations
	// that asked for no timeout at all; 0 means no cap. A batch request as a
	// whole is only deadline-bounded by its own (capped) timeout_ms — the
	// per-query bounds already limit its total work.
	MaxTimeout time.Duration
	// MaxBatchQueries bounds the number of queries accepted in one batch
	// request: 0 means DefaultMaxBatchQueries, negative means unlimited.
	// Oversized batches get a structured 400 before any evaluation.
	MaxBatchQueries int
	// MaxBatchMutations bounds the number of operations accepted in one
	// POST .../mutations request: 0 means DefaultMaxBatchMutations, negative
	// means unlimited. Oversized batches get a structured 400 before any
	// mutation is applied.
	MaxBatchMutations int
	// MaxBodyBytes bounds every request body via http.MaxBytesReader:
	// 0 means DefaultMaxBodyBytes, negative means unlimited. Oversized
	// bodies get a structured 413 instead of an unbounded allocation.
	MaxBodyBytes int64
	// CompactionThreshold tunes each collection's LSM-style write path: the
	// number of effective mutations absorbed into the delta overlay before
	// the background compactor folds it into a fresh frozen base
	// (acq.Graph.SetCompactionThreshold). 0 keeps
	// acq.DefaultCompactionThreshold; negative disables the overlay write
	// path entirely so every mutation republishes a full snapshot (the
	// pre-overlay behaviour, kept as an escape hatch).
	CompactionThreshold int
	// DataDir enables per-collection durability: each durable collection
	// keeps a write-ahead log and memory-mappable snapshots under
	// DataDir/<name>. At New time every subdirectory holding durable state is
	// recovered (WAL replayed over the last snapshot) and registered as a
	// ready collection — recovered state takes precedence over preloading the
	// same name. Preloaded collections (AddCollection) become durable
	// automatically; HTTP-created ones opt in with {"durable": true}. Empty
	// disables durability entirely.
	DataDir string
	// SyncMode is the WAL fsync policy for durable collections: "always"
	// (default; fsync per acknowledged batch) or "never" (rely on the OS page
	// cache; a power failure may lose the tail).
	SyncMode string
	// CheckpointEvery is the number of effective mutations between automatic
	// checkpoints of each durable collection; 0 keeps
	// acq.DefaultCheckpointEvery.
	CheckpointEvery int
	// FollowURL turns this engine into a read replica of the leader at the
	// given base URL (e.g. "http://leader:8475"). The engine bootstraps every
	// replicable collection from the leader's snapshot endpoint into DataDir
	// (required), keeps them caught up by polling the leader's WAL tail, and
	// serves the full read surface from its own snapshots; write endpoints
	// answer a structured 403 not_leader naming the leader. Empty (the
	// default) makes this engine a leader.
	FollowURL string
	// FollowInterval is the follower's tail-poll cadence; 0 means
	// DefaultFollowInterval. Ignored on a leader.
	FollowInterval time.Duration
	// MaxReplicaLag bounds how stale a replica may answer reads: a follower
	// collection more than this many effective mutations behind the leader
	// returns a structured 503 replica_lagging instead of stale results.
	// 0 disables the bound (replicas always answer). Ignored on a leader.
	MaxReplicaLag uint64
	// MaxConcurrentQueries is the per-collection admission quota: at most this
	// many search/batch evaluations run concurrently per collection, with at
	// most MaxQueuedQueries more waiting. Requests beyond both bounds are shed
	// with a structured 429 overloaded and a Retry-After hint. 0 disables
	// admission control.
	MaxConcurrentQueries int
	// MaxQueuedQueries bounds the admission wait queue per collection:
	// 0 means 2×MaxConcurrentQueries, negative disables queueing (over-quota
	// requests shed immediately).
	MaxQueuedQueries int
	// Logf receives serving log lines; nil means log.Printf.
	Logf func(format string, args ...any)
}

// DefaultFollowInterval is the tail-poll cadence applied when
// Config.FollowInterval is 0.
const DefaultFollowInterval = 500 * time.Millisecond

// followInterval resolves Config.FollowInterval.
func (c Config) followInterval() time.Duration {
	if c.FollowInterval <= 0 {
		return DefaultFollowInterval
	}
	return c.FollowInterval
}

// DefaultAddr is the address served when Config.Addr is empty.
const DefaultAddr = ":8475"

// DefaultMaxBodyBytes is the request-body cap applied when
// Config.MaxBodyBytes is 0. One MiB fits thousands of batch queries while
// keeping a misbehaving client from ballooning the decoder.
const DefaultMaxBodyBytes int64 = 1 << 20

// DefaultMaxBatchQueries is the per-batch query cap applied when
// Config.MaxBatchQueries is 0.
const DefaultMaxBatchQueries = 1024

// DefaultMaxBatchMutations is the per-request mutation cap applied when
// Config.MaxBatchMutations is 0. It matches acq.DefaultCompactionThreshold,
// so one maximal batch is at most one compaction's worth of delta.
const DefaultMaxBatchMutations = acq.DefaultCompactionThreshold

// maxBodyBytes resolves Config.MaxBodyBytes (0 = default, < 0 = unlimited).
func (c Config) maxBodyBytes() int64 {
	if c.MaxBodyBytes == 0 {
		return DefaultMaxBodyBytes
	}
	return c.MaxBodyBytes
}

// maxBatchQueries resolves Config.MaxBatchQueries (0 = default,
// < 0 = unlimited).
func (c Config) maxBatchQueries() int {
	if c.MaxBatchQueries == 0 {
		return DefaultMaxBatchQueries
	}
	return c.MaxBatchQueries
}

// maxBatchMutations resolves Config.MaxBatchMutations (0 = default,
// < 0 = unlimited).
func (c Config) maxBatchMutations() int {
	if c.MaxBatchMutations == 0 {
		return DefaultMaxBatchMutations
	}
	return c.MaxBatchMutations
}

// Engine serves attributed community queries for a registry of named graph
// collections.
type Engine struct {
	reg *Registry
	cfg Config
	fol *follower // nil on a leader
}

// New returns a serving engine whose "default" collection is g: the index is
// built synchronously if g does not have one yet and the first snapshot is
// published, so the initial queries never pay the copy. A nil g starts the
// engine with an empty registry — collections are then added with
// AddCollection (synchronous) or created over HTTP via POST /v1/collections
// (asynchronous build).
func New(g *acq.Graph, cfg Config) *Engine {
	if cfg.Addr == "" {
		cfg.Addr = DefaultAddr
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	e := &Engine{reg: NewRegistry(), cfg: cfg}
	if cfg.FollowURL != "" && cfg.DataDir == "" {
		// No error return to thread this through; a follower without a place
		// to put the shipped snapshots is a config bug, not a runtime state.
		panic("engine: Config.FollowURL requires Config.DataDir (the follower stores shipped snapshots there)")
	}
	if cfg.DataDir != "" {
		e.recoverCollections()
	}
	if g != nil {
		if _, ok := e.reg.Get(DefaultCollection); ok {
			// Recovered durable state wins over the preload: the disk copy
			// carries acknowledged writes the caller's graph does not.
			cfg.Logf("engine: collection %q recovered from %s; ignoring the preloaded graph",
				DefaultCollection, cfg.DataDir)
		} else if _, err := e.AddCollection(DefaultCollection, g); err != nil {
			// The registry is empty and the name is valid, so only a
			// durability failure (unwritable DataDir) lands here.
			panic(err)
		}
	}
	if cfg.FollowURL != "" {
		e.fol = newFollower(e)
		go e.fol.run()
	}
	return e
}

// IsFollower reports whether this engine is a read replica (Config.FollowURL
// set). Followers reject writes with a structured 403 not_leader.
func (e *Engine) IsFollower() bool { return e.fol != nil }

// Leader returns the leader URL this engine follows, or "" on a leader.
func (e *Engine) Leader() string { return e.cfg.FollowURL }

// Close stops the engine's background work (the follower sync loop). It does
// not close collections — in-flight requests finish against their pinned
// snapshots. Safe to call multiple times; a leader's Close is a no-op.
func (e *Engine) Close() {
	if e.fol != nil {
		e.fol.stop()
	}
}

// reserve claims a collection slot and attaches the engine-level per-
// collection machinery (the admission quota) that the bare registry does not
// know about. All engine paths that create collections go through here.
func (e *Engine) reserve(name, source string) (*Collection, error) {
	c, err := e.reg.reserve(name, source)
	if err != nil {
		return nil, err
	}
	c.adm = newAdmission(e.cfg.MaxConcurrentQueries, e.cfg.MaxQueuedQueries)
	return c, nil
}

// durableOptions resolves the acq durability options for one collection.
func (e *Engine) durableOptions(name string) acq.DurableOptions {
	return acq.DurableOptions{
		Dir:             filepath.Join(e.cfg.DataDir, name),
		SyncMode:        e.cfg.SyncMode,
		CheckpointEvery: e.cfg.CheckpointEvery,
	}
}

// recoverCollections scans DataDir at startup and registers every
// subdirectory holding durable state as a ready collection. Clean
// recoveries serve their first snapshot zero-copy from the memory-mapped
// file; dirty ones replay the WAL and settle with a fresh checkpoint.
// A directory that fails to recover registers as a failed collection, so
// the damage is observable over /healthz instead of silently dropped.
func (e *Engine) recoverCollections() {
	entries, err := os.ReadDir(e.cfg.DataDir)
	if err != nil {
		if !os.IsNotExist(err) {
			e.cfg.Logf("engine: cannot scan data dir %s: %v", e.cfg.DataDir, err)
		}
		return
	}
	for _, entry := range entries {
		name := entry.Name()
		if !entry.IsDir() || validateCollectionName(name) != nil {
			continue
		}
		start := time.Now()
		g, err := acq.OpenDurable(e.durableOptions(name))
		if errors.Is(err, acq.ErrNoDurableState) {
			continue // directory exists but never finished EnableDurability
		}
		c, rerr := e.reserve(name, "durable:"+filepath.Join(e.cfg.DataDir, name))
		if rerr != nil {
			e.cfg.Logf("engine: cannot register recovered collection %q: %v", name, rerr)
			continue
		}
		if err != nil {
			e.cfg.Logf("engine: collection %q failed to recover: %v", name, err)
			c.fail(err)
			continue
		}
		e.prepare(name, g)
		c.complete(g)
		ds := g.DurabilityStats()
		e.cfg.Logf("engine: collection %q recovered in %v: version %d, %d WAL batch(es) replayed, mapped=%v",
			name, time.Since(start).Round(time.Millisecond), g.Version(), ds.RecoveredBatches, ds.MappedColdStart)
	}
}

// armDurability enables the WAL + snapshot machinery for a collection when
// the engine has a data directory. A graph that is already durable (an
// OpenDurable recovery handed to AddCollection) passes through untouched.
func (e *Engine) armDurability(name string, g *acq.Graph) error {
	if e.cfg.DataDir == "" {
		return nil
	}
	err := g.EnableDurability(e.durableOptions(name))
	if err != nil && !errors.Is(err, acq.ErrAlreadyDurable) {
		return fmt.Errorf("engine: collection %q: enabling durability: %w", name, err)
	}
	return nil
}

// Registry returns the engine's collection registry.
func (e *Engine) Registry() *Registry { return e.reg }

// Collection returns the named collection, in whatever lifecycle state.
func (e *Engine) Collection(name string) (*Collection, bool) { return e.reg.Get(name) }

// AddCollection registers g under name, preparing it synchronously: the
// engine's worker/cache settings are applied, the CL-tree is built if g does
// not have one yet, and the first snapshot is published. The collection is
// ready when AddCollection returns. Use CreateCollection for the
// asynchronous path.
func (e *Engine) AddCollection(name string, g *acq.Graph) (*Collection, error) {
	c, err := e.reserve(name, "preloaded")
	if err != nil {
		return nil, err
	}
	e.prepare(name, g)
	// With a data dir, preloaded collections persist: the initial checkpoint
	// writes the snapshot and subsequent mutations hit the WAL. A failure
	// leaves the slot failed (observable) rather than silently volatile.
	if err := e.armDurability(name, g); err != nil {
		c.fail(err)
		return nil, err
	}
	c.complete(g)
	return c, nil
}

// CreateCollection reserves name immediately (so concurrent creates cannot
// race) and loads + indexes its graph on a background goroutine. The
// returned collection starts in CollectionBuilding; poll State (or GET
// /v1/collections/{name}) for completion. Load or build failures move it to
// CollectionFailed with the cause in Err — the slot stays registered so the
// failure is observable, and can be freed with Registry.Delete.
func (e *Engine) CreateCollection(name string, src Source) (*Collection, error) {
	if err := src.validate(); err != nil {
		return nil, err
	}
	if src.Durable && e.cfg.DataDir == "" {
		return nil, fmt.Errorf("engine: collection %q asks for durability but the server has no data dir (-data-dir)", name)
	}
	c, err := e.reserve(name, src.describe())
	if err != nil {
		return nil, err
	}
	go func() {
		g, err := src.Load()
		if err != nil {
			e.cfg.Logf("engine: collection %q failed to load (%s): %v", name, src.describe(), err)
			c.fail(err)
			return
		}
		e.prepare(name, g)
		if src.Durable {
			if err := e.armDurability(name, g); err != nil {
				e.cfg.Logf("engine: %v", err)
				c.fail(err)
				return
			}
		}
		// Stats before complete: once the collection is ready, mutations can
		// land concurrently, and the log line describes the loaded state.
		st := g.Stats()
		c.complete(g)
		e.cfg.Logf("engine: collection %q ready: %d vertices / %d edges (kmax %d)",
			name, st.Vertices, st.Edges, st.KMax)
	}()
	return c, nil
}

// prepare applies the engine configuration to a freshly loaded graph, builds
// its index when missing, and publishes the first snapshot.
func (e *Engine) prepare(name string, g *acq.Graph) {
	if !g.HasIndex() {
		e.cfg.Logf("engine: building CL-tree index for collection %q...", name)
		g.BuildIndex()
		d, workers := g.IndexBuildStats()
		e.cfg.Logf("engine: collection %q CL-tree built in %v (%d workers)", name, d, workers)
	}
	if e.cfg.CacheSize != 0 {
		g.SetResultCacheSize(e.cfg.CacheSize)
	}
	if e.cfg.CompactionThreshold != 0 {
		g.SetCompactionThreshold(e.cfg.CompactionThreshold)
	}
	g.Snapshot() // warm: publish the first snapshot before serving
}

// Graph returns the default collection's graph, or nil when no ready default
// collection exists. Engines constructed as New(g, cfg) always have one.
func (e *Engine) Graph() *acq.Graph {
	if c, ok := e.reg.Get(DefaultCollection); ok {
		return c.Graph()
	}
	return nil
}

// ListenAndServe serves the engine's Handler on the configured address,
// blocking like http.ListenAndServe.
func (e *Engine) ListenAndServe() error {
	for _, c := range e.reg.All() {
		if g := c.Graph(); g != nil {
			st := g.Stats()
			e.cfg.Logf("engine: collection %q: %d vertices / %d edges (kmax %d)",
				c.Name(), st.Vertices, st.Edges, st.KMax)
		} else {
			e.cfg.Logf("engine: collection %q: %s", c.Name(), c.State())
		}
	}
	e.cfg.Logf("engine: serving %d collection(s) on %s", e.reg.Len(), e.cfg.Addr)
	return http.ListenAndServe(e.cfg.Addr, e.Handler())
}

// Serve is the one-call entry point: New(g, cfg).ListenAndServe().
func Serve(g *acq.Graph, cfg Config) error {
	return New(g, cfg).ListenAndServe()
}

// LoadFile reads a graph from disk. The format is picked from the content,
// not the name: an .acqm snapshot (written by acq.Graph.SaveSnapshot, or a
// durable collection's snapshot.acqm) restores its prebuilt index, and
// anything else is parsed as the text interchange format.
func LoadFile(path string) (*acq.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	// Text graphs never contain a NUL byte, so any binary file goes to the
	// snapshot reader, which names the bad magic of one that is not .acqm
	// (such as a gob snapshot from an older release).
	head, _ := br.Peek(512)
	if bytes.HasPrefix(head, []byte(dataio.MappedMagic)) || bytes.IndexByte(head, 0) >= 0 {
		return acq.LoadSnapshot(br)
	}
	return acq.Load(br)
}

// LoadSource resolves the two bootstrap flags of cmd/acqd: a synthetic
// preset (with scale) takes precedence, then a file path. Exactly one of
// preset and path must be non-empty.
func LoadSource(path, preset string, scale float64) (*acq.Graph, error) {
	switch {
	case preset != "":
		return acq.Synthetic(preset, scale)
	case path != "":
		return LoadFile(path)
	default:
		return nil, fmt.Errorf("engine: need a graph file or a synthetic preset")
	}
}
