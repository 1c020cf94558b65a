package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	acq "github.com/acq-search/acq"
)

// This file is the multi-collection core of the engine: a Registry of named
// *acq.Graph instances, each wrapped in a Collection that carries its
// lifecycle state (building → ready | failed), its own serving counters and
// its source description. The HTTP layer routes every v1 request through a
// registry lookup — one RLock + map probe, part of benchmark/'s
// engine.search.self_ms, a rounding error next to evaluation — so one process
// serves many independently-maintained graphs behind one versioned surface.

// DefaultCollection is the collection name served by the unsuffixed
// single-graph endpoints (/v1/search, /v1/batch and /v1/mutations). Engines
// constructed with New(g, cfg) register g under this name.
const DefaultCollection = "default"

// Lifecycle errors surfaced by the registry and mapped onto the v1
// structured error codes (collection_not_found, collection_exists,
// index_building, collection_failed). Test with errors.Is.
var (
	// ErrCollectionNotFound reports a request against an unknown collection.
	ErrCollectionNotFound = errors.New("engine: collection not found")
	// ErrCollectionExists reports a create against a name already in use.
	ErrCollectionExists = errors.New("engine: collection already exists")
	// ErrIndexBuilding reports a query or mutation against a collection whose
	// graph is still loading or whose index is still building.
	ErrIndexBuilding = errors.New("engine: collection index is still building")
	// errCollectionFailed reports a request against a collection whose async
	// load/build failed; the wrap chain carries the build error.
	errCollectionFailed = errors.New("engine: collection failed to build")
)

// CollectionState is the lifecycle state of a Collection.
type CollectionState int32

const (
	// CollectionBuilding: the graph is loading and/or its index is building
	// asynchronously; queries return index_building until it is ready.
	CollectionBuilding CollectionState = iota
	// CollectionReady: graph loaded, index built, first snapshot published.
	CollectionReady
	// CollectionFailed: the async load/build failed; Collection.Err has the
	// cause. The collection stays registered (so the failure is queryable via
	// GET /v1/collections/{name}) until it is deleted.
	CollectionFailed
)

// String returns the wire spelling used by the HTTP API ("building",
// "ready", "failed").
func (s CollectionState) String() string {
	switch s {
	case CollectionBuilding:
		return "building"
	case CollectionReady:
		return "ready"
	case CollectionFailed:
		return "failed"
	default:
		return fmt.Sprintf("CollectionState(%d)", int32(s))
	}
}

// Source describes where a collection's graph comes from: a file path (text
// or .acqm), a synthetic preset (with optional scale), or — when both are
// empty — a new empty graph. At most one of Path and Preset may be set.
// Source doubles as the JSON body fields of POST /v1/collections.
type Source struct {
	// Path is a graph file readable by LoadFile (text interchange format, or
	// an .acqm snapshot with its prebuilt index).
	Path string `json:"path,omitempty"`
	// Preset names a synthetic dataset analogue (flickr, dblp, tencent,
	// dbpedia); Scale multiplies its size (0 means 1.0).
	Preset string  `json:"preset,omitempty"`
	Scale  float64 `json:"scale,omitempty"`
	// Durable persists the collection under the server's data dir: mutations
	// are WAL-logged and checkpointed, and the collection is recovered on
	// restart. Requires Config.DataDir; the create is rejected otherwise.
	Durable bool `json:"durable,omitempty"`
}

// validate rejects ambiguous or malformed sources before any loading
// starts — a typo must fail the create, not kick off a surprise full-scale
// build or silently produce an empty collection.
func (s Source) validate() error {
	if s.Path != "" && s.Preset != "" {
		return fmt.Errorf("source must set at most one of path and preset, got both %q and %q", s.Path, s.Preset)
	}
	if s.Scale < 0 {
		return fmt.Errorf("source scale must be positive, got %g", s.Scale)
	}
	if s.Scale > 0 && s.Preset == "" {
		return fmt.Errorf("source scale %g is only meaningful with a preset", s.Scale)
	}
	return nil
}

// Load resolves the source into a graph: Path via LoadFile, Preset via
// acq.Synthetic, neither → a new empty graph.
func (s Source) Load() (*acq.Graph, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	switch {
	case s.Path != "":
		return LoadFile(s.Path)
	case s.Preset != "":
		scale := s.Scale
		if scale <= 0 {
			scale = 1.0
		}
		return acq.Synthetic(s.Preset, scale)
	default:
		return acq.NewBuilder().Build()
	}
}

// describe renders the source for listings and logs.
func (s Source) describe() string {
	switch {
	case s.Path != "":
		return "file:" + s.Path
	case s.Preset != "":
		scale := s.Scale
		if scale <= 0 {
			scale = 1.0
		}
		return fmt.Sprintf("preset:%s@%g", s.Preset, scale)
	default:
		return "empty"
	}
}

// Collection is one named graph inside a Registry: the *acq.Graph (nil until
// the async build completes), its lifecycle state, and the per-collection
// serving counters that feed GET /metrics.
//
// All fields are read atomically, so status probes (healthz, metrics, the
// lifecycle endpoints) never contend with the serving hot path.
type Collection struct {
	name   string
	source string

	state    atomic.Int32              // CollectionState
	graph    atomic.Pointer[acq.Graph] // nil until CollectionReady
	buildErr atomic.Pointer[error]     // set exactly once, on CollectionFailed
	met      metrics
	adm      *admission                    // nil when admission control is off
	replica  atomic.Pointer[ReplicaStatus] // nil unless this engine follows a leader
}

// ReplicaStatus is a follower collection's replication state, refreshed by
// the follower loop after every sync round and published atomically (status
// probes never contend with the sync loop). Nil on a leader.
type ReplicaStatus struct {
	// Leader is the URL this collection replicates from.
	Leader string `json:"leader"`
	// LeaderVersion is the leader graph's version at the last successful poll.
	LeaderVersion uint64 `json:"leader_version"`
	// LagOps is LeaderVersion minus the local graph's version after the last
	// sync round — the number of effective mutations this replica is behind.
	LagOps uint64 `json:"replication_lag_ops"`
	// LagMillis is the time since the last successful sync round, measured at
	// snapshot time: a leader outage shows up here even while LagOps is 0.
	LagMillis int64 `json:"replication_lag_ms"`
	// AppliedOps counts mutations applied via replication since this process
	// started; Bootstraps counts full snapshot re-bootstraps (1 for the
	// initial one on a fresh follower, more after resets).
	AppliedOps uint64 `json:"applied_ops"`
	Bootstraps uint64 `json:"bootstraps"`
	// LastErr is the most recent sync error ("" once a round succeeds again).
	LastErr string `json:"last_error,omitempty"`

	// lastSyncMs is the wall clock (unix ms) of the last successful sync
	// round; snapshot derives LagMillis from it so the published number keeps
	// growing during a leader outage without the loop re-publishing.
	lastSyncMs int64
}

// snapshot copies the status with LagMillis computed against now.
func (rs *ReplicaStatus) snapshot(now time.Time) ReplicaStatus {
	out := *rs
	if rs.lastSyncMs > 0 {
		out.LagMillis = now.UnixMilli() - rs.lastSyncMs
	}
	return out
}

// ReplicaStatus returns the collection's replication state, or nil when this
// engine is a leader (or the follower loop has not completed a round yet).
func (c *Collection) ReplicaStatus() *ReplicaStatus { return c.replica.Load() }

// Name returns the collection's registry name.
func (c *Collection) Name() string { return c.name }

// SourceDesc describes where the collection's graph came from
// ("file:...", "preset:dblp@0.5", "empty").
func (c *Collection) SourceDesc() string { return c.source }

// State returns the collection's lifecycle state.
func (c *Collection) State() CollectionState { return CollectionState(c.state.Load()) }

// Err returns the build failure when State is CollectionFailed, else nil.
func (c *Collection) Err() error {
	if p := c.buildErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Graph returns the collection's graph, or nil while it is still building
// (or after a failed build).
func (c *Collection) Graph() *acq.Graph { return c.graph.Load() }

// Ready returns the collection's graph, or the structured lifecycle error
// (ErrIndexBuilding while building, a wrap of the build error after a
// failure) that the HTTP layer maps onto 503/500 responses.
func (c *Collection) Ready() (*acq.Graph, error) {
	switch c.State() {
	case CollectionReady:
		return c.graph.Load(), nil
	case CollectionFailed:
		return nil, fmt.Errorf("%w: collection %q: %v", errCollectionFailed, c.name, c.Err())
	default:
		return nil, fmt.Errorf("%w: collection %q", ErrIndexBuilding, c.name)
	}
}

// complete transitions the collection to ready with its built graph.
func (c *Collection) complete(g *acq.Graph) {
	c.graph.Store(g)
	c.state.Store(int32(CollectionReady))
}

// fail transitions the collection to failed with the build error.
func (c *Collection) fail(err error) {
	c.buildErr.Store(&err)
	c.state.Store(int32(CollectionFailed))
}

// Registry is a concurrency-safe set of named collections. Lookups on the
// serving hot path take a read lock around one map probe; lifecycle
// operations (reserve, delete) take the write lock. Deleting a collection
// never disturbs in-flight requests: they hold the *Collection (and its
// immutable snapshot) directly, and the memory is reclaimed once the last
// reference drops.
type Registry struct {
	mu   sync.RWMutex
	cols map[string]*Collection
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{cols: make(map[string]*Collection)}
}

// Get returns the named collection, in whatever lifecycle state it is in.
func (r *Registry) Get(name string) (*Collection, bool) {
	r.mu.RLock()
	c, ok := r.cols[name]
	r.mu.RUnlock()
	return c, ok
}

// Len returns the number of registered collections (all states).
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.cols)
}

// Names returns the registered collection names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.cols))
	for name := range r.cols {
		names = append(names, name)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// All returns the registered collections sorted by name.
func (r *Registry) All() []*Collection {
	r.mu.RLock()
	out := make([]*Collection, 0, len(r.cols))
	for _, c := range r.cols {
		out = append(out, c)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Delete removes the named collection, returning it (for final logging) and
// whether it existed. In-flight requests that already resolved the
// collection finish against its snapshot; new requests get
// ErrCollectionNotFound.
func (r *Registry) Delete(name string) (*Collection, bool) {
	r.mu.Lock()
	c, ok := r.cols[name]
	if ok {
		delete(r.cols, name)
	}
	r.mu.Unlock()
	return c, ok
}

// reserve atomically claims a name in the building state, so concurrent
// creates of the same name cannot race past each other.
func (r *Registry) reserve(name, source string) (*Collection, error) {
	if err := validateCollectionName(name); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.cols[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrCollectionExists, name)
	}
	c := &Collection{name: name, source: source}
	r.cols[name] = c
	return c, nil
}

// maxCollectionName bounds collection names so they stay usable as URL path
// segments and metric keys.
const maxCollectionName = 64

// validateCollectionName enforces the name grammar: 1..64 characters of
// [a-zA-Z0-9._-], not starting with a dot (no "." / ".." path segments).
func validateCollectionName(name string) error {
	if name == "" {
		return errors.New("collection name must not be empty")
	}
	if len(name) > maxCollectionName {
		return fmt.Errorf("collection name longer than %d bytes", maxCollectionName)
	}
	if name[0] == '.' {
		return fmt.Errorf("collection name %q must not start with a dot", name)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("collection name %q contains %q (want [a-zA-Z0-9._-])", name, c)
		}
	}
	return nil
}
