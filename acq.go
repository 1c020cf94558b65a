package acq

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/acq-search/acq/internal/cancel"
	"github.com/acq-search/acq/internal/core"
	"github.com/acq-search/acq/internal/datagen"
	"github.com/acq-search/acq/internal/dataio"
	"github.com/acq-search/acq/internal/graph"
	"github.com/acq-search/acq/internal/wal"
)

// Re-exported sentinel errors. Search and the variants wrap these; test with
// errors.Is.
var (
	// ErrVertexNotFound reports an unknown query vertex (label or ID).
	ErrVertexNotFound = errors.New("acq: query vertex not found")
	// ErrNoKCore reports that no k-core contains the query vertex.
	ErrNoKCore = core.ErrNoKCore
	// ErrBadK reports a non-positive k.
	ErrBadK = core.ErrBadK
	// ErrBadTheta reports a ModeThreshold Theta (or ModeSimilar Tau) outside
	// (0, 1].
	ErrBadTheta = core.ErrBadTheta
	// ErrBadMode reports an unknown Query.Mode.
	ErrBadMode = errors.New("acq: unknown query mode")
	// ErrBadAlgorithm reports an unknown Query.Algorithm.
	ErrBadAlgorithm = errors.New("acq: unknown algorithm")
	// ErrNoIndex reports an index-requiring operation on an unindexed graph.
	ErrNoIndex = errors.New("acq: no index built; call BuildIndex first")
	// ErrBadEpsilon reports a Query.Epsilon outside [0, 1).
	ErrBadEpsilon = errors.New("acq: epsilon must be in [0, 1)")
	// ErrBadBudget reports a negative Query.Budget.
	ErrBadBudget = errors.New("acq: budget must be ≥ 0")
	// ErrBadTopR reports a negative Query.TopR.
	ErrBadTopR = errors.New("acq: top_r must be ≥ 0")
	// ErrBudgetExhausted re-exports the work-budget sentinel. Search itself
	// converts budget exhaustion into a partial Result with BudgetExhausted
	// set rather than an error; the sentinel surfaces from lower-level
	// evaluation helpers and is exported for errors.Is symmetry.
	ErrBudgetExhausted = cancel.ErrBudget
	// ErrCanceled reports a search stopped by context cancellation or
	// deadline expiry before completing. The returned error additionally
	// wraps context.Cause(ctx), so errors.Is(err, context.DeadlineExceeded)
	// distinguishes a deadline from a plain cancel.
	ErrCanceled = cancel.ErrCanceled
)

// Graph is an attributed graph plus (once BuildIndex has run) its CL-tree
// index and the incremental maintainer that keeps the two in sync.
//
// # Concurrency
//
// Two read paths exist:
//
//   - Direct reads (Search, Stats, ...) run against the live master copy with
//     no synchronisation. Any number of concurrent direct readers is safe,
//     but direct reads must not overlap with mutators.
//   - Snapshot reads (Snapshot().Search, ...) run against an immutable
//     published copy resolved through a single atomic pointer load — readers
//     never block writers and the index read path takes no lock. (The
//     optional per-snapshot result cache is the one structure with internal
//     sharded locking; disable it via SetResultCacheSize(-1) for a strictly
//     lock-free path.)
//
// Mutators (InsertEdge, RemoveEdge, AddKeyword, RemoveKeyword, BuildIndex)
// are always safe to call from multiple goroutines: they serialise on an
// internal mutex. While snapshots are in use, each effective mutation applies
// incrementally to the master copy and then publishes a fresh copy-on-write
// snapshot, so in-flight readers keep the version they pinned.
type Graph struct {
	g     *graph.Graph
	tree  *core.Tree
	maint *core.Maintainer

	// Snapshot machinery (see snapshot.go). mu serialises mutators and
	// snapshot publication. snap holds the latest published snapshot and is
	// nil until Snapshot is first called — before that, mutations cost
	// nothing beyond the incremental index maintenance. version counts
	// effective mutations so caches and metrics can tell graph versions
	// apart.
	mu        sync.Mutex
	snap      atomic.Pointer[Snapshot]
	version   atomic.Uint64
	snapRead  atomic.Bool // current snapshot handed to a reader since publish?
	cacheSize int
	stats     *cacheStats

	// The last-build and last-publication telemetry is atomic so metrics
	// scrapers can read it without taking the mutator lock.
	lastBuildNanos    atomic.Int64
	lastBuildWorkers  atomic.Int32
	lastPublishNanos  atomic.Int64
	lastSnapshotBytes atomic.Int64

	// --- LSM-style write path (write.go). base is the frozen base the
	// current delta overlay is relative to; nil means overlay tracking is
	// off (not serving, or SetCompactionThreshold < 0). The ov* tables hold
	// the working row overrides, published as an immutable graph.Overlay per
	// effective mutation. All guarded by mu; the atomics below are telemetry
	// written under mu and read lock-free.
	base       *graph.Frozen
	ovAdjIdx   []int32
	ovKwIdx    []int32
	ovAdjRows  [][]graph.VertexID
	ovKwRows   [][]graph.KeywordID
	ovAdjLen   int
	ovKwLen    int
	ovKwTotal  int
	ovDict     *graph.Dict
	ovDictSize int

	// pubTree is the immutable full tree clone that delta publications
	// shallow-rebind (with a posting patch) while the tree structure is
	// unchanged; pubStructRev/treeGen fingerprint its validity.
	pubTree      *core.Tree
	pubStructRev uint64
	treeGen      uint64
	workingPatch map[*core.Node]*core.NodePostings
	patchDirty   map[graph.VertexID]struct{}

	// Compaction state: compactMu serialises folds, pend records rows
	// dirtied while one is materialising off-lock.
	compactMu           sync.Mutex
	pend                *pendingDelta
	compactThreshold    atomic.Int64
	compactArmed        atomic.Bool
	compacting          atomic.Bool
	compactions         atomic.Uint64
	lastCompactionNanos atomic.Int64

	deltaOps       atomic.Int64
	deltaEdgeOps   atomic.Int64
	deltaKwOps     atomic.Int64
	deltaAdjRows   atomic.Int64
	deltaKwRows    atomic.Int64
	deltaBytes     atomic.Int64
	fullPublishes  atomic.Uint64
	deltaPublishes atomic.Uint64

	// dur holds the durability state (durable.go): nil until
	// EnableDurability/OpenDurable arms it, immutable afterwards. The WAL
	// append hook in each mutator reads it under mu.
	dur *durState

	// lazyBoot defers materialising the mutable master after a clean mapped
	// recovery (OpenDurable): reads serve from the published zero-copy
	// snapshot, and the closure runs once — under mu, on the first operation
	// that needs g/tree/maint — so cold start never pays the master build.
	// masterReady gates the lock-free fast paths; g, tree and maint are
	// immutable once it reads true.
	lazyBoot    func() (*graph.Graph, *core.Tree)
	masterReady atomic.Bool
}

// newGraph wraps an internal graph (and optional prebuilt tree) in the
// public type. All constructors funnel through here so the shared cache
// statistics exist up front and the serving paths never need a lock to
// reach them.
func newGraph(g *graph.Graph, tree *core.Tree) *Graph {
	G := &Graph{g: g, tree: tree, stats: &cacheStats{}}
	if tree != nil {
		G.maint = core.NewMaintainer(tree)
	}
	G.masterReady.Store(true)
	return G
}

// newLazyGraph wraps a deferred master: boot is invoked once, under mu, on
// the first operation that needs the mutable graph (a mutation, an index
// rebuild, a checkpoint capture). Until then the caller must publish a
// snapshot for the read paths to serve from.
func newLazyGraph(boot func() (*graph.Graph, *core.Tree)) *Graph {
	return &Graph{lazyBoot: boot, stats: &cacheStats{}}
}

// ensureMaster materialises the deferred master; the fast path is one atomic
// load.
func (G *Graph) ensureMaster() {
	if G.masterReady.Load() {
		return
	}
	G.mu.Lock()
	defer G.mu.Unlock()
	G.ensureMasterLocked()
}

// ensureMasterLocked installs the mutable master, its tree and the
// maintainer from the deferred boot closure. Callers hold mu.
func (G *Graph) ensureMasterLocked() {
	if G.masterReady.Load() {
		return
	}
	g, tree := G.lazyBoot()
	G.lazyBoot = nil
	G.g = g
	G.tree = tree
	if tree != nil {
		G.maint = core.NewMaintainer(tree)
	}
	G.masterReady.Store(true)
}

// Builder constructs a Graph.
type Builder struct {
	b *graph.Builder
}

// NewBuilder returns an empty graph builder.
func NewBuilder() *Builder { return &Builder{b: graph.NewBuilder()} }

// AddVertex adds a labelled vertex with keywords and returns its dense ID.
func (b *Builder) AddVertex(label string, keywords ...string) int32 {
	return int32(b.b.AddVertex(label, keywords...))
}

// AddEdge records an undirected edge by vertex IDs.
func (b *Builder) AddEdge(u, v int32) {
	b.b.AddEdge(graph.VertexID(u), graph.VertexID(v))
}

// AddEdgeByLabel records an undirected edge by labels, creating missing
// endpoints with empty keyword sets.
func (b *Builder) AddEdgeByLabel(u, v string) { b.b.AddEdgeByLabel(u, v) }

// Build assembles the graph (deduplicating edges, dropping self-loops).
func (b *Builder) Build() (*Graph, error) {
	g, err := b.b.Build()
	if err != nil {
		return nil, err
	}
	return newGraph(g, nil), nil
}

// Load reads a graph in the text interchange format:
//
//	v <label> [keyword ...]
//	e <labelA> <labelB>
func Load(r io.Reader) (*Graph, error) {
	g, err := dataio.ReadText(r)
	if err != nil {
		return nil, err
	}
	return newGraph(g, nil), nil
}

// LoadSnapshot reads a snapshot file written by SaveSnapshot (or a durable
// collection's snapshot.acqm), restoring the prebuilt index when one was
// stored. The graph starts at version 0. (File snapshots are unrelated to the
// in-memory Snapshot type used for concurrent serving.)
func LoadSnapshot(r io.Reader) (*Graph, error) {
	g, tree, err := dataio.ReadMapped(r)
	if err != nil {
		return nil, err
	}
	return newGraph(g, tree), nil
}

// Save writes the graph in the text interchange format.
func (G *Graph) Save(w io.Writer) error { return dataio.WriteText(w, G.view().g) }

// SaveSnapshot writes the graph and, if built, the index as a snapshot file
// in the mapped container format (.acqm) that durable collections use.
func (G *Graph) SaveSnapshot(w io.Writer) error { return G.view().saveSnapshot(w) }

// saveSnapshot writes v's graph and tree as a mapped container; whichever
// representation v holds, it is flattened into one CSR first.
func (v view) saveSnapshot(w io.Writer) error {
	var fz *graph.Frozen
	switch g := v.g.(type) {
	case *graph.Frozen:
		fz = g
	case *graph.Overlay:
		fz = g.Materialize(1)
	case *graph.Graph:
		fz = g.Freeze(1)
	default:
		return fmt.Errorf("acq: cannot snapshot graph representation %T", v.g)
	}
	return dataio.WriteMapped(w, fz, dataio.FlattenTree(v.tree), 0)
}

// Synthetic generates one of the built-in synthetic dataset analogues
// (flickr, dblp, tencent, dbpedia) at the given scale (1.0 = the default
// laptop-scale size; see internal/datagen).
func Synthetic(preset string, scale float64) (*Graph, error) {
	cfg, err := datagen.Preset(preset)
	if err != nil {
		return nil, err
	}
	return newGraph(datagen.Generate(cfg.Scale(scale)), nil), nil
}

// IndexMethod selects a CL-tree construction algorithm.
type IndexMethod int

const (
	// IndexAdvanced is the bottom-up anchored-union-find build —
	// near-linear time, the default.
	IndexAdvanced IndexMethod = iota
	// IndexBasic is the top-down recursive build (paper Algorithm 1);
	// simpler, O(m·kmax). Exposed mainly for the Figure 13 comparison.
	IndexBasic
)

// BuildOptions configures BuildIndexOpts.
type BuildOptions struct {
	// Method selects the construction algorithm (default IndexAdvanced).
	Method IndexMethod
}

// buildWorkers is the fan-out of index builds and snapshot publication. Its
// only value outside tests is 0, which sizes the pool automatically: one
// worker per CPU, serial below core.ParallelThreshold. Tests force other
// counts (export_test.go) to exercise the parallel paths on small graphs;
// every count yields identical trees and snapshots.
var buildWorkers atomic.Int32

// buildOptions returns the worker sizing for builds, clones and freezes.
func buildOptions() core.BuildOptions {
	return core.BuildOptions{Workers: int(buildWorkers.Load())}
}

// BuildIndex constructs the CL-tree with the advanced method.
func (G *Graph) BuildIndex() { G.BuildIndexOpts(BuildOptions{}) }

// BuildIndexWith constructs the CL-tree with the chosen method, replacing
// any existing index.
func (G *Graph) BuildIndexWith(m IndexMethod) { G.BuildIndexOpts(BuildOptions{Method: m}) }

// BuildIndexOpts constructs the CL-tree, replacing any existing index, and
// records build telemetry readable via IndexBuildStats.
func (G *Graph) BuildIndexOpts(o BuildOptions) {
	G.mu.Lock()
	defer G.mu.Unlock()
	G.ensureMasterLocked()
	start := time.Now()
	if o.Method == IndexBasic {
		G.tree = core.BuildBasic(G.g)
		G.lastBuildWorkers.Store(1)
	} else {
		opts := buildOptions()
		G.tree = core.BuildAdvancedOpts(G.g, opts)
		G.lastBuildWorkers.Store(int32(opts.ResolvedWorkers(G.g)))
	}
	G.lastBuildNanos.Store(time.Since(start).Nanoseconds())
	G.maint = core.NewMaintainer(G.tree)
	// The old tree (and any rebind clone of it) no longer describes the
	// index; the next delta publication must pay one full clone.
	G.treeGen++
	G.pubTree = nil
	if G.base != nil {
		G.workingPatch = map[*core.Node]*core.NodePostings{}
		G.patchDirty = map[graph.VertexID]struct{}{}
	}
	G.mutatedLocked()
}

// IndexBuildStats reports the wall-clock duration of the most recent index
// build and the resolved worker count it used (zero values before any build).
// Lock-free: safe to poll from a metrics scraper while writers publish.
func (G *Graph) IndexBuildStats() (d time.Duration, workers int) {
	return time.Duration(G.lastBuildNanos.Load()), int(G.lastBuildWorkers.Load())
}

// HasIndex reports whether a CL-tree is available.
func (G *Graph) HasIndex() bool { return G.view().tree != nil }

// Stats summarises the graph and index.
type Stats struct {
	Vertices    int
	Edges       int
	KMax        int     // maximum core number
	AvgDegree   float64 // d̂
	AvgKeywords float64 // l̂
	Keywords    int     // distinct keywords
	IndexNodes  int     // 0 when no index is built
	IndexHeight int
}

// Stats computes summary statistics (decomposing the graph if unindexed).
func (G *Graph) Stats() Stats { return G.view().stats() }

// NumVertices returns |V|.
func (G *Graph) NumVertices() int { return G.view().g.NumVertices() }

// NumEdges returns |E|.
func (G *Graph) NumEdges() int { return G.view().g.NumEdges() }

// VertexID resolves a label.
func (G *Graph) VertexID(label string) (int32, bool) {
	v, ok := G.view().g.VertexByLabel(label)
	return int32(v), ok
}

// Label returns the label of a vertex ID ("" if unlabelled).
func (G *Graph) Label(v int32) string { return G.view().g.Label(graph.VertexID(v)) }

// Keywords returns the keyword strings of a vertex.
func (G *Graph) Keywords(v int32) []string {
	return G.view().g.KeywordStrings(graph.VertexID(v))
}

// CoreNumber returns the core number of a vertex (requires an index).
func (G *Graph) CoreNumber(v int32) (int, error) { return G.view().coreNumber(v) }

// --- Snapshot publication.

// Snapshot returns the current immutable snapshot of the graph and index,
// publishing one first if none exists yet. The returned snapshot is safe for
// unlimited concurrent readers with zero locking: acquiring it is a single
// atomic pointer load, and nothing it references is ever mutated again.
//
// Calling Snapshot switches the graph into serving mode: while readers keep
// acquiring snapshots, every effective mutation publishes a fresh snapshot
// (copy-on-write over the incrementally maintained master), so the cost of a
// mutation grows from the incremental-maintenance cost to an additional
// O(n+m) copy. Write bursts coalesce: mutations applied while nobody has
// acquired the latest snapshot skip the copy, and the next Snapshot call
// pays for a single republication instead. Readers that need one consistent
// view across several queries should call Snapshot once and reuse it;
// SearchBatch does exactly that.
func (G *Graph) Snapshot() *Snapshot {
	if s := G.snap.Load(); s != nil && s.version == G.version.Load() {
		// Mark the snapshot consumed, but only when the flag isn't already
		// set: the common hot-read case then stays free of shared writes
		// (no cache-line ping-pong between parallel readers).
		if !G.snapRead.Load() {
			G.snapRead.Store(true)
		}
		return s
	}
	G.mu.Lock()
	defer G.mu.Unlock()
	s := G.snap.Load()
	if s == nil || s.version != G.version.Load() {
		s = G.publishLocked()
	}
	G.snapRead.Store(true)
	return s
}

// EndServing leaves serving mode: the published snapshot is released (its
// memory becomes reclaimable once in-flight readers drop their references)
// and mutations go back to costing only the incremental index maintenance,
// until the next Snapshot call re-activates publication. Use it after a
// batch-then-mutate phase that doesn't need snapshot isolation anymore.
// Snapshots already held by readers remain valid — they are immutable.
func (G *Graph) EndServing() {
	G.mu.Lock()
	defer G.mu.Unlock()
	G.snap.Store(nil)
	G.snapRead.Store(false)
	// Overlay tracking exists only to publish snapshots cheaply; outside
	// serving mode mutations should cost nothing beyond index maintenance.
	G.dropDeltaLocked()
}

// Version returns the number of effective mutations applied so far. Two
// equal versions imply an identical graph and index.
func (G *Graph) Version() uint64 { return G.version.Load() }

// SetResultCacheSize configures the capacity of the per-snapshot query-result
// cache: 0 restores DefaultResultCacheSize, negative disables caching. The
// setting applies to the next published snapshot; if one is already
// published, it is republished immediately so the new size takes effect.
func (G *Graph) SetResultCacheSize(n int) {
	G.mu.Lock()
	defer G.mu.Unlock()
	G.cacheSize = n
	if G.snap.Load() != nil {
		G.publishLocked()
	}
}

// ResultCacheStats returns the cumulative snapshot-cache hit and miss counts
// across all snapshots published by this graph. Lock-free: safe to poll from
// a metrics scraper while writers publish.
func (G *Graph) ResultCacheStats() (hits, misses uint64) {
	return G.stats.hits.Load(), G.stats.misses.Load()
}

// mutatedLocked records an effective mutation and decides how the next
// snapshot comes about. Callers hold G.mu.
//
// While the published snapshot is being consumed (a reader acquired it since
// publication), the next one is built eagerly so the read path stays a pure
// atomic load. When writes arrive back-to-back with no reader in between,
// the copies coalesce: the stale snapshot stays published but its version no
// longer matches, and the next Snapshot call rebuilds once under the mutex.
func (G *Graph) mutatedLocked() {
	G.version.Add(1)
	G.afterWriteLocked()
}

// afterWriteLocked runs once per write (single mutation or whole batch):
// republish eagerly while the published snapshot is being consumed, and let
// the compactor check the overlay size. Callers hold G.mu.
func (G *Graph) afterWriteLocked() {
	if G.snap.Load() != nil && G.snapRead.Load() {
		G.publishLocked()
	}
	G.maybeCompactLocked()
}

// publishLocked publishes a fresh snapshot of the master with an atomic
// store; callers hold G.mu. With overlay tracking active this is a delta
// publication — an O(delta) graph.Overlay over the frozen base plus a
// shallow tree rebind (see write.go) — and otherwise a full freeze, which
// also (re)initialises tracking unless SetCompactionThreshold disabled it.
func (G *Graph) publishLocked() *Snapshot {
	G.ensureMasterLocked()
	if G.base == nil || G.compactThreshold.Load() < 0 {
		return G.publishFullLocked()
	}
	return G.publishDeltaLocked()
}

// publishFullLocked freezes the master graph into a compact CSR copy, rebinds
// a clone of the tree to it, and publishes the pair with an atomic store.
// Callers hold G.mu. Freezing costs O(n+m) sequential copying but only a
// handful of allocations — adjacency and keyword payloads land in four flat
// arrays — so republication under a write burst no longer scales the
// garbage collector's work with the vertex count. The copy fans out over
// the auto-sized build workers. COW mutation still runs on the mutable
// master; the frozen form is publication-only.
func (G *Graph) publishFullLocked() *Snapshot {
	start := time.Now()
	workers := buildOptions().ResolvedWorkers(G.g)
	var prev *graph.Frozen
	if old := G.snap.Load(); old != nil {
		switch pg := old.v.g.(type) {
		case *graph.Frozen:
			prev = pg
		case *graph.Overlay:
			prev = pg.Base()
		}
	}
	fz := G.g.FreezeReuse(workers, prev)
	var t2 *core.Tree
	if G.tree != nil {
		t2 = G.tree.CloneOpts(fz, core.BuildOptions{Workers: workers})
	}
	s := newSnapshot(view{g: fz, tree: t2}, G.version.Load(), G.cacheSize, G.stats)
	G.snap.Store(s)
	G.snapRead.Store(false)
	G.lastPublishNanos.Store(time.Since(start).Nanoseconds())
	G.lastSnapshotBytes.Store(int64(fz.SizeBytes()))
	G.fullPublishes.Add(1)
	if G.compactThreshold.Load() >= 0 {
		G.resetDeltaLocked(fz, t2)
	} else {
		G.dropDeltaLocked()
	}
	return s
}

// publishDeltaLocked publishes the working overlay over the frozen base —
// O(delta) instead of O(n+m). Callers hold G.mu and guarantee base != nil.
func (G *Graph) publishDeltaLocked() *Snapshot {
	start := time.Now()
	ov := G.overlayLocked()
	t2 := G.deltaTreeLocked(ov)
	s := newSnapshot(view{g: ov, tree: t2}, G.version.Load(), G.cacheSize, G.stats)
	G.snap.Store(s)
	G.snapRead.Store(false)
	G.lastPublishNanos.Store(time.Since(start).Nanoseconds())
	G.lastSnapshotBytes.Store(int64(G.base.SizeBytes()) + G.deltaBytes.Load())
	G.deltaPublishes.Add(1)
	return s
}

// SnapshotStats reports the wall-clock duration of the most recent snapshot
// publication and the resident size of its frozen CSR payload (adjacency and
// keyword arrays) in bytes. Zero values before the first publication.
// Lock-free: safe to poll from a metrics scraper while writers publish.
func (G *Graph) SnapshotStats() (publish time.Duration, bytes int) {
	return time.Duration(G.lastPublishNanos.Load()), int(G.lastSnapshotBytes.Load())
}

// --- Mutation. All mutators keep the index consistent when one is built,
// serialise against each other, and republish the snapshot when serving
// mode is active.

// InsertEdge adds an undirected edge, reporting whether it was new.
func (G *Graph) InsertEdge(u, v int32) bool {
	G.mu.Lock()
	defer G.mu.Unlock()
	G.ensureMasterLocked()
	v0 := G.version.Load()
	changed := G.applyInsertEdgeLocked(graph.VertexID(u), graph.VertexID(v))
	if changed {
		G.durAppendLocked(v0, []wal.Op{{Kind: wal.OpInsertEdge, U: u, V: v}})
		G.mutatedLocked()
	}
	return changed
}

// RemoveEdge deletes an undirected edge, reporting whether it existed.
func (G *Graph) RemoveEdge(u, v int32) bool {
	G.mu.Lock()
	defer G.mu.Unlock()
	G.ensureMasterLocked()
	v0 := G.version.Load()
	changed := G.applyRemoveEdgeLocked(graph.VertexID(u), graph.VertexID(v))
	if changed {
		G.durAppendLocked(v0, []wal.Op{{Kind: wal.OpRemoveEdge, U: u, V: v}})
		G.mutatedLocked()
	}
	return changed
}

// AddKeyword attaches a keyword to a vertex, reporting whether W(v) changed.
func (G *Graph) AddKeyword(v int32, word string) bool {
	G.mu.Lock()
	defer G.mu.Unlock()
	G.ensureMasterLocked()
	v0 := G.version.Load()
	changed := G.applyAddKeywordLocked(graph.VertexID(v), word)
	if changed {
		G.durAppendLocked(v0, []wal.Op{{Kind: wal.OpAddKeyword, U: v, Word: word}})
		G.mutatedLocked()
	}
	return changed
}

// RemoveKeyword detaches a keyword from a vertex.
func (G *Graph) RemoveKeyword(v int32, word string) bool {
	G.mu.Lock()
	defer G.mu.Unlock()
	G.ensureMasterLocked()
	v0 := G.version.Load()
	changed := G.applyRemoveKeywordLocked(graph.VertexID(v), word)
	if changed {
		G.durAppendLocked(v0, []wal.Op{{Kind: wal.OpRemoveKeyword, U: v, Word: word}})
		G.mutatedLocked()
	}
	return changed
}
