package acq

import (
	"errors"
	"fmt"
	"time"

	"github.com/acq-search/acq/internal/core"
	"github.com/acq-search/acq/internal/graph"
	"github.com/acq-search/acq/internal/wal"
)

// This file implements the LSM-style write path: once a graph is serving,
// effective mutations publish a small graph.Overlay over an immutable frozen
// base (O(delta) per publication) instead of re-freezing the whole graph, and
// a background compactor folds the overlay into a fresh base off the serving
// path. See the "Write path" section of the README for the model.

// ErrBadMutation reports an ApplyMutations op with an unknown Op value.
var ErrBadMutation = errors.New("acq: unknown mutation op")

// DefaultCompactionThreshold is the number of effective mutations folded into
// the overlay before a background compaction is scheduled, when
// SetCompactionThreshold has not been called.
const DefaultCompactionThreshold = 4096

// MutationOp names one mutation kind in a batch.
type MutationOp string

// The mutation kinds accepted by ApplyMutations. They mirror the four
// single-op mutators.
const (
	OpInsertEdge    MutationOp = "insert_edge"
	OpRemoveEdge    MutationOp = "remove_edge"
	OpAddKeyword    MutationOp = "add_keyword"
	OpRemoveKeyword MutationOp = "remove_keyword"
)

// Mutation is one entry of an ApplyMutations batch. Edge ops use U and V;
// keyword ops use Vertex and Keyword.
type Mutation struct {
	Op      MutationOp
	U, V    int32
	Vertex  int32
	Keyword string
}

// MutationResult reports the outcome of one batch entry: whether it changed
// the graph, or why it was rejected. Rejected entries never abort the batch.
type MutationResult struct {
	Changed bool
	Err     error
}

// ApplyMutations applies a batch of mutations atomically with respect to
// readers: the whole batch runs under one writer-lock acquisition and
// triggers at most one snapshot publication, so ingest amortises the
// per-publication cost over the batch size. Entries are applied in order;
// invalid entries (unknown op, out-of-range vertex) are reported in their
// MutationResult and skipped. The graph version advances once per entry that
// changed the graph.
func (G *Graph) ApplyMutations(ops []Mutation) []MutationResult {
	out := make([]MutationResult, len(ops))
	G.mu.Lock()
	defer G.mu.Unlock()
	G.ensureMasterLocked()
	n := int32(G.g.NumVertices())
	v0 := G.version.Load()
	var logOps []wal.Op // effective ops for the WAL, in application order
	logging := G.dur != nil && G.dur.log != nil
	effective := 0
	for i, op := range ops {
		switch op.Op {
		case OpInsertEdge, OpRemoveEdge:
			if op.U < 0 || op.U >= n || op.V < 0 || op.V >= n {
				out[i].Err = ErrVertexNotFound
				continue
			}
		case OpAddKeyword, OpRemoveKeyword:
			if op.Vertex < 0 || op.Vertex >= n {
				out[i].Err = ErrVertexNotFound
				continue
			}
		default:
			out[i].Err = fmt.Errorf("%w: %q", ErrBadMutation, op.Op)
			continue
		}
		var changed bool
		switch op.Op {
		case OpInsertEdge:
			changed = G.applyInsertEdgeLocked(graph.VertexID(op.U), graph.VertexID(op.V))
		case OpRemoveEdge:
			changed = G.applyRemoveEdgeLocked(graph.VertexID(op.U), graph.VertexID(op.V))
		case OpAddKeyword:
			changed = G.applyAddKeywordLocked(graph.VertexID(op.Vertex), op.Keyword)
		case OpRemoveKeyword:
			changed = G.applyRemoveKeywordLocked(graph.VertexID(op.Vertex), op.Keyword)
		}
		out[i].Changed = changed
		if changed {
			G.version.Add(1)
			effective++
			if logging {
				logOps = append(logOps, walOpOfMutation(op))
			}
		}
	}
	if effective > 0 {
		// The WAL record lands before the batch publishes or the caller is
		// acknowledged: a snapshot never exposes state that a crash could
		// take back.
		G.durAppendLocked(v0, logOps)
		G.afterWriteLocked()
	}
	return out
}

// --- raw apply helpers. Each applies one mutation to the master (through the
// maintainer when an index exists) and records the dirtied rows; version
// bumps and publication are the caller's job.

func (G *Graph) applyInsertEdgeLocked(u, v graph.VertexID) bool {
	var changed bool
	if G.maint != nil {
		changed = G.maint.InsertEdge(u, v)
	} else {
		changed = G.g.InsertEdge(u, v)
	}
	if changed {
		G.noteEdgeLocked(u, v)
	}
	return changed
}

func (G *Graph) applyRemoveEdgeLocked(u, v graph.VertexID) bool {
	var changed bool
	if G.maint != nil {
		changed = G.maint.RemoveEdge(u, v)
	} else {
		changed = G.g.RemoveEdge(u, v)
	}
	if changed {
		G.noteEdgeLocked(u, v)
	}
	return changed
}

func (G *Graph) applyAddKeywordLocked(v graph.VertexID, word string) bool {
	var changed bool
	if G.maint != nil {
		changed = G.maint.AddKeyword(v, word)
	} else {
		changed = G.g.AddKeyword(v, word)
	}
	if changed {
		G.noteKeywordLocked(v, 1)
	}
	return changed
}

func (G *Graph) applyRemoveKeywordLocked(v graph.VertexID, word string) bool {
	var changed bool
	if G.maint != nil {
		changed = G.maint.RemoveKeyword(v, word)
	} else {
		changed = G.g.RemoveKeyword(v, word)
	}
	if changed {
		G.noteKeywordLocked(v, -1)
	}
	return changed
}

// --- overlay tracking. Active exactly while G.base != nil: every dirtied
// vertex gets its master row copied into the override tables, so building a
// publishable Overlay is two index-array copies plus slice-header copies.

// pendingDelta records the rows dirtied while a compaction is materialising
// off-lock, so the new working overlay can be rebuilt relative to the
// compacted base without losing the writes that landed mid-compaction.
type pendingDelta struct {
	adj, kw             map[graph.VertexID]struct{}
	ops, edgeOps, kwOps int
}

func newPendingDelta() *pendingDelta {
	return &pendingDelta{adj: map[graph.VertexID]struct{}{}, kw: map[graph.VertexID]struct{}{}}
}

func (G *Graph) noteEdgeLocked(u, v graph.VertexID) {
	if G.base == nil {
		return
	}
	G.setAdjRowLocked(u)
	G.setAdjRowLocked(v)
	G.deltaOps.Add(1)
	G.deltaEdgeOps.Add(1)
	G.syncDeltaBytesLocked()
	if G.pend != nil {
		G.pend.adj[u] = struct{}{}
		G.pend.adj[v] = struct{}{}
		G.pend.ops++
		G.pend.edgeOps++
	}
}

func (G *Graph) noteKeywordLocked(v graph.VertexID, delta int) {
	if G.base == nil {
		return
	}
	G.setKwRowLocked(v)
	G.ovKwTotal += delta
	G.deltaOps.Add(1)
	G.deltaKwOps.Add(1)
	G.syncDeltaBytesLocked()
	if G.tree != nil && G.patchDirty != nil {
		G.patchDirty[v] = struct{}{}
	}
	if G.pend != nil {
		G.pend.kw[v] = struct{}{}
		G.pend.ops++
		G.pend.kwOps++
	}
}

// setAdjRowLocked (re)copies v's master adjacency row into the override
// table. Rows are replaced wholesale — published overlays share the old row
// slices, which therefore must never be spliced in place.
func (G *Graph) setAdjRowLocked(v graph.VertexID) {
	row := append([]graph.VertexID(nil), G.g.Neighbors(v)...)
	if i := G.ovAdjIdx[v]; i >= 0 {
		G.ovAdjLen += len(row) - len(G.ovAdjRows[i])
		G.ovAdjRows[i] = row
		return
	}
	G.ovAdjIdx[v] = int32(len(G.ovAdjRows))
	G.ovAdjRows = append(G.ovAdjRows, row)
	G.ovAdjLen += len(row)
	G.deltaAdjRows.Add(1)
}

func (G *Graph) setKwRowLocked(v graph.VertexID) {
	row := append([]graph.KeywordID(nil), G.g.Keywords(v)...)
	if i := G.ovKwIdx[v]; i >= 0 {
		G.ovKwLen += len(row) - len(G.ovKwRows[i])
		G.ovKwRows[i] = row
		return
	}
	G.ovKwIdx[v] = int32(len(G.ovKwRows))
	G.ovKwRows = append(G.ovKwRows, row)
	G.ovKwLen += len(row)
	G.deltaKwRows.Add(1)
}

// syncDeltaBytesLocked mirrors the overlay's override-row payload size into
// the lock-free telemetry counter (4 bytes per int32 entry).
func (G *Graph) syncDeltaBytesLocked() {
	G.deltaBytes.Store(4 * int64(G.ovAdjLen+G.ovKwLen))
}

// resetDeltaLocked (re)initialises overlay tracking relative to the freshly
// frozen base fz, with t2 (the tree clone just published, may be nil) as the
// reusable publication tree.
func (G *Graph) resetDeltaLocked(fz *graph.Frozen, t2 *core.Tree) {
	// Counts come from fz, not the master: at every reset point the base is
	// an exact freeze of the current state, and on a mapped boot the master
	// does not exist yet.
	n := fz.NumVertices()
	G.base = fz
	G.ovAdjIdx = fillNegOne(G.ovAdjIdx, n)
	G.ovKwIdx = fillNegOne(G.ovKwIdx, n)
	G.ovAdjRows, G.ovKwRows = nil, nil
	G.ovAdjLen, G.ovKwLen = 0, 0
	G.ovDict, G.ovDictSize = nil, 0
	total := 0
	for v := 0; v < n; v++ {
		total += len(fz.Keywords(graph.VertexID(v)))
	}
	G.ovKwTotal = total
	G.deltaOps.Store(0)
	G.deltaEdgeOps.Store(0)
	G.deltaKwOps.Store(0)
	G.deltaAdjRows.Store(0)
	G.deltaKwRows.Store(0)
	G.deltaBytes.Store(0)
	G.pubTree = t2
	if G.maint != nil {
		G.pubStructRev = G.maint.StructRev()
	}
	G.workingPatch = map[*core.Node]*core.NodePostings{}
	G.patchDirty = map[graph.VertexID]struct{}{}
}

// dropDeltaLocked turns overlay tracking off entirely; the next publication
// will be a full freeze (and will re-initialise tracking if the compaction
// threshold allows it). An in-flight compaction notices the dropped base at
// install time and discards its work.
func (G *Graph) dropDeltaLocked() {
	G.base = nil
	G.ovAdjIdx, G.ovKwIdx = nil, nil
	G.ovAdjRows, G.ovKwRows = nil, nil
	G.ovAdjLen, G.ovKwLen = 0, 0
	G.ovDict, G.ovDictSize = nil, 0
	G.ovKwTotal = 0
	G.deltaOps.Store(0)
	G.deltaEdgeOps.Store(0)
	G.deltaKwOps.Store(0)
	G.deltaAdjRows.Store(0)
	G.deltaKwRows.Store(0)
	G.deltaBytes.Store(0)
	G.pubTree = nil
	G.workingPatch = nil
	G.patchDirty = nil
	G.pend = nil
}

func fillNegOne(s []int32, n int) []int32 {
	if len(s) != n {
		s = make([]int32, n)
	}
	for i := range s {
		s[i] = -1
	}
	return s
}

// overlayLocked publishes the current working delta as an immutable Overlay:
// index arrays are copied, row storage and the base are shared, and the
// dictionary is the base's unless the master interned new words since the
// base was frozen (then a clone is cached per dictionary size, so a burst of
// publications between interns clones once).
func (G *Graph) overlayLocked() *graph.Overlay {
	var dict *graph.Dict
	if sz := G.g.Dict().Size(); sz != G.base.Dict().Size() {
		if G.ovDict == nil || G.ovDictSize != sz {
			G.ovDict = G.g.Dict().Clone()
			G.ovDictSize = sz
		}
		dict = G.ovDict
	}
	return graph.NewOverlay(G.base,
		append([]int32(nil), G.ovAdjIdx...), append([][]graph.VertexID(nil), G.ovAdjRows...),
		append([]int32(nil), G.ovKwIdx...), append([][]graph.KeywordID(nil), G.ovKwRows...),
		dict, G.g.NumEdges(), G.ovKwTotal)
}

// deltaTreeLocked produces the tree for a delta publication bound to ov.
//
// While the tree's structure is unchanged since the last full clone
// (Maintainer.StructRev holds still — keyword splices and intra-node edge
// inserts), the published tree is a shallow rebind of that clone plus a
// posting patch: for every vertex whose keywords changed, the owning node's
// already-spliced postings are copied from the master tree (three flat-array
// copies). That keeps keyword-churn publications at microseconds instead of
// the O(tree) deep clone. After a structural repair, one full clone is paid
// and becomes the new rebind source.
func (G *Graph) deltaTreeLocked(ov *graph.Overlay) *core.Tree {
	if G.tree == nil {
		return nil
	}
	rev := G.maint.StructRev()
	if G.pubTree == nil || G.pubStructRev != rev {
		workers := buildOptions().ResolvedWorkers(G.g)
		t2 := G.tree.CloneOpts(ov, core.BuildOptions{Workers: workers})
		G.pubTree = t2
		G.pubStructRev = rev
		G.workingPatch = map[*core.Node]*core.NodePostings{}
		G.patchDirty = map[graph.VertexID]struct{}{}
		return t2
	}
	if len(G.patchDirty) > 0 {
		for v := range G.patchDirty {
			G.workingPatch[G.pubTree.NodeOf[v]] = core.CopyNodePostings(G.tree.NodeOf[v])
		}
		G.patchDirty = map[graph.VertexID]struct{}{}
	}
	if len(G.workingPatch) == 0 {
		return G.pubTree.RebindPostings(ov, nil)
	}
	patch := make(map[*core.Node]*core.NodePostings, len(G.workingPatch))
	for nd, p := range G.workingPatch {
		patch[nd] = p
	}
	return G.pubTree.RebindPostings(ov, patch)
}

// --- compaction.

// thresholdOf resolves the raw SetCompactionThreshold value.
func thresholdOf(raw int64) int {
	if raw == 0 {
		return DefaultCompactionThreshold
	}
	return int(raw)
}

// SetCompactionThreshold configures when the background compactor folds the
// overlay into a new frozen base: after n effective mutations (0 restores
// DefaultCompactionThreshold). A negative n disables the overlay write path
// entirely — every effective mutation republishes a full frozen snapshot,
// the pre-overlay behaviour — which exists for benchmarking and as an
// escape hatch. The setting takes effect at the next publication.
func (G *Graph) SetCompactionThreshold(n int) {
	G.mu.Lock()
	defer G.mu.Unlock()
	G.compactThreshold.Store(int64(n))
	G.dropDeltaLocked()
}

// maybeCompactLocked schedules a background compaction once the overlay has
// absorbed a threshold's worth of effective mutations. Callers hold G.mu;
// the compaction itself runs off-lock on its own goroutine.
func (G *Graph) maybeCompactLocked() {
	raw := G.compactThreshold.Load()
	if G.base == nil || G.pend != nil || raw < 0 {
		return
	}
	if int(G.deltaOps.Load()) < thresholdOf(raw) {
		return
	}
	if !G.compactArmed.CompareAndSwap(false, true) {
		return
	}
	go func() {
		G.compactMu.Lock()
		defer G.compactMu.Unlock()
		G.compactArmed.Store(false)
		G.compactOnce()
	}()
}

// Compact synchronously folds the current overlay into a new frozen base,
// waiting for any in-flight background compaction first. It is a no-op when
// the overlay is empty or the graph is not tracking deltas. Mutators and
// readers keep running while the fold materialises; the writer lock is held
// only to capture the overlay and to install the result.
func (G *Graph) Compact() {
	G.compactMu.Lock()
	defer G.compactMu.Unlock()
	G.compactOnce()
}

// compactOnce is the compaction body; callers hold G.compactMu (never G.mu).
//
// Capture (under mu): an immutable overlay of the current graph, the current
// rebind tree plus a patch folding every pending keyword change, and the
// version/revision fingerprints. Fold (off-lock): Overlay.Materialize builds
// the new CSR base and the patched tree is deep-cloned against it, so the
// O(n+m) work never blocks writers. Install (under mu): the working overlay
// is rebuilt relative to the new base from the rows dirtied mid-compaction,
// and if nothing changed at all the compacted snapshot replaces the overlay
// snapshot directly.
func (G *Graph) compactOnce() {
	start := time.Now()
	G.mu.Lock()
	if G.base == nil || G.deltaOps.Load() == 0 {
		G.mu.Unlock()
		return
	}
	base0 := G.base
	ov := G.overlayLocked()
	var treeSrc *core.Tree
	var patch0 map[*core.Node]*core.NodePostings
	var rev0 uint64
	gen0 := G.treeGen
	if G.tree != nil && G.pubTree != nil && G.maint.StructRev() == G.pubStructRev {
		rev0 = G.pubStructRev
		treeSrc = G.pubTree
		patch0 = make(map[*core.Node]*core.NodePostings, len(G.workingPatch)+len(G.patchDirty))
		for nd, p := range G.workingPatch {
			patch0[nd] = p
		}
		// Fold in keyword changes that have not been published yet; patchDirty
		// is deliberately left as is — the next publication still needs it.
		for v := range G.patchDirty {
			patch0[G.pubTree.NodeOf[v]] = core.CopyNodePostings(G.tree.NodeOf[v])
		}
	}
	v0 := G.version.Load()
	workers := buildOptions().ResolvedWorkers(G.g)
	G.pend = newPendingDelta()
	G.compacting.Store(true)
	G.mu.Unlock()

	fz := ov.Materialize(workers)
	var folded *core.Tree
	if treeSrc != nil {
		folded = treeSrc.RebindPostings(fz, patch0).CloneOpts(fz, core.BuildOptions{Workers: workers})
	}

	G.mu.Lock()
	G.installCompactedLocked(base0, fz, folded, rev0, gen0, v0)
	G.compacting.Store(false)
	G.compactions.Add(1)
	G.lastCompactionNanos.Store(time.Since(start).Nanoseconds())
	G.mu.Unlock()
}

// installCompactedLocked swaps the compacted base in and rebuilds the working
// overlay from the rows dirtied while the fold ran. Callers hold G.mu.
func (G *Graph) installCompactedLocked(base0, fz *graph.Frozen, folded *core.Tree, rev0, gen0, v0 uint64) {
	pend := G.pend
	G.pend = nil
	if pend == nil || G.base != base0 {
		// EndServing or SetCompactionThreshold reset tracking mid-fold; the
		// captured state no longer describes anything current.
		return
	}
	n := G.g.NumVertices()
	G.base = fz
	G.ovAdjIdx = fillNegOne(G.ovAdjIdx, n)
	G.ovKwIdx = fillNegOne(G.ovKwIdx, n)
	G.ovAdjRows, G.ovKwRows = nil, nil
	G.ovAdjLen, G.ovKwLen = 0, 0
	G.ovDict, G.ovDictSize = nil, 0
	G.deltaAdjRows.Store(0)
	G.deltaKwRows.Store(0)
	for v := range pend.adj {
		G.setAdjRowLocked(v)
	}
	for v := range pend.kw {
		G.setKwRowLocked(v)
	}
	G.deltaOps.Store(int64(pend.ops))
	G.deltaEdgeOps.Store(int64(pend.edgeOps))
	G.deltaKwOps.Store(int64(pend.kwOps))
	G.syncDeltaBytesLocked()

	if folded != nil && G.treeGen == gen0 && G.maint.StructRev() == rev0 {
		// Structure still matches the folded clone: it becomes the new rebind
		// source. Keyword changes that landed mid-fold are re-dirtied so the
		// next publication recomputes their patches against the new clone.
		G.pubTree = folded
		G.pubStructRev = rev0
		G.workingPatch = map[*core.Node]*core.NodePostings{}
		G.patchDirty = map[graph.VertexID]struct{}{}
		for v := range pend.kw {
			G.patchDirty[v] = struct{}{}
		}
	} else if G.tree != nil {
		// The tree changed structurally mid-fold (or carried no reusable
		// clone): the next publication pays one full clone.
		G.pubTree = nil
		G.workingPatch = map[*core.Node]*core.NodePostings{}
		G.patchDirty = map[graph.VertexID]struct{}{}
	}

	// Republish over the new base so the served snapshot stops pinning the
	// old one. With no mutations since capture this publishes an empty delta.
	if G.snap.Load() != nil && G.version.Load() == v0 {
		G.publishLocked()
	}
}

// --- write-path telemetry.

// WriteStats reports the state of the LSM-style write path. Lock-free: safe
// to poll from metrics scrapers and health probes while writers publish.
type WriteStats struct {
	// DeltaOps counts the effective mutations folded into the current
	// overlay (since the last full publication or compaction).
	DeltaOps int
	// DeltaEdges / DeltaKeywords split DeltaOps by mutation kind.
	DeltaEdges    int
	DeltaKeywords int
	// DeltaAdjRows / DeltaKeywordRows count the per-vertex rows the overlay
	// overrides; DeltaBytes is their resident payload size in bytes.
	DeltaAdjRows     int
	DeltaKeywordRows int
	DeltaBytes       int
	// CompactionThreshold is the resolved trigger (negative when the overlay
	// write path is disabled and every mutation republishes in full).
	CompactionThreshold int
	// CompactionInProgress reports an in-flight background fold.
	CompactionInProgress bool
	// Compactions counts completed folds; LastCompaction is the wall-clock
	// duration of the most recent one.
	Compactions    uint64
	LastCompaction time.Duration
	// FullPublishes / DeltaPublishes count snapshot publications by kind.
	FullPublishes  uint64
	DeltaPublishes uint64
}

// WriteStats returns the current write-path telemetry.
func (G *Graph) WriteStats() WriteStats {
	raw := G.compactThreshold.Load()
	threshold := thresholdOf(raw)
	if raw < 0 {
		threshold = int(raw)
	}
	return WriteStats{
		DeltaOps:             int(G.deltaOps.Load()),
		DeltaEdges:           int(G.deltaEdgeOps.Load()),
		DeltaKeywords:        int(G.deltaKwOps.Load()),
		DeltaAdjRows:         int(G.deltaAdjRows.Load()),
		DeltaKeywordRows:     int(G.deltaKwRows.Load()),
		DeltaBytes:           int(G.deltaBytes.Load()),
		CompactionThreshold:  threshold,
		CompactionInProgress: G.compacting.Load(),
		Compactions:          G.compactions.Load(),
		LastCompaction:       time.Duration(G.lastCompactionNanos.Load()),
		FullPublishes:        G.fullPublishes.Load(),
		DeltaPublishes:       G.deltaPublishes.Load(),
	}
}
