package acq

import (
	"errors"
	"fmt"
	"maps"
	"sync/atomic"
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
		out[i].Changed = G.applyLocked(op)
		if out[i].Changed {
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

// writer is what a mutation is applied through: the maintainer when an index
// exists (it writes the master and repairs the tree), the master otherwise.
type writer interface {
	InsertEdge(u, v graph.VertexID) bool
	RemoveEdge(u, v graph.VertexID) bool
	AddKeyword(v graph.VertexID, word string) bool
	RemoveKeyword(v graph.VertexID, word string) bool
}

// applyLocked applies one validated mutation and records it, reporting
// whether it changed the graph; version bumps and publication are the
// caller's job.
func (G *Graph) applyLocked(op Mutation) bool {
	var w writer = G.g
	if G.maint != nil {
		w = G.maint
	}
	u, v := graph.VertexID(op.U), graph.VertexID(op.V)
	vertex := graph.VertexID(op.Vertex)
	var changed bool
	switch op.Op {
	case OpInsertEdge:
		changed = w.InsertEdge(u, v)
	case OpRemoveEdge:
		changed = w.RemoveEdge(u, v)
	case OpAddKeyword:
		changed = w.AddKeyword(vertex, op.Keyword)
	default: // OpRemoveKeyword; ApplyMutations rejects unknown ops earlier
		changed = w.RemoveKeyword(vertex, op.Keyword)
	}
	switch {
	case !changed:
	case op.Op == OpInsertEdge || op.Op == OpRemoveEdge:
		G.noteLocked(&G.deltaEdgeOps)
	default:
		G.noteKeywordLocked(vertex)
	}
	return changed
}

// --- delta bookkeeping. The master holds the rows; what remains here is the
// publication tree's posting patch and the telemetry.

// noteLocked counts one effective mutation of the kind kindOps counts. The
// delta counters (and with them the compaction trigger) run only while
// serving: a graph nobody reads from folds its overlay at the next
// publication instead.
func (G *Graph) noteLocked(kindOps *atomic.Int64) {
	if G.snap.Load() != nil {
		G.deltaOps.Add(1)
		kindOps.Add(1)
	}
	G.syncDeltaLocked()
}

func (G *Graph) noteKeywordLocked(v graph.VertexID) {
	G.noteLocked(&G.deltaKwOps)
	if G.tree != nil {
		G.patchDirty[v] = struct{}{}
	}
	if G.pendKw != nil {
		G.pendKw[v] = struct{}{}
	}
}

// syncDeltaLocked mirrors the master's override rows into the lock-free
// telemetry counters.
func (G *Graph) syncDeltaLocked() {
	adj, kw := G.g.DeltaRows()
	G.deltaAdjRows.Store(int64(adj))
	G.deltaKwRows.Store(int64(kw))
	G.deltaBytes.Store(int64(G.g.DeltaBytes()))
}

// resetPatchLocked starts an empty posting patch relative to pubTree.
func (G *Graph) resetPatchLocked() {
	G.workingPatch = map[*core.Node]*core.NodePostings{}
	G.patchDirty = map[graph.VertexID]struct{}{}
}

// compactNowLocked folds the master's overlay into a fresh base under the
// writer lock: Materialize plus Rebase, O(n+m). The publication tree is
// dropped, so the next publication pays one full clone that folds the
// posting patch in. An in-flight background compaction notices the new base
// at install time and discards its work. Callers hold G.mu.
func (G *Graph) compactNowLocked() {
	if !G.g.Empty() {
		G.g.Rebase(G.g.Publish().Materialize(buildOptions().ResolvedWorkers(G.g)))
		G.pubTree = nil
		G.resetPatchLocked()
	}
	G.deltaOps.Store(0)
	G.deltaEdgeOps.Store(0)
	G.deltaKwOps.Store(0)
	G.syncDeltaLocked()
}

// pubTreeLocked produces the tree for a publication bound to v.
//
// While the tree's structure is unchanged since the last full clone
// (Maintainer.StructRev holds still — keyword splices and intra-node edge
// inserts), the published tree is a shallow rebind of that clone plus a
// posting patch: for every vertex whose keywords changed, the owning node's
// already-spliced postings are copied from the master tree (three flat-array
// copies). That keeps keyword-churn publications at microseconds instead of
// the O(tree) deep clone. After a structural repair, one full clone is paid
// and becomes the new rebind source.
func (G *Graph) pubTreeLocked(v graph.View) *core.Tree {
	if G.tree == nil {
		return nil
	}
	rev := G.maint.StructRev()
	if G.pubTree == nil || G.pubStructRev != rev {
		workers := buildOptions().ResolvedWorkers(G.g)
		t2 := G.tree.CloneOpts(v, core.BuildOptions{Workers: workers})
		G.pubTree = t2
		G.pubStructRev = rev
		G.resetPatchLocked()
		return t2
	}
	if len(G.patchDirty) > 0 {
		for v := range G.patchDirty {
			G.workingPatch[G.pubTree.NodeOf[v]] = core.CopyNodePostings(G.tree.NodeOf[v])
		}
		G.patchDirty = map[graph.VertexID]struct{}{}
	}
	if len(G.workingPatch) == 0 {
		return G.pubTree.RebindPostings(v, nil)
	}
	return G.pubTree.RebindPostings(v, maps.Clone(G.workingPatch))
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
// — every publication first folds the overlay synchronously and publishes a
// full frozen snapshot, the pre-overlay behaviour — which exists for
// benchmarking and as an escape hatch. The setting takes effect at the next
// publication.
func (G *Graph) SetCompactionThreshold(n int) {
	G.mu.Lock()
	defer G.mu.Unlock()
	G.compactThreshold.Store(int64(n))
}

// maybeCompactLocked schedules a background compaction once the overlay has
// absorbed a threshold's worth of effective mutations. Callers hold G.mu;
// the compaction itself runs off-lock on its own goroutine.
func (G *Graph) maybeCompactLocked() {
	raw := G.compactThreshold.Load()
	if G.pendKw != nil || raw < 0 {
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
// the overlay is empty. Mutators and readers keep running while the fold
// materialises; the writer lock is held only to capture the overlay and to
// install the result.
func (G *Graph) Compact() {
	G.compactMu.Lock()
	defer G.compactMu.Unlock()
	G.compactOnce()
}

// compactOnce is the compaction body; callers hold G.compactMu (never G.mu).
//
// Capture (under mu): an immutable overlay of the master, the current
// rebind tree plus a patch folding every pending keyword change, and the
// version/revision fingerprints. Fold (off-lock): Overlay.Materialize builds
// the new CSR base and the patched tree is deep-cloned against it, so the
// O(n+m) work never blocks writers. Install (under mu): the master is rebased
// onto the new base, keeping the rows written mid-compaction as its overlay,
// and if nothing changed at all the compacted snapshot replaces the overlay
// snapshot directly.
func (G *Graph) compactOnce() {
	start := time.Now()
	G.mu.Lock()
	if G.g.Empty() {
		G.compactNowLocked() // nothing to fold; just settle the counters
		G.mu.Unlock()
		return
	}
	base0 := G.g.Base()
	ov := G.g.Publish()
	var treeSrc *core.Tree
	var patch0 map[*core.Node]*core.NodePostings
	var rev0 uint64
	gen0 := G.treeGen
	if G.tree != nil && G.pubTree != nil && G.maint.StructRev() == G.pubStructRev {
		rev0 = G.pubStructRev
		treeSrc = G.pubTree
		patch0 = maps.Clone(G.workingPatch)
		// Fold in keyword changes that have not been published yet; patchDirty
		// is deliberately left as is — the next publication still needs it.
		for v := range G.patchDirty {
			patch0[G.pubTree.NodeOf[v]] = core.CopyNodePostings(G.tree.NodeOf[v])
		}
	}
	v0 := G.version.Load()
	ops0 := [3]int64{G.deltaOps.Load(), G.deltaEdgeOps.Load(), G.deltaKwOps.Load()}
	workers := buildOptions().ResolvedWorkers(G.g)
	G.pendKw = map[graph.VertexID]struct{}{}
	G.compacting.Store(true)
	G.mu.Unlock()

	fz := ov.Materialize(workers)
	var folded *core.Tree
	if treeSrc != nil {
		folded = treeSrc.RebindPostings(fz, patch0).CloneOpts(fz, core.BuildOptions{Workers: workers})
	}

	G.mu.Lock()
	G.installCompactedLocked(base0, fz, folded, rev0, gen0, v0, ops0)
	G.compacting.Store(false)
	G.compactions.Add(1)
	G.lastCompactionNanos.Store(time.Since(start).Nanoseconds())
	G.mu.Unlock()
}

// installCompactedLocked rebases the master onto the compacted base; the
// rows written while the fold ran stay in its overlay. Callers hold G.mu.
func (G *Graph) installCompactedLocked(base0, fz *graph.Frozen, folded *core.Tree, rev0, gen0, v0 uint64, ops0 [3]int64) {
	pendKw := G.pendKw
	G.pendKw = nil
	if G.g.Base() != base0 {
		// A synchronous fold (EndServing, a first or a full publication)
		// rebased the master mid-fold; the captured state is stale.
		return
	}
	G.g.Rebase(fz)
	G.deltaOps.Add(-ops0[0])
	G.deltaEdgeOps.Add(-ops0[1])
	G.deltaKwOps.Add(-ops0[2])
	G.syncDeltaLocked()

	if folded != nil && G.treeGen == gen0 && G.maint.StructRev() == rev0 {
		// Structure still matches the folded clone: it becomes the new rebind
		// source. Keyword changes that landed mid-fold are re-dirtied so the
		// next publication recomputes their patches against the new clone.
		G.pubTree = folded
		G.pubStructRev = rev0
		G.resetPatchLocked()
		for v := range pendKw {
			G.patchDirty[v] = struct{}{}
		}
	} else if G.tree != nil {
		// The tree changed structurally mid-fold (or carried no reusable
		// clone): the next publication pays one full clone.
		G.pubTree = nil
		G.resetPatchLocked()
	}

	// Republish over the new base so the served snapshot stops pinning the
	// old one. With no mutations since capture this publishes the new base.
	if G.snap.Load() != nil && G.version.Load() == v0 {
		G.publishLocked()
	}
}

// --- write-path telemetry.

// WriteStats reports the state of the LSM-style write path. Lock-free: safe
// to poll from metrics scrapers and health probes while writers publish.
type WriteStats struct {
	// DeltaOps counts the effective mutations folded into the current
	// overlay while serving (since the last full publication or compaction).
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
