package graph

import (
	"math"

	"github.com/acq-search/acq/internal/para"
)

// Overlay is a small delta of row overrides merged over an immutable Frozen
// base. It is the publication form of the LSM-style write path — effective
// mutations override single per-vertex rows instead of re-freezing the whole
// graph, so publishing a serving snapshot after a write costs O(delta + n/8)
// (two int32 index arrays plus the changed rows) rather than O(n+m).
//
// The representation is a row-override table: adjIdx[v] ≥ 0 means vertex v's
// adjacency is adjRows[adjIdx[v]] (a private sorted row written when v was
// last dirtied); -1 means the row is unchanged and reads fall through to the
// base CSR. Keyword rows work the same way. Lookups therefore cost one extra
// array probe over a Frozen read — no hashing, no branching on map state —
// which keeps the hot peeling/BFS loops within noise of the frozen path.
//
// An Overlay is immutable once constructed: the write path's Master (the one
// mutable overlay, which embeds this type) publishes a fresh one per
// publication, sharing the base, the row storage and the dictionary, so any
// number of concurrent readers may hold one forever. Compaction folds an
// overlay into a new Frozen base via Materialize.
type Overlay struct {
	base    *Frozen
	adjIdx  []int32 // len NumVertices; -1 = read base, else index into adjRows
	kwIdx   []int32
	adjRows [][]VertexID
	kwRows  [][]KeywordID
	dict    *Dict
	m       int
	kwTotal int // Σ|W(v)| over all vertices, for O(1) AvgKeywords
}

// NewOverlay assembles an overlay view of base with the given row overrides.
// The index slices must have length base.NumVertices(), with -1 marking
// unchanged rows and non-negative entries indexing the row slices. A nil dict
// shares the base's dictionary (the steady state: no new keyword interned
// since the base was frozen). The overlay takes ownership of every argument;
// callers must not mutate them afterwards.
func NewOverlay(base *Frozen, adjIdx []int32, adjRows [][]VertexID, kwIdx []int32, kwRows [][]KeywordID, dict *Dict, m, kwTotal int) *Overlay {
	n := base.NumVertices()
	if len(adjIdx) != n || len(kwIdx) != n {
		panic("graph: NewOverlay: index arrays must cover every vertex")
	}
	if dict == nil {
		dict = base.dict
	}
	return &Overlay{
		base:    base,
		adjIdx:  adjIdx,
		kwIdx:   kwIdx,
		adjRows: adjRows,
		kwRows:  kwRows,
		dict:    dict,
		m:       m,
		kwTotal: kwTotal,
	}
}

// Base returns the frozen base the overlay's deltas apply to.
func (o *Overlay) Base() *Frozen { return o.base }

// NumVertices returns |V| (vertex count is fixed after construction, so it is
// always the base's).
func (o *Overlay) NumVertices() int { return o.base.NumVertices() }

// NumEdges returns |E| (each undirected edge counted once).
func (o *Overlay) NumEdges() int { return o.m }

// Degree returns the degree of v.
func (o *Overlay) Degree(v VertexID) int {
	if i := o.adjIdx[v]; i >= 0 {
		return len(o.adjRows[i])
	}
	return o.base.Degree(v)
}

// Neighbors returns the sorted adjacency list of v, owned by the view.
func (o *Overlay) Neighbors(v VertexID) []VertexID {
	if i := o.adjIdx[v]; i >= 0 {
		return o.adjRows[i]
	}
	return o.base.Neighbors(v)
}

// Keywords returns the sorted keyword set W(v), owned by the view.
func (o *Overlay) Keywords(v VertexID) []KeywordID {
	if i := o.kwIdx[v]; i >= 0 {
		return o.kwRows[i]
	}
	return o.base.Keywords(v)
}

// Dict returns the keyword dictionary.
func (o *Overlay) Dict() *Dict { return o.dict }

// Label returns the human-readable name of v ("" if none was assigned).
func (o *Overlay) Label(v VertexID) string { return o.base.Label(v) }

// VertexByLabel resolves a vertex by its label.
func (o *Overlay) VertexByLabel(name string) (VertexID, bool) { return o.base.VertexByLabel(name) }

// KeywordStrings materialises W(v) as strings, in dictionary order.
func (o *Overlay) KeywordStrings(v VertexID) []string {
	kws := o.Keywords(v)
	out := make([]string, len(kws))
	for i, id := range kws {
		out[i] = o.dict.Word(id)
	}
	return out
}

// HasEdge reports whether {u, v} is an edge.
func (o *Overlay) HasEdge(u, v VertexID) bool {
	if u == v {
		return false
	}
	a, b := u, v
	if o.Degree(a) > o.Degree(b) {
		a, b = b, a
	}
	return containsVertex(o.Neighbors(a), b)
}

// HasKeyword reports whether w ∈ W(v).
func (o *Overlay) HasKeyword(v VertexID, w KeywordID) bool {
	return containsKeyword(o.Keywords(v), w)
}

// HasAllKeywords reports whether set ⊆ W(v). set must be sorted.
func (o *Overlay) HasAllKeywords(v VertexID, set []KeywordID) bool {
	return hasAllSorted(o.Keywords(v), set)
}

// CountSharedKeywords returns |W(v) ∩ set|. set must be sorted.
func (o *Overlay) CountSharedKeywords(v VertexID, set []KeywordID) int {
	return countSharedSorted(o.Keywords(v), set)
}

// AvgKeywords returns the average keyword-set size l̂ over all vertices.
func (o *Overlay) AvgKeywords() float64 {
	n := o.NumVertices()
	if n == 0 {
		return 0
	}
	return float64(o.kwTotal) / float64(n)
}

// AvgDegree returns the average vertex degree d̂ = 2m/n.
func (o *Overlay) AvgDegree() float64 {
	n := o.NumVertices()
	if n == 0 {
		return 0
	}
	return 2 * float64(o.m) / float64(n)
}

// DeltaRows reports how many adjacency and keyword rows the overlay
// overrides — the write-pressure figure surfaced by serving health probes.
func (o *Overlay) DeltaRows() (adjRows, kwRows int) {
	return len(o.adjRows), len(o.kwRows)
}

// Materialize folds the overlay into a fresh Frozen base: the CSR arrays are
// rebuilt with every override applied, fanning the row copies out over
// workers goroutines (≤ 0 means one per CPU, 1 runs inline). The result
// shares the overlay's dictionary and the base's label tables — all immutable
// — so compaction allocates only the four flat payload arrays. Materialize
// reads nothing mutable and is safe to run concurrently with readers of the
// overlay, which is what lets compaction run off the serving path.
func (o *Overlay) Materialize(workers int) *Frozen {
	n := o.NumVertices()
	f := &Frozen{
		adjOff: make([]int32, n+1),
		kwOff:  make([]int32, n+1),
		dict:   o.dict,
		labels: o.base.labels,
		byName: o.base.byName,
		m:      o.m,
	}
	adjTotal, kwTotal := 0, 0
	for v := 0; v < n; v++ {
		adjTotal += o.Degree(VertexID(v))
		kwTotal += len(o.Keywords(VertexID(v)))
		f.adjOff[v+1] = int32(adjTotal)
		f.kwOff[v+1] = int32(kwTotal)
	}
	if adjTotal > math.MaxInt32 || kwTotal > math.MaxInt32 {
		panic("graph: Materialize: graph exceeds int32 CSR offsets")
	}
	f.adj = make([]VertexID, adjTotal)
	f.kw = make([]KeywordID, kwTotal)
	para.ForEachChunk(workers, n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			copy(f.adj[f.adjOff[v]:f.adjOff[v+1]], o.Neighbors(VertexID(v)))
			copy(f.kw[f.kwOff[v]:f.kwOff[v+1]], o.Keywords(VertexID(v)))
		}
	})
	return f
}
