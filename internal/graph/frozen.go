package graph

import (
	"fmt"
	"math"

	"github.com/acq-search/acq/internal/para"
)

// Frozen is the immutable CSR (compressed sparse row) form of an attributed
// graph: adjacency lives in one flat edge array indexed by per-vertex
// offsets, and keyword sets use the same two-array layout. Compared with the
// mutable slice-of-slices Graph, a Frozen
//
//   - costs O(1) allocations for the whole adjacency/keyword payload instead
//     of two per vertex, so publishing a serving snapshot stops scaling the
//     garbage collector's mark work with |V|;
//   - scans neighbourhoods and keyword sets over sequential memory, which is
//     what the hot query loops (peeling, BFS, keyword merges) spend their
//     time doing.
//
// A Frozen is safe for unlimited concurrent readers: nothing it references is
// ever mutated after Freeze returns. It intentionally has no mutators —
// updates are applied to the mutable master and republished by freezing
// again.
type Frozen struct {
	adjOff []int32 // len NumVertices+1; adjacency of v is adj[adjOff[v]:adjOff[v+1]]
	adj    []VertexID
	kwOff  []int32 // len NumVertices+1; keywords of v are kw[kwOff[v]:kwOff[v+1]]
	kw     []KeywordID
	dict   *Dict
	labels []string
	byName map[string]VertexID
	m      int
}

// Freeze builds the CSR form of g, fanning the payload copy out over workers
// goroutines (≤ 0 means one per CPU, 1 runs inline). The result is identical
// for any worker count.
//
// The label table and the label→vertex index are shared with g (no Graph
// mutator touches them after construction); the keyword dictionary is copied,
// because mutators intern new words. Freeze is the snapshot-publication
// primitive: the frozen copy costs O(n+m) sequential copying but only a
// handful of allocations, where the old deep clone allocated two slices per
// vertex.
func (g *Graph) Freeze(workers int) *Frozen { return g.FreezeReuse(workers, nil) }

// FreezeReuse is Freeze with one extra fast path: when prev is a frozen copy
// of this graph whose dictionary has not grown since (the dictionary is
// append-only, so equal sizes imply equal contents), prev's dictionary copy
// is shared instead of cloned again. Republication under edge churn — the
// serving steady state, where no new keyword is ever interned — then
// allocates nothing proportional to the vocabulary either.
func (g *Graph) FreezeReuse(workers int, prev *Frozen) *Frozen {
	n := len(g.adj)
	dict := (*Dict)(nil)
	if prev != nil && prev.dict.Size() == g.dict.Size() {
		dict = prev.dict
	} else {
		dict = g.dict.Clone()
	}
	f := &Frozen{
		adjOff: make([]int32, n+1),
		kwOff:  make([]int32, n+1),
		dict:   dict,
		labels: g.labels,
		byName: g.byName,
		m:      g.m,
	}
	adjTotal, kwTotal := 0, 0
	for v := 0; v < n; v++ {
		adjTotal += len(g.adj[v])
		kwTotal += len(g.kw[v])
		f.adjOff[v+1] = int32(adjTotal)
		f.kwOff[v+1] = int32(kwTotal)
	}
	if adjTotal > math.MaxInt32 || kwTotal > math.MaxInt32 {
		// 2^31 adjacency entries is an 8 GiB edge array; the int32 offsets
		// that keep the index compact cannot address past it.
		panic("graph: Freeze: graph exceeds int32 CSR offsets")
	}
	f.adj = make([]VertexID, adjTotal)
	f.kw = make([]KeywordID, kwTotal)
	para.ForEachChunk(workers, n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			copy(f.adj[f.adjOff[v]:f.adjOff[v+1]], g.adj[v])
			copy(f.kw[f.kwOff[v]:f.kwOff[v+1]], g.kw[v])
		}
	})
	return f
}

// NumVertices returns |V|.
func (f *Frozen) NumVertices() int { return len(f.adjOff) - 1 }

// NumEdges returns |E| (each undirected edge counted once).
func (f *Frozen) NumEdges() int { return f.m }

// Degree returns the degree of v.
func (f *Frozen) Degree(v VertexID) int { return int(f.adjOff[v+1] - f.adjOff[v]) }

// Neighbors returns the sorted adjacency list of v: a subslice of the shared
// edge array, owned by the view.
func (f *Frozen) Neighbors(v VertexID) []VertexID { return f.adj[f.adjOff[v]:f.adjOff[v+1]] }

// Keywords returns the sorted keyword set W(v): a subslice of the shared
// keyword array, owned by the view.
func (f *Frozen) Keywords(v VertexID) []KeywordID { return f.kw[f.kwOff[v]:f.kwOff[v+1]] }

// Dict returns the keyword dictionary.
func (f *Frozen) Dict() *Dict { return f.dict }

// Label returns the human-readable name of v ("" if none was assigned).
func (f *Frozen) Label(v VertexID) string {
	if int(v) < len(f.labels) {
		return f.labels[v]
	}
	return ""
}

// VertexByLabel resolves a vertex by its label.
func (f *Frozen) VertexByLabel(name string) (VertexID, bool) {
	v, ok := f.byName[name]
	return v, ok
}

// KeywordStrings materialises W(v) as strings, in dictionary order.
func (f *Frozen) KeywordStrings(v VertexID) []string {
	kws := f.Keywords(v)
	out := make([]string, len(kws))
	for i, id := range kws {
		out[i] = f.dict.Word(id)
	}
	return out
}

// HasEdge reports whether {u, v} is an edge.
func (f *Frozen) HasEdge(u, v VertexID) bool {
	if u == v {
		return false
	}
	a, b := u, v
	if f.Degree(a) > f.Degree(b) {
		a, b = b, a
	}
	return containsVertex(f.Neighbors(a), b)
}

// HasKeyword reports whether w ∈ W(v).
func (f *Frozen) HasKeyword(v VertexID, w KeywordID) bool {
	return containsKeyword(f.Keywords(v), w)
}

// HasAllKeywords reports whether set ⊆ W(v). set must be sorted.
func (f *Frozen) HasAllKeywords(v VertexID, set []KeywordID) bool {
	return hasAllSorted(f.Keywords(v), set)
}

// CountSharedKeywords returns |W(v) ∩ set|. set must be sorted.
func (f *Frozen) CountSharedKeywords(v VertexID, set []KeywordID) int {
	return countSharedSorted(f.Keywords(v), set)
}

// AvgKeywords returns the average keyword-set size l̂ over all vertices.
func (f *Frozen) AvgKeywords() float64 {
	n := f.NumVertices()
	if n == 0 {
		return 0
	}
	return float64(len(f.kw)) / float64(n)
}

// AvgDegree returns the average vertex degree d̂ = 2m/n.
func (f *Frozen) AvgDegree() float64 {
	n := f.NumVertices()
	if n == 0 {
		return 0
	}
	return 2 * float64(f.m) / float64(n)
}

// SizeBytes returns the resident size of the four CSR arrays — the payload a
// published snapshot pins in memory for its lifetime. Labels, the label
// index and the dictionary are excluded (they are shared or proportional to
// the vocabulary, not to n+m).
func (f *Frozen) SizeBytes() int {
	return 4 * (len(f.adjOff) + len(f.kwOff) + len(f.adj) + len(f.kw))
}

// Flat exposes the raw CSR arrays for zero-copy serialization (internal/
// dataio writes them to the binary snapshot format directly). The returned
// slices are the frozen view's own storage: read-only.
func (f *Frozen) Flat() (adjOff []int32, adj []VertexID, kwOff []int32, kw []KeywordID) {
	return f.adjOff, f.adj, f.kwOff, f.kw
}

// Validate checks the CSR structural invariants (monotone offsets, sorted
// duplicate-free adjacency with symmetric edges and no self-loops, sorted
// in-range keyword lists, edge count consistent). Intended for tests and
// freshly deserialised data.
func (f *Frozen) Validate() error {
	n := f.NumVertices()
	if len(f.kwOff) != n+1 {
		return fmt.Errorf("graph: frozen offset arrays disagree: %d vs %d vertices", len(f.adjOff)-1, len(f.kwOff)-1)
	}
	if err := validateOffsets("adjacency", f.adjOff, len(f.adj)); err != nil {
		return err
	}
	if err := validateOffsets("keyword", f.kwOff, len(f.kw)); err != nil {
		return err
	}
	// Symmetry is checked as a merge rather than a per-edge binary search:
	// with every adjacency list sorted, the reverse entries for v's upper
	// neighbors arrive at each u in increasing v, so a single cursor per
	// vertex pairs every edge with its reverse in O(n+m) total.
	cur := make([]int32, n)
	for v := 0; v < n; v++ {
		id := VertexID(v)
		ns := f.Neighbors(id)
		// Entries below v were each consumed by their smaller endpoint's
		// pass; one still pending means its reverse edge never showed up.
		if c := int(cur[v]); c < len(ns) && ns[c] < id {
			return fmt.Errorf("graph: edge %d->%d has no reverse edge", v, ns[c])
		}
		for i, u := range ns {
			if u == id {
				return fmt.Errorf("graph: self-loop at vertex %d", v)
			}
			if int(u) < 0 || int(u) >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, u)
			}
			if i > 0 && ns[i-1] >= u {
				return fmt.Errorf("graph: adjacency of vertex %d not strictly sorted", v)
			}
			if u > id {
				nu := f.Neighbors(u)
				if c := int(cur[u]); c >= len(nu) || nu[c] != id {
					return fmt.Errorf("graph: edge %d->%d has no reverse edge", v, u)
				}
				cur[u]++
			}
		}
		ws := f.Keywords(id)
		for i, w := range ws {
			if int(w) < 0 || int(w) >= f.dict.Size() {
				return fmt.Errorf("graph: vertex %d has out-of-range keyword %d", v, w)
			}
			if i > 0 && ws[i-1] >= w {
				return fmt.Errorf("graph: keywords of vertex %d not strictly sorted", v)
			}
		}
	}
	if len(f.adj) != 2*f.m {
		return fmt.Errorf("graph: edge count %d does not match adjacency total %d", f.m, len(f.adj))
	}
	return nil
}

func validateOffsets(what string, off []int32, total int) error {
	if len(off) == 0 || off[0] != 0 {
		return fmt.Errorf("graph: %s offsets must start at 0", what)
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("graph: %s offsets not monotone at vertex %d", what, i-1)
		}
	}
	if int(off[len(off)-1]) != total {
		return fmt.Errorf("graph: %s offsets end at %d, payload has %d entries", what, off[len(off)-1], total)
	}
	return nil
}

// NewFrozenFromFlat assembles an immutable Frozen directly over flat CSR
// arrays — the zero-copy inverse of Flat, used when serving straight from a
// memory-mapped snapshot. The argument slices become the frozen view's own
// storage and MUST never be written again: for a mapping that means a private
// mapping nothing else mutates, for heap arrays it means ownership transfer.
// A fresh dictionary and the label→vertex index are built here (they are
// O(vocabulary) and O(n) — the n+m payload is what stays unmaterialised).
//
// validate runs the full representation Validate; callers loading an
// untrusted or possibly-corrupt file should pass true, callers re-wrapping
// arrays already validated in this process may skip it.
func NewFrozenFromFlat(labels, words []string, kwOff []int32, kw []KeywordID, adjOff []int32, adj []VertexID, validate bool) (*Frozen, error) {
	if len(adjOff) == 0 || len(adjOff) != len(kwOff) {
		return nil, fmt.Errorf("graph: NewFrozenFromFlat: offset arrays disagree (%d vs %d)", len(adjOff), len(kwOff))
	}
	n := len(adjOff) - 1
	if len(labels) > n {
		return nil, fmt.Errorf("graph: NewFrozenFromFlat: %d labels for %d vertices", len(labels), n)
	}
	if len(adj)%2 != 0 {
		return nil, fmt.Errorf("graph: NewFrozenFromFlat: odd adjacency total %d", len(adj))
	}
	dict := NewDict()
	for i, w := range words {
		if id := dict.Intern(w); int(id) != i {
			return nil, fmt.Errorf("graph: NewFrozenFromFlat: duplicate dictionary word %q", w)
		}
	}
	if len(labels) < n {
		labels = append(labels, make([]string, n-len(labels))...)
	}
	byName := make(map[string]VertexID, n)
	for v, label := range labels {
		if label == "" {
			continue
		}
		if _, dup := byName[label]; dup {
			return nil, fmt.Errorf("graph: NewFrozenFromFlat: duplicate vertex label %q", label)
		}
		byName[label] = VertexID(v)
	}
	f := &Frozen{
		adjOff: adjOff,
		adj:    adj,
		kwOff:  kwOff,
		kw:     kw,
		dict:   dict,
		labels: labels,
		byName: byName,
		m:      len(adj) / 2,
	}
	if validate {
		if err := f.Validate(); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// FromFlat assembles a mutable Graph from flat CSR arrays — the inverse of
// Freeze, used when loading a binary snapshot. It takes ownership of every
// argument slice. Labels and words may be shorter than implied (missing
// entries mean unlabelled / empty); duplicate non-empty labels and duplicate
// dictionary words are errors, as is any violation of the representation
// invariants (checked via Validate, so corrupt files fail loudly instead of
// corrupting queries later).
//
// The per-vertex adjacency and keyword slices alias the flat arrays with
// their capacity clipped to the row boundary, so the assembled graph still
// costs O(1) payload allocations; the first mutation of a row reallocates
// just that row.
func FromFlat(labels, words []string, kwOff []int32, kw []KeywordID, adjOff []int32, adj []VertexID) (*Graph, error) {
	if len(adjOff) == 0 || len(adjOff) != len(kwOff) {
		return nil, fmt.Errorf("graph: FromFlat: offset arrays disagree (%d vs %d)", len(adjOff), len(kwOff))
	}
	n := len(adjOff) - 1
	if len(labels) > n {
		return nil, fmt.Errorf("graph: FromFlat: %d labels for %d vertices", len(labels), n)
	}
	if err := validateOffsets("adjacency", adjOff, len(adj)); err != nil {
		return nil, err
	}
	if err := validateOffsets("keyword", kwOff, len(kw)); err != nil {
		return nil, err
	}
	dict := NewDict()
	for i, w := range words {
		if id := dict.Intern(w); int(id) != i {
			return nil, fmt.Errorf("graph: FromFlat: duplicate dictionary word %q", w)
		}
	}
	g := &Graph{
		adj:    windows(adj, adjOff),
		kw:     windows(kw, kwOff),
		dict:   dict,
		labels: append(labels, make([]string, n-len(labels))...),
		byName: make(map[string]VertexID, n),
		m:      len(adj) / 2,
	}
	for v, label := range g.labels {
		if label == "" {
			continue
		}
		if _, dup := g.byName[label]; dup {
			return nil, fmt.Errorf("graph: FromFlat: duplicate vertex label %q", label)
		}
		g.byName[label] = VertexID(v)
	}
	if len(adj)%2 != 0 {
		return nil, fmt.Errorf("graph: FromFlat: odd adjacency total %d", len(adj))
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
