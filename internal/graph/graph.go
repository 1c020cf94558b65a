// Package graph provides the attributed-graph substrate used by the ACQ
// library: an undirected graph whose vertices carry sets of interned
// keywords, plus the induced-subgraph primitives (connected components,
// keyword filtering) that every community-search algorithm builds on.
//
// The representation follows the paper's model (Fang et al., PVLDB 2016,
// Section 3): G(V, E) undirected, each vertex v has a keyword set W(v).
// Vertices are dense int32 IDs; keywords are interned to dense int32 IDs
// through a Dict so that keyword-set operations are sorted-slice merges
// rather than string comparisons.
package graph

import (
	"fmt"
	"slices"
	"sort"

	"github.com/acq-search/acq/internal/para"
)

// VertexID identifies a vertex. IDs are dense: 0..NumVertices-1.
type VertexID int32

// KeywordID identifies an interned keyword. IDs are dense: 0..Dict.Size()-1.
type KeywordID int32

// Graph is an undirected attributed graph. The zero value is an empty graph;
// use a Builder to construct one, or the mutation methods (InsertEdge,
// AddKeyword, ...) to evolve an existing graph.
//
// Invariants maintained by all constructors and mutators:
//   - adjacency lists are sorted, contain no duplicates and no self-loops;
//   - keyword lists are sorted and contain no duplicates;
//   - the edge count m counts each undirected edge once.
type Graph struct {
	adj    [][]VertexID
	kw     [][]KeywordID
	dict   *Dict
	labels []string
	byName map[string]VertexID
	m      int
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.adj) }

// NumEdges returns |E| (each undirected edge counted once).
func (g *Graph) NumEdges() int { return g.m }

// Degree returns the degree of v in g.
func (g *Graph) Degree(v VertexID) int { return len(g.adj[v]) }

// Neighbors returns the sorted adjacency list of v. The returned slice is
// owned by the graph and must not be modified.
func (g *Graph) Neighbors(v VertexID) []VertexID { return g.adj[v] }

// Keywords returns the sorted keyword set W(v). The returned slice is owned
// by the graph and must not be modified.
func (g *Graph) Keywords(v VertexID) []KeywordID { return g.kw[v] }

// Dict returns the keyword dictionary shared by all vertices.
func (g *Graph) Dict() *Dict { return g.dict }

// Label returns the human-readable name of v ("" if none was assigned).
func (g *Graph) Label(v VertexID) string {
	if int(v) < len(g.labels) {
		return g.labels[v]
	}
	return ""
}

// VertexByLabel resolves a vertex by its label.
func (g *Graph) VertexByLabel(name string) (VertexID, bool) {
	v, ok := g.byName[name]
	return v, ok
}

// KeywordStrings materialises W(v) as strings, in dictionary order.
func (g *Graph) KeywordStrings(v VertexID) []string {
	out := make([]string, len(g.kw[v]))
	for i, id := range g.kw[v] {
		out[i] = g.dict.Word(id)
	}
	return out
}

// HasEdge reports whether {u, v} is an edge of g.
func (g *Graph) HasEdge(u, v VertexID) bool {
	if u == v {
		return false
	}
	// Search the shorter list.
	a, b := u, v
	if len(g.adj[a]) > len(g.adj[b]) {
		a, b = b, a
	}
	return containsVertex(g.adj[a], b)
}

// HasKeyword reports whether w ∈ W(v).
func (g *Graph) HasKeyword(v VertexID, w KeywordID) bool {
	return containsKeyword(g.kw[v], w)
}

// HasAllKeywords reports whether set ⊆ W(v). set must be sorted.
func (g *Graph) HasAllKeywords(v VertexID, set []KeywordID) bool {
	return hasAllSorted(g.kw[v], set)
}

// CountSharedKeywords returns |W(v) ∩ set|. set must be sorted.
func (g *Graph) CountSharedKeywords(v VertexID, set []KeywordID) int {
	return countSharedSorted(g.kw[v], set)
}

// AvgKeywords returns the average keyword-set size l̂ over all vertices.
func (g *Graph) AvgKeywords() float64 {
	if len(g.kw) == 0 {
		return 0
	}
	total := 0
	for _, w := range g.kw {
		total += len(w)
	}
	return float64(total) / float64(len(g.kw))
}

// AvgDegree returns the average vertex degree d̂ = 2m/n.
func (g *Graph) AvgDegree() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(len(g.adj))
}

// InsertEdge adds the undirected edge {u, v}. It reports whether the edge was
// newly inserted (false if it already existed or u == v).
func (g *Graph) InsertEdge(u, v VertexID) bool {
	if u == v || containsVertex(g.adj[u], v) {
		return false
	}
	g.adj[u] = insertSortedVertex(g.adj[u], v)
	g.adj[v] = insertSortedVertex(g.adj[v], u)
	g.m++
	return true
}

// RemoveEdge deletes the undirected edge {u, v}, reporting whether it existed.
func (g *Graph) RemoveEdge(u, v VertexID) bool {
	if u == v || !containsVertex(g.adj[u], v) {
		return false
	}
	g.adj[u] = removeSortedVertex(g.adj[u], v)
	g.adj[v] = removeSortedVertex(g.adj[v], u)
	g.m--
	return true
}

// AddKeyword attaches keyword word to v, interning it if necessary. It
// reports whether W(v) changed.
func (g *Graph) AddKeyword(v VertexID, word string) bool {
	id := g.dict.Intern(word)
	if containsKeyword(g.kw[v], id) {
		return false
	}
	g.kw[v] = insertSortedKeyword(g.kw[v], id)
	return true
}

// RemoveKeyword detaches keyword word from v, reporting whether it was there.
func (g *Graph) RemoveKeyword(v VertexID, word string) bool {
	id, ok := g.dict.Lookup(word)
	if !ok || !containsKeyword(g.kw[v], id) {
		return false
	}
	g.kw[v] = removeSortedKeyword(g.kw[v], id)
	return true
}

// Clone returns a deep copy of g: adjacency, keyword sets, labels, the
// label index and the keyword dictionary are all duplicated, so mutating
// either graph never affects the other. Nothing is shared and nothing is
// copy-on-write; for a cheap immutable read-only copy use Freeze instead.
func (g *Graph) Clone() *Graph { return g.CloneWorkers(1) }

// CloneWorkers is Clone with the per-vertex adjacency and keyword copying
// fanned out over workers goroutines (≤ 0 means one per CPU, 1 runs inline).
// The copy is identical for any worker count; the snapshot-publication path
// uses it so copy-on-write republication scales with the cores available.
func (g *Graph) CloneWorkers(workers int) *Graph {
	c := &Graph{
		adj:    make([][]VertexID, len(g.adj)),
		kw:     make([][]KeywordID, len(g.kw)),
		dict:   g.dict.Clone(),
		labels: append([]string(nil), g.labels...),
		byName: make(map[string]VertexID, len(g.byName)),
		m:      g.m,
	}
	para.ForEachChunk(workers, len(g.adj), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c.adj[i] = append([]VertexID(nil), g.adj[i]...)
		}
	})
	para.ForEachChunk(workers, len(g.kw), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c.kw[i] = append([]KeywordID(nil), g.kw[i]...)
		}
	})
	for k, v := range g.byName {
		c.byName[k] = v
	}
	return c
}

// StripKeywords returns a copy of g with every keyword set emptied. It is
// used for the non-attributed experiments (paper Figure 16).
func (g *Graph) StripKeywords() *Graph {
	c := g.Clone()
	for i := range c.kw {
		c.kw[i] = nil
	}
	c.dict = NewDict()
	return c
}

// Validate checks the structural invariants of the graph representation and
// returns a descriptive error on the first violation. It is intended for
// tests and for data loaded from external files.
func (g *Graph) Validate() error {
	edges := 0
	for v, ns := range g.adj {
		for i, u := range ns {
			if u == VertexID(v) {
				return fmt.Errorf("graph: self-loop at vertex %d", v)
			}
			if int(u) < 0 || int(u) >= len(g.adj) {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, u)
			}
			if i > 0 && ns[i-1] >= u {
				return fmt.Errorf("graph: adjacency of vertex %d not strictly sorted", v)
			}
			if !containsVertex(g.adj[u], VertexID(v)) {
				return fmt.Errorf("graph: edge %d->%d has no reverse edge", v, u)
			}
		}
		edges += len(ns)
	}
	if edges != 2*g.m {
		return fmt.Errorf("graph: edge count %d does not match adjacency total %d", g.m, edges)
	}
	for v, ws := range g.kw {
		for i, w := range ws {
			if int(w) < 0 || int(w) >= g.dict.Size() {
				return fmt.Errorf("graph: vertex %d has out-of-range keyword %d", v, w)
			}
			if i > 0 && ws[i-1] >= w {
				return fmt.Errorf("graph: keywords of vertex %d not strictly sorted", v)
			}
		}
	}
	return nil
}

// sorted-slice helpers

func containsVertex(s []VertexID, v VertexID) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	return i < len(s) && s[i] == v
}

func containsKeyword(s []KeywordID, w KeywordID) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= w })
	return i < len(s) && s[i] == w
}

func insertSortedVertex(s []VertexID, v VertexID) []VertexID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeSortedVertex(s []VertexID, v VertexID) []VertexID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	copy(s[i:], s[i+1:])
	return s[:len(s)-1]
}

func insertSortedKeyword(s []KeywordID, w KeywordID) []KeywordID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= w })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = w
	return s
}

func removeSortedKeyword(s []KeywordID, w KeywordID) []KeywordID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= w })
	copy(s[i:], s[i+1:])
	return s[:len(s)-1]
}

// SortKeywordSet sorts and deduplicates a keyword set in place, returning the
// (possibly shortened) slice.
func SortKeywordSet(s []KeywordID) []KeywordID {
	slices.Sort(s)
	return slices.Compact(s)
}

// IntersectVertices returns the intersection of two sorted vertex slices.
func IntersectVertices(a, b []VertexID) []VertexID {
	if len(a) > len(b) {
		a, b = b, a
	}
	out := make([]VertexID, 0, len(a))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
