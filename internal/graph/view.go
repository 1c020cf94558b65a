package graph

// View is the read-only surface every community-search algorithm consumes.
// Two graph forms implement it, plus two overlays over one of them:
//
//   - *Graph, the slice-of-slices builder output (also the reference form of
//     the differential tests and the benchmark's private copies);
//   - *Frozen, the compact CSR form that serving reads and durable snapshots
//     map, where adjacency and keyword scans are sequential over flat arrays;
//   - *Overlay, an immutable delta of row overrides over a Frozen base — the
//     publication form of the LSM-style write path;
//   - *Master, the writer's one mutable Overlay (see Mutable).
//
// Algorithms written against View run identically on every form — the
// differential tests in the public package assert byte-identical results for
// every query mode. All implementations guarantee the representation
// invariants documented on Graph (sorted, duplicate-free adjacency and
// keyword lists; NumEdges counting each undirected edge once), so callers may
// binary-search and merge the returned slices directly.
//
// All returned slices are owned by the view and must not be modified.
type View interface {
	// NumVertices returns |V|.
	NumVertices() int
	// NumEdges returns |E| (each undirected edge counted once).
	NumEdges() int
	// Degree returns the degree of v.
	Degree(v VertexID) int
	// Neighbors returns the sorted adjacency list of v.
	Neighbors(v VertexID) []VertexID
	// Keywords returns the sorted keyword set W(v).
	Keywords(v VertexID) []KeywordID
	// Dict returns the keyword dictionary shared by all vertices.
	Dict() *Dict
	// Label returns the human-readable name of v ("" if none).
	Label(v VertexID) string
	// VertexByLabel resolves a vertex by its label.
	VertexByLabel(name string) (VertexID, bool)
	// KeywordStrings materialises W(v) as strings, in dictionary order.
	KeywordStrings(v VertexID) []string
	// HasEdge reports whether {u, v} is an edge.
	HasEdge(u, v VertexID) bool
	// HasKeyword reports whether w ∈ W(v).
	HasKeyword(v VertexID, w KeywordID) bool
	// HasAllKeywords reports whether set ⊆ W(v). set must be sorted.
	HasAllKeywords(v VertexID, set []KeywordID) bool
	// CountSharedKeywords returns |W(v) ∩ set|. set must be sorted.
	CountSharedKeywords(v VertexID, set []KeywordID) int
	// AvgKeywords returns the average keyword-set size l̂.
	AvgKeywords() float64
	// AvgDegree returns the average vertex degree d̂ = 2m/n.
	AvgDegree() float64
}

var (
	_ View = (*Graph)(nil)
	_ View = (*Frozen)(nil)
	_ View = (*Overlay)(nil)
	_ View = (*Master)(nil)
)

// sorted keyword-set primitives shared by the View implementations.

// hasAllSorted reports whether set ⊆ kw; both must be sorted.
func hasAllSorted(kw, set []KeywordID) bool {
	i := 0
	for _, want := range set {
		for i < len(kw) && kw[i] < want {
			i++
		}
		if i == len(kw) || kw[i] != want {
			return false
		}
		i++
	}
	return true
}

// countSharedSorted returns |kw ∩ set|; both must be sorted.
func countSharedSorted(kw, set []KeywordID) int {
	n, i, j := 0, 0, 0
	for i < len(kw) && j < len(set) {
		switch {
		case kw[i] < set[j]:
			i++
		case kw[i] > set[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}
