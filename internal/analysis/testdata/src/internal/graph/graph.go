// Package graph is the fixture stand-in for the repository's
// internal/graph: the View interface, the identifier types, and the
// Graph/Overlay/Master forms and the Mutable interface the viewpurity and
// cancelcheck analyzers key on (by the "internal/graph" import-path suffix
// and the type names).
package graph

// VertexID is a dense vertex identifier.
type VertexID int32

// KeywordID is a dense keyword identifier.
type KeywordID int32

// View is the read-only graph surface algorithms run against.
type View interface {
	NumVertices() int
	NumEdges() int
	Degree(v VertexID) int
	Neighbors(v VertexID) []VertexID
	Keywords(v VertexID) []KeywordID
}

// Graph is the mutable master form.
type Graph struct {
	adj map[VertexID][]VertexID
}

func (g *Graph) NumVertices() int                { return len(g.adj) }
func (g *Graph) NumEdges() int                   { return 0 }
func (g *Graph) Degree(v VertexID) int           { return len(g.adj[v]) }
func (g *Graph) Neighbors(v VertexID) []VertexID { return g.adj[v] }
func (g *Graph) Keywords(v VertexID) []KeywordID { return nil }

// InsertEdge adds the undirected edge (u, v), reporting whether it was new.
func (g *Graph) InsertEdge(u, v VertexID) bool { return true }

// RemoveEdge deletes the undirected edge (u, v), reporting whether it existed.
func (g *Graph) RemoveEdge(u, v VertexID) bool { return true }

// AddKeyword attaches a keyword to v, reporting whether anything changed.
func (g *Graph) AddKeyword(v VertexID, word string) bool { return true }

// RemoveKeyword detaches a keyword from v, reporting whether anything changed.
func (g *Graph) RemoveKeyword(v VertexID, word string) bool { return true }

// Overlay is the delta-over-frozen mutable form.
type Overlay struct {
	base View
	N    int
}

func (o *Overlay) NumVertices() int                { return o.base.NumVertices() }
func (o *Overlay) NumEdges() int                   { return o.base.NumEdges() }
func (o *Overlay) Degree(v VertexID) int           { return o.base.Degree(v) }
func (o *Overlay) Neighbors(v VertexID) []VertexID { return o.base.Neighbors(v) }
func (o *Overlay) Keywords(v VertexID) []KeywordID { return o.base.Keywords(v) }

// Mutable is a View that can be written.
type Mutable interface {
	View
	InsertEdge(u, v VertexID) bool
	RemoveEdge(u, v VertexID) bool
	AddKeyword(v VertexID, word string) bool
	RemoveKeyword(v VertexID, word string) bool
}

// Master is the writer's mutable overlay over a frozen base.
type Master struct {
	Overlay
}

// InsertEdge adds the undirected edge (u, v), reporting whether it was new.
func (m *Master) InsertEdge(u, v VertexID) bool { return true }

// RemoveEdge deletes the undirected edge (u, v), reporting whether it existed.
func (m *Master) RemoveEdge(u, v VertexID) bool { return true }

// AddKeyword attaches a keyword to v, reporting whether anything changed.
func (m *Master) AddKeyword(v VertexID, word string) bool { return true }

// RemoveKeyword detaches a keyword from v, reporting whether anything changed.
func (m *Master) RemoveKeyword(v VertexID, word string) bool { return true }
