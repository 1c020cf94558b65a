package graph

import (
	"fmt"
	"math"
	"slices"
)

// Builder accumulates vertices and edges and produces a validated Graph.
// It tolerates duplicate edges, self-loops and duplicate keywords in the
// input (they are dropped), which makes it suitable for loading messy
// real-world edge lists.
//
// Everything is stored flat, in the CSR shape Build emits: keyword rows are
// windows of one kw array cut at kwOff, and edges are endpoint pairs in one
// array. Build then fills a single adjacency backing array, so a graph of any
// size costs a handful of allocations beyond its labels and dictionary words.
type Builder struct {
	dict   *Dict
	kwOff  []int32 // len NumVertices+1; W(v) is kw[kwOff[v]:kwOff[v+1]]
	kw     []KeywordID
	labels []string
	byName map[string]VertexID
	dup    string     // first label added twice; Build reports it
	edges  []VertexID // endpoint pairs: edge i is {edges[2i], edges[2i+1]}
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		dict:   NewDict(),
		kwOff:  []int32{0},
		byName: make(map[string]VertexID),
	}
}

// AddVertex appends a vertex with the given label and keywords and returns
// its ID. An empty label is allowed (the vertex is then only addressable by
// ID). Duplicate labels return an error at Build time.
func (b *Builder) AddVertex(label string, keywords ...string) VertexID {
	b.kw = grow(b.kw, len(keywords))
	for _, w := range keywords {
		b.kw = append(b.kw, b.dict.Intern(w))
	}
	return b.addVertex(label)
}

// AddVertexBytes is AddVertex for a parser holding its tokens in a reused
// line buffer: keywords are interned from bytes, so only the label and words
// the dictionary has not seen yet are copied into strings.
func (b *Builder) AddVertexBytes(label []byte, keywords [][]byte) VertexID {
	b.kw = grow(b.kw, len(keywords))
	for _, w := range keywords {
		b.kw = append(b.kw, b.dict.InternBytes(w))
	}
	return b.addVertex(string(label))
}

// addVertex closes the keyword row appended since the last vertex — sorting
// and deduplicating it in place — and registers label.
func (b *Builder) addVertex(label string) VertexID {
	id := VertexID(len(b.labels))
	lo := int(b.kwOff[len(b.kwOff)-1])
	row := SortKeywordSet(b.kw[lo:])
	b.kw = b.kw[:lo+len(row)]
	b.kwOff = append(grow(b.kwOff, 1), int32(len(b.kw)))
	b.labels = append(grow(b.labels, 1), label)
	if label != "" {
		if _, dup := b.byName[label]; !dup {
			b.byName[label] = id
		} else if b.dup == "" {
			b.dup = label
		}
	}
	return id
}

// Lookup returns the vertex first added with label. The map probe converts
// the bytes without allocating.
func (b *Builder) Lookup(label []byte) (VertexID, bool) {
	id, ok := b.byName[string(label)]
	return id, ok
}

// NumVertices returns the number of vertices added so far.
func (b *Builder) NumVertices() int { return len(b.labels) }

// AddEdge records the undirected edge {u, v}. Self-loops and duplicates are
// silently dropped at Build time; out-of-range endpoints fail Build.
func (b *Builder) AddEdge(u, v VertexID) {
	b.edges = append(grow(b.edges, 2), u, v)
}

// AddEdgeByLabel records an edge between two labelled vertices, creating any
// endpoint that does not exist yet (with no keywords).
func (b *Builder) AddEdgeByLabel(u, v string) {
	b.AddEdge(b.ensure(u), b.ensure(v))
}

func (b *Builder) ensure(label string) VertexID {
	if id, ok := b.byName[label]; ok {
		return id
	}
	return b.AddVertex(label)
}

// Build assembles the Graph. It returns an error on out-of-range edge
// endpoints or duplicate vertex labels.
//
// The adjacency is one backing array: Build counts degrees, scatters every
// non-loop edge into its two rows, sorts and deduplicates each row in place,
// and packs the rows left so that the offsets are tight. The Graph's rows are
// capacity-clipped windows of that array and of the keyword array, exactly as
// FromFlat cuts them.
func (b *Builder) Build() (*Graph, error) {
	n := len(b.labels)
	if b.dup != "" {
		return nil, fmt.Errorf("graph: duplicate vertex label %q", b.dup)
	}
	if len(b.edges) > math.MaxInt32 || len(b.kw) > math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d edge endpoints or %d keywords overflow int32 offsets", len(b.edges), len(b.kw))
	}
	off := make([]int32, n+1)
	for i := 0; i < len(b.edges); i += 2 {
		u, v := b.edges[i], b.edges[i+1]
		if int(u) < 0 || int(u) >= n || int(v) < 0 || int(v) >= n {
			return nil, fmt.Errorf("graph: edge (%d, %d) out of range [0, %d)", u, v, n)
		}
		if u != v {
			off[u+1]++
			off[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	adj := make([]VertexID, off[n])
	fill := slices.Clone(off[:n])
	for i := 0; i < len(b.edges); i += 2 {
		u, v := b.edges[i], b.edges[i+1]
		if u == v {
			continue
		}
		adj[fill[u]] = v
		fill[u]++
		adj[fill[v]] = u
		fill[v]++
	}
	// Sort and deduplicate each row, then pack it down to the running end
	// w ≤ off[v]; off[v] is rewritten only after row v has been read.
	w := int32(0)
	for v := 0; v < n; v++ {
		row := adj[off[v]:off[v+1]]
		slices.Sort(row)
		row = slices.Compact(row)
		off[v] = w
		w += int32(copy(adj[w:], row))
	}
	off[n] = w
	kw := b.kw
	if cap(kw)-len(kw) > len(kw)/4 {
		kw = slices.Clone(kw) // drop the doubling slack the graph would pin
	}
	return &Graph{
		adj:    windows(adj[:w], off),
		kw:     windows(kw, b.kwOff),
		dict:   b.dict,
		labels: b.labels,
		byName: b.byName,
		m:      int(w) / 2,
	}, nil
}

// MustBuild is Build for tests and generated data where errors are bugs.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// windows cuts flat into one row per vertex at the offsets off. Three-index
// slicing caps each row at its boundary, so a later in-place append
// (InsertEdge, AddKeyword) can never overwrite the next vertex's row: it
// reallocates instead.
func windows[T any](flat []T, off []int32) [][]T {
	rows := make([][]T, len(off)-1)
	for v := range rows {
		rows[v] = flat[off[v]:off[v+1]:off[v+1]]
	}
	return rows
}

// grow makes room for k more elements, doubling a full slice (from 256
// elements) rather than taking append's 1.25× steps, so a parse of millions
// of tokens reallocates each flat array O(log n) times.
func grow[T any](s []T, k int) []T {
	if len(s)+k <= cap(s) {
		return s
	}
	return slices.Grow(s, max(k, len(s), 256))
}
