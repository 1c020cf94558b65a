// Package dataio reads and writes attributed graphs and CL-tree snapshots.
//
// Two formats are supported:
//
//   - A line-oriented text format for interchange:
//     v <label> [keyword ...]     one line per vertex, in ID order
//     e <labelA> <labelB>         one line per undirected edge
//     Blank lines and lines starting with '#' are ignored.
//
//   - The mapped snapshot container ("ACQM", mapped.go) holding the graph
//     and, optionally, a flattened CL-tree, so a service can load a prebuilt
//     index without re-decomposing the graph. It is memory-mapped by
//     OpenMapped and read from a stream by ReadMapped.
package dataio

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"github.com/acq-search/acq/internal/core"
	"github.com/acq-search/acq/internal/graph"
)

// WriteText writes g in the text format. Vertices without labels are written
// as "_<id>".
func WriteText(w io.Writer, g graph.View) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# attributed graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		id := graph.VertexID(v)
		label := g.Label(id)
		if label == "" {
			label = fmt.Sprintf("_%d", v)
		}
		if strings.ContainsAny(label, " \t\n") {
			return fmt.Errorf("dataio: label %q contains whitespace", label)
		}
		fmt.Fprintf(bw, "v %s", label)
		for _, kw := range g.KeywordStrings(id) {
			if strings.ContainsAny(kw, " \t\n") {
				return fmt.Errorf("dataio: keyword %q contains whitespace", kw)
			}
			fmt.Fprintf(bw, " %s", kw)
		}
		fmt.Fprintln(bw)
	}
	for v := 0; v < g.NumVertices(); v++ {
		id := graph.VertexID(v)
		for _, u := range g.Neighbors(id) {
			if u > id {
				la, lb := g.Label(id), g.Label(u)
				if la == "" {
					la = fmt.Sprintf("_%d", id)
				}
				if lb == "" {
					lb = fmt.Sprintf("_%d", u)
				}
				fmt.Fprintf(bw, "e %s %s\n", la, lb)
			}
		}
	}
	return bw.Flush()
}

// ReadText parses the text format. Unknown directives, dangling edge
// endpoints and duplicate labels are reported as errors with line numbers.
func ReadText(r io.Reader) (*graph.Graph, error) {
	b := graph.NewBuilder()
	byLabel := map[string]graph.VertexID{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "v":
			if len(fields) < 2 {
				return nil, fmt.Errorf("dataio: line %d: vertex needs a label", lineNo)
			}
			label := fields[1]
			if _, dup := byLabel[label]; dup {
				return nil, fmt.Errorf("dataio: line %d: duplicate vertex %q", lineNo, label)
			}
			byLabel[label] = b.AddVertex(label, fields[2:]...)
		case "e":
			if len(fields) != 3 {
				return nil, fmt.Errorf("dataio: line %d: edge needs two endpoints", lineNo)
			}
			u, ok := byLabel[fields[1]]
			if !ok {
				return nil, fmt.Errorf("dataio: line %d: unknown vertex %q", lineNo, fields[1])
			}
			v, ok := byLabel[fields[2]]
			if !ok {
				return nil, fmt.Errorf("dataio: line %d: unknown vertex %q", lineNo, fields[2])
			}
			b.AddEdge(u, v)
		default:
			return nil, fmt.Errorf("dataio: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataio: %w", err)
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	return g, nil
}

// FlatTree is the flattened CL-tree skeleton — four flat arrays, immutable
// once built. FlattenTree captures it in O(tree) array copies, which lets a
// checkpoint snapshot the index under the writer lock and serialise the
// capture off-lock while mutations continue.
type FlatTree struct {
	Core    []int32 // node core number, indexed by pre-order node ID
	Parent  []int32 // node parent ID (-1 for root)
	VertOff []int32 // len = node count + 1
	Verts   []graph.VertexID
}

// FlattenTree captures t's skeleton (core numbers, parent links, vertex
// lists) as immutable flat arrays. Nil in, nil out.
func FlattenTree(t *core.Tree) *FlatTree {
	if t == nil {
		return nil
	}
	ft := &FlatTree{VertOff: []int32{0}}
	var walk func(n *core.Node, parent int32)
	walk = func(n *core.Node, parent int32) {
		id := int32(len(ft.Core))
		ft.Core = append(ft.Core, n.Core)
		ft.Parent = append(ft.Parent, parent)
		ft.Verts = append(ft.Verts, n.Vertices...)
		ft.VertOff = append(ft.VertOff, int32(len(ft.Verts)))
		for _, c := range n.Children {
			walk(c, id)
		}
	}
	walk(t.Root, -1)
	return ft
}

func unflattenTree(g graph.View, ft *FlatTree) (*core.Tree, error) {
	nn := len(ft.Core)
	if nn == 0 || len(ft.Parent) != nn || len(ft.VertOff) != nn+1 || ft.Parent[0] != -1 {
		return nil, fmt.Errorf("dataio: malformed tree snapshot")
	}
	nodes := make([]*core.Node, nn)
	for i := range nodes {
		lo, hi := ft.VertOff[i], ft.VertOff[i+1]
		if lo < 0 || lo > hi || int(hi) > len(ft.Verts) {
			return nil, fmt.Errorf("dataio: malformed tree vertex offsets at node %d", i)
		}
		vs := ft.Verts[lo:hi:hi]
		for _, v := range vs {
			if int(v) < 0 || int(v) >= g.NumVertices() {
				return nil, fmt.Errorf("dataio: tree snapshot references vertex %d outside graph", v)
			}
		}
		nodes[i] = &core.Node{Core: ft.Core[i], Vertices: vs}
	}
	for i := 1; i < nn; i++ {
		p := ft.Parent[i]
		if p < 0 || int(p) >= nn || p >= int32(i) {
			return nil, fmt.Errorf("dataio: malformed tree parent %d", p)
		}
		nodes[i].Parent = nodes[p]
		nodes[p].Children = append(nodes[p].Children, nodes[i])
	}
	// Auto worker count: posting rebuilds dominate rehydration on
	// keyword-heavy graphs and parallelise per node; small graphs stay serial.
	return core.RehydrateOpts(g, nodes[0], core.BuildOptions{})
}
