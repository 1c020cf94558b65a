// Package dataio reads and writes attributed graphs and CL-tree snapshots.
//
// Two formats are supported:
//
//   - A line-oriented text format for interchange:
//     v <label> [keyword ...]     one line per vertex, in ID order
//     e <labelA> <labelB>         one line per undirected edge
//
//     Lines end at '\n'; a trailing '\r' (CRLF files) is whitespace like any
//     other. Tokens are separated by runs of unicode.IsSpace runes, so tabs,
//     '\v', '\f', U+0085 and NBSP separate tokens as spaces do, and leading
//     or trailing whitespace is ignored. A line with no tokens, or whose first
//     token starts with '#', is a comment. There is no line-length cap (the
//     16 MB cap of the earlier line-scanner reader is gone). A vertex must be
//     declared before an edge names it, labels are unique, and vertex IDs
//     follow declaration order; keyword IDs follow first appearance. Self-loops,
//     duplicate edges and duplicate keywords are dropped.
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
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"github.com/acq-search/acq/internal/core"
	"github.com/acq-search/acq/internal/graph"
)

// WriteText writes g in the text format. Vertices without labels are written
// as "_<id>". It refuses, naming the vertex and the token, any graph whose
// text would read back differently: a label or keyword that is empty or
// contains a rune ReadText splits on, or a label "_<id>" that collides with
// the name written for unlabelled vertex <id>.
func WriteText(w io.Writer, g graph.View) error {
	n := g.NumVertices()
	name := func(v graph.VertexID) string {
		if label := g.Label(v); label != "" {
			return label
		}
		return "_" + strconv.Itoa(int(v))
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# attributed graph: %d vertices, %d edges\n", n, g.NumEdges())
	for v := 0; v < n; v++ {
		id := graph.VertexID(v)
		if label := g.Label(id); label != "" {
			if strings.ContainsFunc(label, isSpace) {
				return fmt.Errorf("dataio: vertex %d: label %q contains whitespace", v, label)
			}
			if u, ok := unlabelledName(label); ok && u < n && u != v && g.Label(graph.VertexID(u)) == "" {
				return fmt.Errorf("dataio: vertex %d: label %q is the name written for unlabelled vertex %d", v, label, u)
			}
		}
		fmt.Fprintf(bw, "v %s", name(id))
		for _, kw := range g.KeywordStrings(id) {
			if kw == "" {
				return fmt.Errorf("dataio: vertex %d: empty keyword", v)
			}
			if strings.ContainsFunc(kw, isSpace) {
				return fmt.Errorf("dataio: vertex %d: keyword %q contains whitespace", v, kw)
			}
			fmt.Fprintf(bw, " %s", kw)
		}
		fmt.Fprintln(bw)
	}
	for v := 0; v < n; v++ {
		id := graph.VertexID(v)
		for _, u := range g.Neighbors(id) {
			if u > id {
				fmt.Fprintf(bw, "e %s %s\n", name(id), name(u))
			}
		}
	}
	return bw.Flush()
}

// unlabelledName reports the vertex u whose unlabelled name "_<u>" label
// spells.
func unlabelledName(label string) (int, bool) {
	u, err := strconv.Atoi(strings.TrimPrefix(label, "_"))
	return u, err == nil && u >= 0 && label == "_"+strconv.Itoa(u)
}

// isSpace is the text format's one whitespace predicate: ReadText splits
// lines on it and WriteText refuses tokens that contain it.
func isSpace(r rune) bool { return unicode.IsSpace(r) }

// byteClass sorts line bytes for the tokeniser: a single-byte rune is a
// separator or part of a token by isSpace, and a byte ≥ 0x80 belongs to a
// multi-byte rune that has to be decoded first.
var byteClass = func() (t [256]uint8) {
	for c := 0; c < utf8.RuneSelf; c++ {
		if isSpace(rune(c)) {
			t[c] = separator
		}
	}
	for c := utf8.RuneSelf; c < len(t); c++ {
		t[c] = multiByte
	}
	return t
}()

const (
	tokenByte = iota
	separator
	multiByte
)

// appendFields appends the isSpace-separated tokens of line to dst, as
// subslices of line. An ASCII line is split by byteClass alone; a line
// holding any byte ≥ 0x80 is split by appendRuneFields instead.
func appendFields(dst [][]byte, line []byte) [][]byte {
	n, start := len(dst), -1
	for i, c := range line {
		switch byteClass[c] {
		case tokenByte:
			if start < 0 {
				start = i
			}
		case separator:
			if start >= 0 {
				dst = append(dst, line[start:i])
				start = -1
			}
		default:
			return appendRuneFields(dst[:n], line)
		}
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}

// appendRuneFields is appendFields decoding rune by rune, as strings.Fields
// does for non-ASCII input, so NBSP and U+0085 separate tokens and invalid
// UTF-8 stays inside them.
func appendRuneFields(dst [][]byte, line []byte) [][]byte {
	start := -1
	for i := 0; i < len(line); {
		r, size := utf8.DecodeRune(line[i:])
		switch space := isSpace(r); {
		case !space && start < 0:
			start = i
		case space && start >= 0:
			dst = append(dst, line[start:i])
			start = -1
		}
		i += size
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}

// ReadText parses the text format in one pass over the bytes. Unknown
// directives, dangling edge endpoints and duplicate labels are reported as
// errors with line numbers. Tokens are interned straight from the read
// buffer, so a parse allocates one string per vertex label and per distinct
// keyword, plus the graph's flat arrays.
func ReadText(r io.Reader) (*graph.Graph, error) { return readText(r, 64<<10) }

// readText is ReadText over a read buffer of bufSize bytes. Lines are
// tokenised in place inside it; only a line longer than the buffer is copied
// out first.
func readText(r io.Reader, bufSize int) (*graph.Graph, error) {
	b := graph.NewBuilder()
	br := bufio.NewReaderSize(r, bufSize)
	var long []byte
	toks := make([][]byte, 0, 64)
	for lineNo := 1; ; lineNo++ {
		line, rerr := br.ReadSlice('\n')
		if rerr == bufio.ErrBufferFull {
			long = append(long[:0], line...)
			for rerr == bufio.ErrBufferFull {
				line, rerr = br.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		toks = appendFields(toks[:0], line)
		if err := parseLine(b, toks, lineNo); err != nil {
			return nil, err
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return nil, fmt.Errorf("dataio: %w", rerr)
		}
	}
	return b.Build()
}

// parseLine adds one tokenised line to b. Blank and comment lines add nothing.
func parseLine(b *graph.Builder, toks [][]byte, lineNo int) error {
	if len(toks) == 0 || toks[0][0] == '#' {
		return nil
	}
	switch string(toks[0]) {
	case "v":
		if len(toks) < 2 {
			return fmt.Errorf("dataio: line %d: vertex needs a label", lineNo)
		}
		if _, dup := b.Lookup(toks[1]); dup {
			return fmt.Errorf("dataio: line %d: duplicate vertex %q", lineNo, toks[1])
		}
		b.AddVertexBytes(toks[1], toks[2:])
	case "e":
		if len(toks) != 3 {
			return fmt.Errorf("dataio: line %d: edge needs two endpoints", lineNo)
		}
		u, ok := b.Lookup(toks[1])
		if !ok {
			return fmt.Errorf("dataio: line %d: unknown vertex %q", lineNo, toks[1])
		}
		v, ok := b.Lookup(toks[2])
		if !ok {
			return fmt.Errorf("dataio: line %d: unknown vertex %q", lineNo, toks[2])
		}
		b.AddEdge(u, v)
	default:
		return fmt.Errorf("dataio: line %d: unknown directive %q", lineNo, toks[0])
	}
	return nil
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
