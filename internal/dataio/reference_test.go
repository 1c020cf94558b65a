package dataio

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"github.com/acq-search/acq/internal/graph"
)

// refReadText is ReadText as it was before the byte-level reader: a
// bufio.Scanner over lines capped at 16 MB, strings.Fields tokens, and a
// label map of its own beside the Builder's, fed through the string
// AddVertex. FuzzReadText holds the reader under test to it.
func refReadText(r io.Reader) (*graph.Graph, error) {
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
	return b.Build()
}
