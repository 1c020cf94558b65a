package core

import (
	"github.com/acq-search/acq/internal/graph"
	"github.com/acq-search/acq/internal/para"
)

// CloneOpts is Clone with the per-node copying fanned out over o.Workers
// goroutines. The snapshot-publication path uses it so a copy-on-write
// republication after a mutation spends less time holding the writer's mutex
// on large indexes. The clone is identical to Clone's for any worker count:
// node order, vertex order and flattened postings are copied verbatim.
func (t *Tree) CloneOpts(g2 graph.View, o BuildOptions) *Tree {
	workers := o.resolve(g2)
	if workers <= 1 {
		return t.Clone(g2)
	}
	nt := &Tree{
		g:         g2,
		Core:      append([]int32(nil), t.Core...),
		KMax:      t.KMax,
		NodeOf:    make([]*Node, len(t.NodeOf)),
		nodeCount: t.nodeCount,
		scratch:   new(scratchPool),
	}
	// Pass 1 (serial): allocate the skeleton and wire parent/child pointers —
	// cheap pointer work proportional to the node count, not the vertex count.
	type pair struct{ src, dst *Node }
	pairs := make([]pair, 0, t.nodeCount)
	var skel func(n, parent *Node) *Node
	skel = func(n, parent *Node) *Node {
		c := &Node{Core: n.Core, Parent: parent}
		pairs = append(pairs, pair{n, c})
		if len(n.Children) > 0 {
			c.Children = make([]*Node, len(n.Children))
			for i, ch := range n.Children {
				c.Children[i] = skel(ch, c)
			}
		}
		return c
	}
	nt.Root = skel(t.Root, nil)
	// Pass 2 (parallel): copy the payloads. Nodes own disjoint vertex sets,
	// so the NodeOf writes of different tasks never alias.
	para.Dynamic(workers, len(pairs), func(i int) {
		src, dst := pairs[i].src, pairs[i].dst
		keys, off, post := t.postingsArrays(src)
		dst.Vertices = append([]graph.VertexID(nil), src.Vertices...)
		dst.InvKeys = append([]graph.KeywordID(nil), keys...)
		dst.InvOff = append([]int32(nil), off...)
		dst.InvPost = append([]graph.VertexID(nil), post...)
		for _, v := range dst.Vertices {
			nt.NodeOf[v] = dst
		}
	})
	return nt
}
