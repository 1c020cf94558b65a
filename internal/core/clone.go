package core

import "github.com/acq-search/acq/internal/graph"

// Clone returns a deep copy of t bound to g2. g2 must describe the same
// vertices and attributes as t's own graph — in practice it is the frozen
// (or cloned) form of the graph t was built on, taken at the same instant.
//
// The copy shares no mutable state with t: node sets, flattened postings,
// core numbers and lookup tables are all duplicated. It is the building
// block of the snapshot-isolation scheme in the public acq package: the live
// tree keeps evolving under the incremental Maintainer while published
// clones serve lock-free readers.
// Cloning a tree that carries posting overrides (RebindPostings) folds the
// overrides into the copy's node arrays, so the result is always a plain
// self-contained tree.
func (t *Tree) Clone(g2 graph.View) *Tree {
	nt := &Tree{
		g:         g2,
		Core:      append([]int32(nil), t.Core...),
		KMax:      t.KMax,
		NodeOf:    make([]*Node, len(t.NodeOf)),
		nodeCount: t.nodeCount,
		scratch:   new(scratchPool),
	}
	nt.Root = nt.cloneNode(t, t.Root, nil)
	return nt
}

// cloneNode deep-copies one node and its subtree of src, wiring parent
// pointers and the new tree's NodeOf entries as it goes. Recursion depth is
// the tree height, which is bounded by kmax+1.
func (t *Tree) cloneNode(src *Tree, n *Node, parent *Node) *Node {
	keys, off, post := src.postingsArrays(n)
	c := &Node{
		Core:     n.Core,
		Vertices: append([]graph.VertexID(nil), n.Vertices...),
		InvKeys:  append([]graph.KeywordID(nil), keys...),
		InvOff:   append([]int32(nil), off...),
		InvPost:  append([]graph.VertexID(nil), post...),
		Parent:   parent,
	}
	for _, v := range c.Vertices {
		t.NodeOf[v] = c
	}
	if len(n.Children) > 0 {
		c.Children = make([]*Node, len(n.Children))
		for i, ch := range n.Children {
			c.Children[i] = t.cloneNode(src, ch, c)
		}
	}
	return c
}
