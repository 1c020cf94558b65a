package core

import (
	"github.com/acq-search/acq/internal/graph"
	"github.com/acq-search/acq/internal/kcore"
)

// Maintainer keeps a CL-tree consistent with a mutating graph, implementing
// the incremental maintenance of the paper's Appendix F.
//
//   - Keyword updates touch exactly one node's inverted list (the compressed
//     tree stores each vertex once).
//   - Edge updates first run incremental core-number maintenance (package
//     kcore, after reference [20]); all structural change to the ĉore family
//     is then confined to the subtree rooted at (an ancestor of) the lowest
//     common ancestor of the endpoints' nodes, and only that region is
//     rebuilt.
type Maintainer struct {
	tree *Tree
	// g is the mutable graph the maintainer applies updates to: maintenance
	// is the one tree operation that cannot run on a frozen view.
	g   graph.Mutable
	kc  *kcore.Maintainer
	ops *graph.SetOps
	// structRev counts structural repairs (rebuildRegion runs): node set,
	// vertex partition or core numbers changed. Keyword splices and the
	// same-node edge-insert fast path leave it untouched, which is what lets
	// the write path reuse its last full tree clone via RebindPostings for as
	// long as the revision holds still.
	structRev uint64
}

// NewMaintainer wraps an existing tree and its graph. The tree must have been
// built for (or cloned onto) exactly this graph, in a mutable form — a
// *graph.Graph or the writer's *graph.Master; a tree bound to a frozen
// snapshot view is immutable by construction and cannot be maintained. The
// k-core maintainer starts from a private copy of the tree's core numbers.
func NewMaintainer(t *Tree) *Maintainer {
	//acqvet:allow viewpurity — maintainers must bind to the mutable graph their tree was built on; the assertion is the documented precondition check
	g, ok := t.g.(graph.Mutable)
	if !ok {
		panic("core: NewMaintainer requires a tree bound to a mutable graph")
	}
	return &Maintainer{
		tree: t,
		g:    g,
		kc:   kcore.NewMaintainer(g, append([]int32(nil), t.Core...)),
		ops:  graph.NewSetOps(g),
	}
}

// Tree returns the maintained tree.
func (m *Maintainer) Tree() *Tree { return m.tree }

// StructRev returns the structural revision of the maintained tree: it
// advances exactly when an edge update forced a region rebuild. While it
// holds still, every published clone of the tree keeps a valid structure and
// only inverted lists may have drifted.
func (m *Maintainer) StructRev() uint64 { return m.structRev }

// AddKeyword attaches a keyword to v and splices it into the owning node's
// flattened postings. It reports whether anything changed.
func (m *Maintainer) AddKeyword(v graph.VertexID, word string) bool {
	if !m.g.AddKeyword(v, word) {
		return false
	}
	id, _ := m.g.Dict().Lookup(word)
	m.tree.NodeOf[v].insertPosting(id, v)
	return true
}

// RemoveKeyword detaches a keyword from v and splices it out of the owning
// node's flattened postings. It reports whether anything changed.
func (m *Maintainer) RemoveKeyword(v graph.VertexID, word string) bool {
	if !m.g.RemoveKeyword(v, word) {
		return false
	}
	id, _ := m.g.Dict().Lookup(word)
	m.tree.NodeOf[v].removePosting(id, v)
	return true
}

// InsertEdge adds {u, v} to the graph and repairs the tree. It reports
// whether the edge was new.
func (m *Maintainer) InsertEdge(u, v graph.VertexID) bool {
	if u == v || m.g.HasEdge(u, v) {
		return false
	}
	uNode, vNode := m.tree.NodeOf[u], m.tree.NodeOf[v]
	changed := m.kc.InsertEdge(u, v)
	if changed == nil && uNode == vNode {
		// Same node, no core changes: the ĉore family is untouched (the new
		// edge lies strictly inside existing components at every level).
		return true
	}
	m.rebuildRegion(uNode, vNode, changed)
	return true
}

// RemoveEdge removes {u, v} from the graph and repairs the tree. It reports
// whether the edge existed.
func (m *Maintainer) RemoveEdge(u, v graph.VertexID) bool {
	if !m.g.HasEdge(u, v) {
		return false
	}
	uNode, vNode := m.tree.NodeOf[u], m.tree.NodeOf[v]
	changed := m.kc.RemoveEdge(u, v)
	// Deletion can split a ĉore even when no core number changes (the edge
	// may be a cut edge of some ĉore), so the region is always rebuilt.
	m.rebuildRegion(uNode, vNode, changed)
	return true
}

// rebuildRegion rebuilds the smallest subtree guaranteed to contain every
// structural change after an edge update: the subtree rooted at the lowest
// ancestor A of both endpoints' (old) nodes whose core number is ≤ the new
// core number of every changed vertex. All vertices of A's old region still
// have core ≥ A.Core after the update, so the region's vertex set is
// unchanged and can be re-partitioned in place with the top-down builder.
func (m *Maintainer) rebuildRegion(uNode, vNode *Node, changed []graph.VertexID) {
	m.structRev++
	t := m.tree
	t.Core = m.kc.Core()
	t.KMax = kcore.MaxCore(t.Core)

	a := lca(uNode, vNode)
	minChanged := a.Core
	for _, w := range changed {
		if t.Core[w] < minChanged {
			minChanged = t.Core[w]
		}
	}
	for a.Parent != nil && a.Core > minChanged {
		a = a.Parent
	}

	// A deletion can split the ĉore at a's level; the pieces then hang off
	// a's parent — whose own region may split too. Climb until the region is
	// connected again (insertions never split, so this loop is a no-op for
	// them): once region(a) is connected, every path through the removed
	// edge at shallower levels can detour inside region(a), so no ancestor
	// ĉore can have split.
	region := t.SubtreeVertices(a)
	for a.Parent != nil && len(m.ops.Components(region)) > 1 {
		a = a.Parent
		region = t.SubtreeVertices(a)
	}
	parent := a.Parent
	if parent == nil {
		// Rebuilding from the root: rebuild the whole tree top-down.
		t.Root = &Node{Core: 0}
		buildDown(t, m.ops, region, 0, t.Root, true)
		t.finalize()
		return
	}
	// Detach a and re-partition its region under the same parent. The region
	// may now split into several ĉores (deletion) or keep one (insertion).
	parent.Children = removeChild(parent.Children, a)
	before := len(parent.Children)
	for _, comp := range m.ops.Components(region) {
		buildDown(t, m.ops, comp, a.Core, parent, false)
	}
	// Re-canonicalise only the rebuilt part: new nodes need inverted lists
	// and NodeOf entries; the parent just needs its child order restored.
	var fresh []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		fresh = append(fresh, n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, c := range parent.Children[before:] {
		walk(c)
	}
	t.finalizeNodes(1, fresh)
	sortChildren(parent)
	countNodes(t)
}

func countNodes(t *Tree) {
	n := 0
	var walk func(*Node)
	walk = func(nd *Node) {
		n++
		for _, c := range nd.Children {
			walk(c)
		}
	}
	walk(t.Root)
	t.nodeCount = n
}

func removeChild(children []*Node, target *Node) []*Node {
	out := children[:0]
	for _, c := range children {
		if c != target {
			out = append(out, c)
		}
	}
	return out
}

// lca returns the lowest common ancestor of two nodes.
func lca(a, b *Node) *Node {
	seen := map[*Node]bool{}
	for n := a; n != nil; n = n.Parent {
		seen[n] = true
	}
	for n := b; n != nil; n = n.Parent {
		if seen[n] {
			return n
		}
	}
	// Unreachable for nodes of the same tree; the root is a common ancestor.
	return a
}
