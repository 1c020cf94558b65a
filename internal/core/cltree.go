// Package core implements the paper's primary contribution: the CL-tree
// (Core Label tree) index and the ACQ query algorithms that run on it
// (Fang et al., "Effective Community Search for Large Attributed Graphs",
// PVLDB 9(12), 2016, Sections 5–6 and Appendices B–G).
//
// The CL-tree organises the laminar family of k-ĉores of a graph: a
// (k+1)-ĉore is always contained in exactly one k-ĉore, so the ĉores form a
// tree. The tree is stored compressed — each graph vertex appears in exactly
// one node, the node whose core number equals the vertex's core number — and
// every node carries an inverted list from keyword to the node's own vertices
// containing it. Two primitives drive all query algorithms:
//
//   - core-locating: find the c-ĉore containing a vertex q by walking up
//     from q's node (LocateRoot);
//   - keyword-checking: find the vertices inside a ĉore that contain a
//     keyword set, by intersecting per-node inverted lists over the subtree
//     (Candidates).
package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/acq-search/acq/internal/cancel"
	"github.com/acq-search/acq/internal/graph"
	"github.com/acq-search/acq/internal/kcore"
	"github.com/acq-search/acq/internal/para"
)

// Node is one CL-tree node: a k-ĉore, holding only the vertices whose core
// number equals the node's core number (the compressed representation of
// Section 5.1).
//
// The per-node inverted index (keyword → own vertices containing it) is
// stored flattened as sorted postings arrays rather than a map: InvKeys
// holds the distinct keywords ascending, and the vertices for InvKeys[i]
// are InvPost[InvOff[i]:InvOff[i+1]], ascending. Three flat slices replace
// one map plus one slice per (node, keyword) pair, so cloning a tree for
// snapshot publication copies three arrays per node and keyword-checking
// walks sequential memory.
type Node struct {
	// Core is the core number of the ĉore this node represents.
	Core int32
	// Vertices are the node's own vertices (core number == Core), sorted.
	Vertices []graph.VertexID
	// InvKeys lists the distinct keywords of the node's own vertices,
	// ascending. Invariant: len(InvOff) == len(InvKeys)+1 once finalized.
	InvKeys []graph.KeywordID
	// InvOff delimits each keyword's posting inside InvPost.
	InvOff []int32
	// InvPost is the shared postings array: the own vertices containing
	// InvKeys[i], sorted, live at InvPost[InvOff[i]:InvOff[i+1]].
	InvPost []graph.VertexID
	// Children are the nested ĉores with the next-present core numbers.
	Children []*Node
	// Parent is nil for the root.
	Parent *Node
	// sharedPostings marks a Fork's node whose postings arrays still belong
	// to the tree it was forked from.
	sharedPostings bool
}

// Posting returns the sorted own vertices of n containing w, nil when no own
// vertex does. The slice aliases the node's postings array: read-only.
func (n *Node) Posting(w graph.KeywordID) []graph.VertexID {
	i := sort.Search(len(n.InvKeys), func(i int) bool { return n.InvKeys[i] >= w })
	if i < len(n.InvKeys) && n.InvKeys[i] == w {
		return n.InvPost[n.InvOff[i]:n.InvOff[i+1]]
	}
	return nil
}

// insertPosting records that own vertex v (already in n.Vertices) contains w,
// splicing the flat postings in place. Used by the incremental maintainer.
//
// The splice shifts the node's postings tail (one contiguous memmove), so a
// keyword update costs O(node postings) where the old map-of-slices form
// paid O(one keyword's list). That trade is deliberate: keyword updates are
// rare next to queries, the memmove is sequential int32 traffic, and in
// serving mode every effective mutation already pays the O(n+m) snapshot
// republication that dwarfs it — while the flat form is what makes those
// republications cheap.
func (n *Node) insertPosting(w graph.KeywordID, v graph.VertexID) {
	n.ownPostings()
	i := sort.Search(len(n.InvKeys), func(i int) bool { return n.InvKeys[i] >= w })
	if i == len(n.InvKeys) || n.InvKeys[i] != w {
		n.InvKeys = append(n.InvKeys, 0)
		copy(n.InvKeys[i+1:], n.InvKeys[i:])
		n.InvKeys[i] = w
		if len(n.InvOff) == 0 {
			n.InvOff = append(n.InvOff, 0)
		}
		// Duplicate boundary i: the new keyword starts with an empty posting.
		n.InvOff = append(n.InvOff, 0)
		copy(n.InvOff[i+1:], n.InvOff[i:])
	}
	at := n.InvOff[i] + int32(sort.Search(int(n.InvOff[i+1]-n.InvOff[i]), func(j int) bool {
		return n.InvPost[int(n.InvOff[i])+j] >= v
	}))
	n.InvPost = append(n.InvPost, 0)
	copy(n.InvPost[at+1:], n.InvPost[at:])
	n.InvPost[at] = v
	for j := i + 1; j < len(n.InvOff); j++ {
		n.InvOff[j]++
	}
}

// ownPostings gives a forked node private copies of the postings it still
// shares, before the first splice writes them.
func (n *Node) ownPostings() {
	if n.sharedPostings {
		n.InvKeys = slices.Clone(n.InvKeys)
		n.InvOff = slices.Clone(n.InvOff)
		n.InvPost = slices.Clone(n.InvPost)
		n.sharedPostings = false
	}
}

// removePosting erases the (w, v) pair, dropping the keyword entirely when
// its posting empties. Used by the incremental maintainer.
func (n *Node) removePosting(w graph.KeywordID, v graph.VertexID) {
	n.ownPostings()
	i := sort.Search(len(n.InvKeys), func(i int) bool { return n.InvKeys[i] >= w })
	if i == len(n.InvKeys) || n.InvKeys[i] != w {
		return
	}
	lo, hi := n.InvOff[i], n.InvOff[i+1]
	at := lo + int32(sort.Search(int(hi-lo), func(j int) bool { return n.InvPost[int(lo)+j] >= v }))
	if at == hi || n.InvPost[at] != v {
		return
	}
	copy(n.InvPost[at:], n.InvPost[at+1:])
	n.InvPost = n.InvPost[:len(n.InvPost)-1]
	for j := i + 1; j < len(n.InvOff); j++ {
		n.InvOff[j]--
	}
	if n.InvOff[i] == n.InvOff[i+1] {
		copy(n.InvKeys[i:], n.InvKeys[i+1:])
		n.InvKeys = n.InvKeys[:len(n.InvKeys)-1]
		copy(n.InvOff[i+1:], n.InvOff[i+2:])
		n.InvOff = n.InvOff[:len(n.InvOff)-1]
	}
}

// Tree is the CL-tree index over a fixed attributed graph, consumed through
// the read-only graph.View interface so one index implementation serves both
// the mutable master graph and frozen CSR snapshots.
type Tree struct {
	g graph.View
	// Root represents the 0-core (the entire graph, possibly disconnected).
	Root *Node
	// NodeOf maps every vertex to the unique node that owns it.
	NodeOf []*Node
	// Core holds the core number of every vertex (Definition 2).
	Core []int32
	// KMax is the maximum core number.
	KMax int32

	nodeCount int

	// postings, when non-nil, overrides the flattened inverted lists of the
	// listed nodes (see RebindPostings). Only delta-published trees carry it;
	// on the master tree and full clones it stays nil.
	postings map[*Node]*NodePostings

	// scratch recycles the per-query working memory of queries against g.
	// Every constructor — builders, Rehydrate, Clone, CloneOpts,
	// RebindPostings — starts a fresh pool, so pooled scratch never outlives
	// its view.
	scratch *scratchPool
}

// scratchPool is a Tree's pool of queryScratch bound to the tree's view.
// Marker epochs, and a bit table that each reset clears of the previous
// query's S, make a recycled queryScratch as good as a new one, so each
// query pays for its scratch once per pool rather than once per query.
type scratchPool struct {
	pool sync.Pool
	// inUse counts queryScratch handed out and not yet released.
	inUse atomic.Int64
}

// queryScratch is one query's pooled working memory: the n-sized
// induced-subgraph scratch and the dictionary-sized keyword bit table.
type queryScratch struct {
	ops  *graph.SetOps
	bits keywordBits
}

// acquireScratch returns query scratch bound to t.g with check attached,
// taken from the tree's pool when one is available. Pair every call with a
// deferred releaseScratch so cancellation and budget unwinds return it too.
func (t *Tree) acquireScratch(check *cancel.Checker) *queryScratch {
	t.scratch.inUse.Add(1)
	sc, ok := t.scratch.pool.Get().(*queryScratch)
	if !ok || sc.ops.Graph() != t.g {
		sc = &queryScratch{ops: graph.NewSetOps(t.g)}
	}
	sc.ops.SetChecker(check)
	return sc
}

// releaseScratch detaches the query's checker and returns sc to the pool.
func (t *Tree) releaseScratch(sc *queryScratch) {
	sc.ops.SetChecker(nil)
	t.scratch.inUse.Add(-1)
	t.scratch.pool.Put(sc)
}

// ScratchInUse reports how many pooled queryScratch are currently handed
// out: zero whenever no query is running on t.
func (t *Tree) ScratchInUse() int64 { return t.scratch.inUse.Load() }

// Graph returns the indexed graph view.
func (t *Tree) Graph() graph.View { return t.g }

// NumNodes returns the number of CL-tree nodes.
func (t *Tree) NumNodes() int { return t.nodeCount }

// Height returns the number of nodes on the longest root-to-leaf path.
func (t *Tree) Height() int {
	var h func(*Node) int
	h = func(n *Node) int {
		best := 0
		for _, c := range n.Children {
			if d := h(c); d > best {
				best = d
			}
		}
		return best + 1
	}
	if t.Root == nil {
		return 0
	}
	return h(t.Root)
}

// LocateRoot performs core-locating: it returns the node whose subtree is
// exactly the c-ĉore containing q, or nil when core(q) < c. Because node
// core numbers strictly increase from root to leaf, this is the shallowest
// ancestor of q's node with core number ≥ c.
func (t *Tree) LocateRoot(q graph.VertexID, c int32) *Node {
	if t.Core[q] < c {
		return nil
	}
	n := t.NodeOf[q]
	for n.Parent != nil && n.Parent.Core >= c {
		n = n.Parent
	}
	return n
}

// SubtreeVertices returns every vertex of the ĉore represented by n (the
// union of own-vertex sets over n's subtree), in unspecified order.
func (t *Tree) SubtreeVertices(n *Node) []graph.VertexID {
	var out []graph.VertexID
	stack := []*Node{n}
	for len(stack) > 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, nd.Vertices...)
		stack = append(stack, nd.Children...)
	}
	return out
}

// Candidates performs keyword-checking: it returns the vertices of n's
// subtree whose keyword sets contain every keyword of set (sorted). With
// useInverted=false it scans vertex keyword sets instead of intersecting the
// per-node inverted lists; that is the Inc-S*/Inc-T* ablation of Figure 15.
// An empty set returns all subtree vertices.
func (t *Tree) Candidates(n *Node, set []graph.KeywordID, useInverted bool) []graph.VertexID {
	if len(set) == 0 {
		return t.SubtreeVertices(n)
	}
	var out []graph.VertexID
	stack := []*Node{n}
	for len(stack) > 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		stack = append(stack, nd.Children...)
		if len(nd.Vertices) == 0 {
			continue
		}
		if useInverted {
			out = t.appendInvertedMatches(out, nd, set)
		} else {
			for _, v := range nd.Vertices {
				if t.g.HasAllKeywords(v, set) {
					out = append(out, v)
				}
			}
		}
	}
	return out
}

// appendInvertedMatches intersects nd's keyword postings for set and appends
// the matches to out.
func (t *Tree) appendInvertedMatches(out []graph.VertexID, nd *Node, set []graph.KeywordID) []graph.VertexID {
	// Resolve every posting; bail out if any keyword is absent. The shortest
	// posting drives the intersection.
	all := make([][]graph.VertexID, len(set))
	base := -1
	for i, w := range set {
		l := t.postingOf(nd, w)
		if l == nil {
			return out
		}
		all[i] = l
		if base == -1 || len(l) < len(all[base]) {
			base = i
		}
	}
	lists := make([][]graph.VertexID, 0, len(set)-1)
	for i, l := range all {
		if i != base {
			lists = append(lists, l)
		}
	}
	cursor := make([]int, len(lists))
outer:
	for _, v := range all[base] {
		for li, l := range lists {
			j := cursor[li]
			for j < len(l) && l[j] < v {
				j++
			}
			cursor[li] = j
			if j == len(l) {
				break outer
			}
			if l[j] != v {
				continue outer
			}
		}
		out = append(out, v)
	}
	return out
}

// finalize sorts vertex sets and children, fills NodeOf, builds inverted
// lists, and counts nodes. Both builders call it; the incremental maintainer
// runs the same two passes over rebuilt subtrees.
func (t *Tree) finalize() { t.finalizeWorkers(1) }

// finalizeWorkers canonicalises the whole tree, fanning the per-node work out
// over workers goroutines (1 runs inline). Two passes keep the result
// identical for every worker count: pass one sorts each node's own vertices
// and rebuilds its inverted list and NodeOf entries (nodes own disjoint
// vertex sets, so per-node tasks never write the same memory); pass two
// orders children, which must not start until every node's vertex set is
// sorted because the canonical child order reads the children's minimum
// vertices.
func (t *Tree) finalizeWorkers(workers int) {
	t.NodeOf = make([]*Node, t.g.NumVertices())
	nodes := t.collectNodes()
	t.nodeCount = len(nodes)
	t.finalizeNodes(workers, nodes)
}

// finalizeNodes runs the two canonicalisation passes over the given nodes —
// the one place the "sort all vertex sets before ordering any children"
// invariant lives; the incremental maintainer reuses it on rebuilt subtrees.
func (t *Tree) finalizeNodes(workers int, nodes []*Node) {
	para.Dynamic(workers, len(nodes), func(i int) { t.finalizeOwn(nodes[i]) })
	para.Dynamic(workers, len(nodes), func(i int) { sortChildren(nodes[i]) })
}

// collectNodes returns every node of the tree in pre-order.
func (t *Tree) collectNodes() []*Node {
	hint := t.nodeCount
	if hint == 0 {
		hint = 64
	}
	nodes := make([]*Node, 0, hint)
	stack := []*Node{t.Root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nodes = append(nodes, n)
		stack = append(stack, n.Children...)
	}
	return nodes
}

// finalizeOwn canonicalises a node's own state: sorts its vertices, points
// NodeOf at it and rebuilds its flattened postings. Child ordering is a
// separate pass (sortChildren) because it reads the sorted vertex sets of
// other nodes.
func (t *Tree) finalizeOwn(n *Node) {
	sort.Slice(n.Vertices, func(i, j int) bool { return n.Vertices[i] < n.Vertices[j] })
	for _, v := range n.Vertices {
		t.NodeOf[v] = n
	}
	buildPostings(t.g, n)
}

// postingScratch is the per-keyword counter array buildPostings indexes by
// KeywordID instead of hashing into maps — posting rebuilds are the hot loop
// of both tree construction and snapshot rehydration, and the array turns
// every per-occurrence map operation into an indexed add. Entries are zeroed
// after each node (only the touched keys), so a pooled scratch stays clean
// between uses and across goroutines.
type postingScratch struct {
	count []int32
}

var postingScratchPool = sync.Pool{New: func() any { return new(postingScratch) }}

// buildPostings rebuilds n's flattened inverted index from scratch. Vertices
// are visited in ascending order, so each keyword's posting comes out sorted
// without a per-list sort.
func buildPostings(g graph.View, n *Node) {
	sc := postingScratchPool.Get().(*postingScratch)
	if w := g.Dict().Size(); len(sc.count) < w {
		sc.count = make([]int32, w)
	}
	count := sc.count
	keys := make([]graph.KeywordID, 0, 16)
	total := int32(0)
	for _, v := range n.Vertices {
		for _, w := range g.Keywords(v) {
			if count[w] == 0 {
				keys = append(keys, w)
			}
			count[w]++
			total++
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	off := make([]int32, len(keys)+1)
	for i, w := range keys {
		off[i+1] = off[i] + count[w]
		count[w] = off[i] // repurpose as the write cursor for the fill pass
	}
	post := make([]graph.VertexID, total)
	for _, v := range n.Vertices {
		for _, w := range g.Keywords(v) {
			post[count[w]] = v
			count[w]++
		}
	}
	for _, w := range keys {
		count[w] = 0
	}
	postingScratchPool.Put(sc)
	n.InvKeys, n.InvOff, n.InvPost = keys, off, post
}

// sortChildren restores the canonical child order: ascending core number,
// then ascending first subtree vertex.
func sortChildren(n *Node) {
	sort.Slice(n.Children, func(i, j int) bool {
		a, b := n.Children[i], n.Children[j]
		if a.Core != b.Core {
			return a.Core < b.Core
		}
		return firstVertex(a) < firstVertex(b)
	})
}

func firstVertex(n *Node) graph.VertexID {
	for len(n.Vertices) == 0 && len(n.Children) > 0 {
		n = n.Children[0]
	}
	if len(n.Vertices) == 0 {
		return -1
	}
	return n.Vertices[0]
}

// Rehydrate reconstructs a Tree from a deserialised node skeleton (core
// numbers and own-vertex sets with parent/child links already wired). Core
// numbers per vertex are derived from node membership; postings and lookup
// tables are rebuilt. It fails if the nodes do not partition the graph's
// vertices.
func Rehydrate(g graph.View, root *Node) (*Tree, error) {
	return RehydrateOpts(g, root, BuildOptions{Workers: 1})
}

// RehydrateOpts is Rehydrate with a worker bound for the per-node
// canonicalisation pass (the posting rebuild dominates rehydration on
// keyword-heavy graphs). As with the builders, any worker count yields an
// identical tree.
func RehydrateOpts(g graph.View, root *Node, o BuildOptions) (*Tree, error) {
	t := &Tree{g: g, Root: root, Core: make([]int32, g.NumVertices()), scratch: new(scratchPool)}
	seen := make([]bool, g.NumVertices())
	count := 0
	var walk func(n *Node) error
	walk = func(n *Node) error {
		for _, v := range n.Vertices {
			if seen[v] {
				return fmt.Errorf("cltree: rehydrate: vertex %d appears twice", v)
			}
			seen[v] = true
			count++
			t.Core[v] = n.Core
			if n.Core > t.KMax {
				t.KMax = n.Core
			}
		}
		for _, c := range n.Children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root); err != nil {
		return nil, err
	}
	if count != g.NumVertices() {
		return nil, fmt.Errorf("cltree: rehydrate: %d of %d vertices covered", count, g.NumVertices())
	}
	t.finalizeWorkers(o.ResolvedWorkers(g))
	return t, nil
}

// Validate checks the CL-tree invariants against the graph and core numbers:
// vertices partitioned across nodes, node core == own vertices' core, parent
// cores strictly smaller, each subtree connected in the induced ≥core
// subgraph, and inverted lists consistent. Intended for tests.
func (t *Tree) Validate() error {
	if t.Root == nil {
		return fmt.Errorf("cltree: nil root")
	}
	if t.Root.Core != 0 {
		return fmt.Errorf("cltree: root core %d != 0", t.Root.Core)
	}
	want := kcore.Decompose(t.g)
	seen := make([]bool, t.g.NumVertices())
	ops := graph.NewSetOps(t.g)
	var walk func(n *Node) error
	walk = func(n *Node) error {
		for _, v := range n.Vertices {
			if seen[v] {
				return fmt.Errorf("cltree: vertex %d in two nodes", v)
			}
			seen[v] = true
			if want[v] != n.Core {
				return fmt.Errorf("cltree: vertex %d core %d in node with core %d", v, want[v], n.Core)
			}
			if t.NodeOf[v] != n {
				return fmt.Errorf("cltree: NodeOf[%d] inconsistent", v)
			}
		}
		if n != t.Root {
			if len(n.Vertices) == 0 {
				return fmt.Errorf("cltree: non-root node with core %d has no own vertices", n.Core)
			}
			sub := t.SubtreeVertices(n)
			comp := ops.ComponentOf(sub, sub[0])
			if len(comp) != len(sub) {
				return fmt.Errorf("cltree: subtree at core %d not connected (%d of %d reachable)", n.Core, len(comp), len(sub))
			}
		}
		for _, c := range n.Children {
			if c.Core <= n.Core {
				return fmt.Errorf("cltree: child core %d <= parent core %d", c.Core, n.Core)
			}
			if c.Parent != n {
				return fmt.Errorf("cltree: broken parent pointer at core %d", c.Core)
			}
			if err := walk(c); err != nil {
				return err
			}
		}
		if len(n.InvOff) != len(n.InvKeys)+1 {
			return fmt.Errorf("cltree: node core %d has %d posting offsets for %d keywords", n.Core, len(n.InvOff), len(n.InvKeys))
		}
		own := int32(0)
		for _, v := range n.Vertices {
			own += int32(len(t.g.Keywords(v)))
		}
		if int32(len(n.InvPost)) != own {
			return fmt.Errorf("cltree: node core %d has %d postings for %d own keyword occurrences", n.Core, len(n.InvPost), own)
		}
		for i, w := range n.InvKeys {
			if i > 0 && n.InvKeys[i-1] >= w {
				return fmt.Errorf("cltree: posting keys of node core %d not strictly sorted", n.Core)
			}
			if n.InvOff[i] >= n.InvOff[i+1] {
				return fmt.Errorf("cltree: empty or non-monotone posting for keyword %d", w)
			}
			list := n.InvPost[n.InvOff[i]:n.InvOff[i+1]]
			for j, v := range list {
				if j > 0 && list[j-1] >= v {
					return fmt.Errorf("cltree: posting for keyword %d not sorted", w)
				}
				if !t.g.HasKeyword(v, w) {
					return fmt.Errorf("cltree: posting claims keyword %d on vertex %d", w, v)
				}
			}
		}
		return nil
	}
	if err := walk(t.Root); err != nil {
		return err
	}
	for v, s := range seen {
		if !s {
			return fmt.Errorf("cltree: vertex %d missing from tree", v)
		}
	}
	for v, c := range want {
		if t.Core[v] != c {
			return fmt.Errorf("cltree: stored core of %d is %d, want %d", v, t.Core[v], c)
		}
	}
	return nil
}
