package core

import (
	"sort"

	"github.com/acq-search/acq/internal/graph"
)

// NodePostings is an immutable replacement for one node's flattened inverted
// list, laid out exactly like the Node fields it shadows (Keys ascending,
// the vertices for Keys[i] sorted at Post[Off[i]:Off[i+1]]).
//
// It is the unit of the write path's posting-patch scheme: instead of deep-
// cloning the whole tree for every publication, the acq layer publishes a
// shallow rebind of its last full clone plus a small map of NodePostings for
// the nodes whose inverted lists changed since. Each entry is three flat-array
// copies of one node's postings — O(node postings), not O(tree) — so keyword
// churn publishes in microseconds.
type NodePostings struct {
	Keys []graph.KeywordID
	Off  []int32
	Post []graph.VertexID
}

// posting returns the sorted vertex list of keyword w (nil if absent),
// mirroring Node.Posting over the override arrays.
func (p *NodePostings) posting(w graph.KeywordID) []graph.VertexID {
	i := sort.Search(len(p.Keys), func(i int) bool { return p.Keys[i] >= w })
	if i < len(p.Keys) && p.Keys[i] == w {
		return p.Post[p.Off[i]:p.Off[i+1]]
	}
	return nil
}

// CopyNodePostings snapshots n's current flattened postings into an immutable
// NodePostings. The maintainer splices postings in place, so the copy must be
// taken while the tree is quiescent (the acq layer holds its writer mutex).
func CopyNodePostings(n *Node) *NodePostings {
	return &NodePostings{
		Keys: append([]graph.KeywordID(nil), n.InvKeys...),
		Off:  append([]int32(nil), n.InvOff...),
		Post: append([]graph.VertexID(nil), n.InvPost...),
	}
}

// RebindPostings returns a shallow copy of t bound to view g2, with the
// inverted lists of the nodes appearing in over replaced by the given
// immutable postings. Everything else — nodes, NodeOf, Core, KMax — is shared
// with t, so t must be an immutable clone that is never touched by a
// Maintainer, and over must not be mutated after the call.
//
// This is valid only while the tree's structure (node set, vertex
// partition, core numbers) matches g2; the acq layer guarantees that by
// gating rebinds on Maintainer.StructRev and falling back to a full clone
// after any structural change.
func (t *Tree) RebindPostings(g2 graph.View, over map[*Node]*NodePostings) *Tree {
	nt := *t
	nt.g = g2
	nt.postings = over
	nt.scratch = new(scratchPool) // t's pooled SetOps are bound to t.g
	return &nt
}

// postingOf resolves one keyword's posting list for nd, honouring the tree's
// posting overrides when present. The nil-map fast path keeps the cost on
// unpatched trees at one predictable branch.
func (t *Tree) postingOf(nd *Node, w graph.KeywordID) []graph.VertexID {
	if t.postings != nil {
		if p, ok := t.postings[nd]; ok {
			return p.posting(w)
		}
	}
	return nd.Posting(w)
}

// postingsArrays returns n's effective flattened postings under t's
// overrides. Clone paths use it so deep copies of a patched tree fold the
// overrides in rather than resurrecting the stale node arrays.
func (t *Tree) postingsArrays(n *Node) ([]graph.KeywordID, []int32, []graph.VertexID) {
	if t.postings != nil {
		if p, ok := t.postings[n]; ok {
			return p.Keys, p.Off, p.Post
		}
	}
	return n.InvKeys, n.InvOff, n.InvPost
}
