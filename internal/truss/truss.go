// Package truss implements k-truss machinery: triangle counting, truss
// decomposition and truss-constrained community extraction.
//
// The paper's conclusion lists k-truss as the next structure-cohesiveness
// measure to support in ACQ (its reference [16], Huang et al., SIGMOD 2014,
// uses exactly this notion for non-attributed community search). A k-truss
// is a subgraph in which every edge closes at least k−2 triangles inside the
// subgraph; the trussness of an edge is the largest k for which some k-truss
// contains it. Compared with the k-core, the k-truss demands triangle
// support rather than plain degree, which filters out loosely attached
// members.
//
// This package provides the substrate; the attributed (keyword-cohesive)
// truss search built on top of it lives in internal/core (TrussSearch).
package truss

import (
	"sort"

	"github.com/acq-search/acq/internal/cancel"
	"github.com/acq-search/acq/internal/graph"
)

// EdgeID indexes the graph's undirected edges in the canonical order
// produced by Edges (sorted by (min endpoint, max endpoint)).
type EdgeID int32

// Decomposition holds the truss decomposition of a graph.
type Decomposition struct {
	// Edges lists each undirected edge once, canonically ordered.
	Edges [][2]graph.VertexID
	// Trussness[e] is the trussness of Edges[e] (≥ 2 for every edge; an
	// edge in no triangle has trussness 2).
	Trussness []int32
	// MaxTruss is the maximum trussness (0 for an edgeless graph).
	MaxTruss int32

	index map[[2]graph.VertexID]EdgeID
}

// EdgeIndex returns the ID of edge {u, v}, if present.
func (d *Decomposition) EdgeIndex(u, v graph.VertexID) (EdgeID, bool) {
	if u > v {
		u, v = v, u
	}
	id, ok := d.index[[2]graph.VertexID{u, v}]
	return id, ok
}

// VertexTrussness returns, for every vertex, the maximum trussness over its
// incident edges (0 for isolated vertices). A vertex can belong to a k-truss
// only if its vertex trussness is ≥ k.
func (d *Decomposition) VertexTrussness(n int) []int32 {
	out := make([]int32, n)
	for e, ends := range d.Edges {
		t := d.Trussness[e]
		if out[ends[0]] < t {
			out[ends[0]] = t
		}
		if out[ends[1]] < t {
			out[ends[1]] = t
		}
	}
	return out
}

// Decompose computes the trussness of every edge with the standard
// support-peeling algorithm: count triangles per edge, then repeatedly remove
// the edge with minimum support, decrementing the support of the other two
// edges of each triangle it closed. Runtime is O(m^1.5) for the triangle
// counting plus near-linear peeling.
func Decompose(g graph.View) *Decomposition {
	d := &Decomposition{index: map[[2]graph.VertexID]EdgeID{}}
	n := g.NumVertices()
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(graph.VertexID(u)) {
			if graph.VertexID(u) < v {
				d.index[[2]graph.VertexID{graph.VertexID(u), v}] = EdgeID(len(d.Edges))
				d.Edges = append(d.Edges, [2]graph.VertexID{graph.VertexID(u), v})
			}
		}
	}
	m := len(d.Edges)
	d.Trussness = make([]int32, m)
	if m == 0 {
		return d
	}

	support := make([]int32, m)
	forEachTriangle(g, d, func(e1, e2, e3 EdgeID) {
		support[e1]++
		support[e2]++
		support[e3]++
	})

	// Bucket peeling on support (support s ⇒ trussness ≥ s+2 until peeled).
	maxSup := int32(0)
	for _, s := range support {
		if s > maxSup {
			maxSup = s
		}
	}
	buckets := make([][]EdgeID, maxSup+1)
	for e := 0; e < m; e++ {
		buckets[support[e]] = append(buckets[support[e]], EdgeID(e))
	}
	alive := make([]bool, m)
	for i := range alive {
		alive[i] = true
	}
	cur := append([]int32(nil), support...)
	removed := 0
	level := int32(0)
	for removed < m {
		// Find the lowest non-empty bucket ≥ 0; entries may be stale (edge
		// already peeled or support since decreased), so re-check.
		var e EdgeID = -1
		for s := int32(0); s <= maxSup; s++ {
			for len(buckets[s]) > 0 {
				cand := buckets[s][len(buckets[s])-1]
				buckets[s] = buckets[s][:len(buckets[s])-1]
				if alive[cand] && cur[cand] == s {
					e = cand
					level = s
					break
				}
			}
			if e >= 0 {
				break
			}
		}
		if e < 0 {
			break
		}
		alive[e] = false
		removed++
		d.Trussness[e] = level + 2
		// Decrement the support of surviving triangle partners.
		u, v := d.Edges[e][0], d.Edges[e][1]
		forEachCommonNeighbor(g, u, v, func(w graph.VertexID) {
			e1, ok1 := d.EdgeIndex(u, w)
			e2, ok2 := d.EdgeIndex(v, w)
			if !ok1 || !ok2 || !alive[e1] || !alive[e2] {
				return
			}
			for _, pe := range []EdgeID{e1, e2} {
				if cur[pe] > level {
					cur[pe]--
					buckets[cur[pe]] = append(buckets[cur[pe]], pe)
				}
			}
		})
	}
	for _, t := range d.Trussness {
		if t > d.MaxTruss {
			d.MaxTruss = t
		}
	}
	return d
}

// forEachTriangle enumerates each triangle once, reporting its three edges.
func forEachTriangle(g graph.View, d *Decomposition, fn func(e1, e2, e3 EdgeID)) {
	n := g.NumVertices()
	for u := 0; u < n; u++ {
		uv := graph.VertexID(u)
		for _, v := range g.Neighbors(uv) {
			if v <= uv {
				continue
			}
			forEachCommonNeighbor(g, uv, v, func(w graph.VertexID) {
				if w <= v { // enforce u < v < w so each triangle fires once
					return
				}
				e1, _ := d.EdgeIndex(uv, v)
				e2, _ := d.EdgeIndex(uv, w)
				e3, _ := d.EdgeIndex(v, w)
				fn(e1, e2, e3)
			})
		}
	}
}

// forEachCommonNeighbor calls fn for every common neighbour of u and v.
func forEachCommonNeighbor(g graph.View, u, v graph.VertexID, fn func(w graph.VertexID)) {
	a, b := g.Neighbors(u), g.Neighbors(v)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			fn(a[i])
			i++
			j++
		}
	}
}

// CommunityOf returns the connected k-truss community containing q inside
// the subgraph induced by cand, over ops's view: edges with in-subgraph
// support < k−2 are peeled iteratively, then q's connected component over
// the surviving edges is returned (vertices sorted with ops.SortSet)
// together with those surviving edges. A k-truss is an edge subgraph — an
// edge between two community members that was peeled is NOT part of the
// community even though both endpoints are.
// nil vertices means q survives in no such subgraph. k must be ≥ 2; k=2
// degenerates to q's connected component.
//
// check (nil for uncancellable callers) is ticked per edge examined during
// support counting and peeling, so a deadline can stop a truss verification
// mid-peel.
func CommunityOf(ops *graph.SetOps, cand []graph.VertexID, q graph.VertexID, k int, check *cancel.Checker) ([]graph.VertexID, [][2]graph.VertexID) {
	if k < 2 {
		k = 2
	}
	g := ops.Graph()
	in := map[graph.VertexID]bool{}
	for _, v := range cand {
		check.Tick(1)
		in[v] = true
	}
	if !in[q] {
		return nil, nil
	}
	// Local edge set of the induced subgraph.
	type edge struct{ u, v graph.VertexID }
	sup := map[edge]int{}
	alive := map[edge]bool{}
	mk := func(u, v graph.VertexID) edge {
		if u > v {
			u, v = v, u
		}
		return edge{u, v}
	}
	for _, u := range cand {
		check.Tick(1)
		for _, v := range g.Neighbors(u) {
			if u < v && in[v] {
				alive[mk(u, v)] = true
			}
		}
	}
	neighbors := func(u graph.VertexID) []graph.VertexID {
		check.Tick(1)
		var out []graph.VertexID
		for _, v := range g.Neighbors(u) {
			if in[v] && alive[mk(u, v)] {
				out = append(out, v)
			}
		}
		return out
	}
	countSupport := func(e edge) int {
		s := 0
		forEachCommonNeighbor(g, e.u, e.v, func(w graph.VertexID) {
			if in[w] && alive[mk(e.u, w)] && alive[mk(e.v, w)] {
				s++
			}
		})
		return s
	}
	// The peel queue starts with the weak edges in discovery order over
	// cand; the peeled k-truss is unique, so the order changes nothing but
	// the work done.
	var queue []edge
	for _, u := range cand {
		for _, v := range g.Neighbors(u) {
			if u < v && in[v] {
				check.Tick(1)
				e := edge{u, v}
				sup[e] = countSupport(e)
				if sup[e] < k-2 {
					queue = append(queue, e)
				}
			}
		}
	}
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		check.Tick(1)
		if !alive[e] {
			continue
		}
		alive[e] = false
		forEachCommonNeighbor(g, e.u, e.v, func(w graph.VertexID) {
			if !in[w] {
				return
			}
			// The triangle only still exists if BOTH partner edges are
			// alive; otherwise its support contribution was already gone.
			e1, e2 := mk(e.u, w), mk(e.v, w)
			if !alive[e1] || !alive[e2] {
				return
			}
			for _, pe := range []edge{e1, e2} {
				sup[pe]--
				if sup[pe] < k-2 {
					queue = append(queue, pe)
				}
			}
		})
	}
	// BFS over surviving edges from q.
	visited := map[graph.VertexID]bool{q: true}
	comp := []graph.VertexID{q}
	for head := 0; head < len(comp); head++ {
		check.Tick(1)
		for _, v := range neighbors(comp[head]) {
			if !visited[v] {
				visited[v] = true
				comp = append(comp, v)
			}
		}
	}
	if len(comp) == 1 && len(neighbors(q)) == 0 {
		return nil, nil
	}
	var edges [][2]graph.VertexID
	for _, u := range comp {
		check.Tick(1)
		for _, v := range neighbors(u) {
			if u < v {
				edges = append(edges, [2]graph.VertexID{u, v})
			}
		}
	}
	comp = ops.SortSet(comp)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	return comp, edges
}
