// Package clique implements k-clique community machinery: maximal-clique
// enumeration (Bron–Kerbosch with pivoting) and clique-percolation
// communities, the third structure-cohesiveness measure named in the paper's
// conclusion (its reference [4], Cui et al., SIGMOD 2013, searches
// overlapping communities through k-cliques).
//
// Under the clique-percolation model, two cliques of size ≥ k are adjacent
// when they share at least k−1 vertices; a k-clique community is the union
// of all cliques in one connected component of that adjacency relation. The
// standard implementation (used here) percolates over maximal cliques.
package clique

import (
	"sort"

	"github.com/acq-search/acq/internal/cancel"
	"github.com/acq-search/acq/internal/graph"
)

// MaxCliques bounds enumeration; graphs with more maximal cliques than this
// abort with ok=false rather than running away (Bron–Kerbosch is worst-case
// exponential, though near-linear on sparse social graphs).
const MaxCliques = 200000

// Maximal enumerates the maximal cliques of the subgraph induced by cand
// (each clique sorted). ok is false when the MaxCliques cap was hit; the
// returned prefix is still valid. check (nil when not cancellable) is ticked
// once per Bron–Kerbosch expansion, bounding how long a worst-case
// enumeration can outlive its context.
func Maximal(g graph.View, cand []graph.VertexID, check *cancel.Checker) (cliques [][]graph.VertexID, ok bool) {
	in := map[graph.VertexID]bool{}
	for _, v := range cand {
		check.Tick(1)
		in[v] = true
	}
	neighbors := func(v graph.VertexID) []graph.VertexID {
		check.Tick(1)
		var out []graph.VertexID
		for _, u := range g.Neighbors(v) {
			if in[u] {
				out = append(out, u)
			}
		}
		return out
	}
	ok = true
	var r []graph.VertexID
	var bk func(p, x []graph.VertexID)
	bk = func(p, x []graph.VertexID) {
		check.Tick(1)
		if !ok {
			return
		}
		if len(p) == 0 && len(x) == 0 {
			if len(r) == 0 {
				return // empty input graph, not a clique
			}
			if len(cliques) >= MaxCliques {
				ok = false
				return
			}
			c := append([]graph.VertexID(nil), r...)
			sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
			cliques = append(cliques, c)
			return
		}
		// Pivot: the vertex of P ∪ X with most neighbours in P.
		var pivot graph.VertexID = -1
		best := -1
		for _, set := range [][]graph.VertexID{p, x} {
			for _, u := range set {
				cnt := countIn(g, u, p)
				if cnt > best {
					best, pivot = cnt, u
				}
			}
		}
		pn := map[graph.VertexID]bool{}
		if pivot >= 0 {
			for _, u := range g.Neighbors(pivot) {
				pn[u] = true
			}
		}
		// Iterate over a copy: p and x mutate during the loop.
		for _, v := range append([]graph.VertexID(nil), p...) {
			if pn[v] {
				continue
			}
			nv := neighbors(v)
			r = append(r, v)
			bk(intersect(p, nv), intersect(x, nv))
			r = r[:len(r)-1]
			p = remove(p, v)
			x = append(x, v)
		}
	}
	p := append([]graph.VertexID(nil), cand...)
	bk(p, nil)
	return cliques, ok
}

func countIn(g graph.View, u graph.VertexID, set []graph.VertexID) int {
	cnt := 0
	for _, v := range set {
		if g.HasEdge(u, v) {
			cnt++
		}
	}
	return cnt
}

func intersect(set, sortedOther []graph.VertexID) []graph.VertexID {
	out := make([]graph.VertexID, 0, len(set))
	for _, v := range set {
		i := sort.Search(len(sortedOther), func(i int) bool { return sortedOther[i] >= v })
		if i < len(sortedOther) && sortedOther[i] == v {
			out = append(out, v)
		}
	}
	return out
}

func remove(set []graph.VertexID, v graph.VertexID) []graph.VertexID {
	out := set[:0]
	for _, u := range set {
		if u != v {
			out = append(out, u)
		}
	}
	return out
}

// CommunityOf returns the k-clique-percolation community of q within the
// subgraph induced by cand, over ops's view: the union of all maximal
// cliques of size ≥ k reachable (via ≥ k−1 vertex overlaps) from a clique
// containing q, sorted with ops.SortSet. nil means q is in no clique of size
// ≥ k. ok is false when enumeration hit MaxCliques: that proves nothing
// either way, and the community is then unknown rather than absent. check is
// ticked through enumeration and percolation (nil = uncancellable).
func CommunityOf(ops *graph.SetOps, cand []graph.VertexID, q graph.VertexID, k int, check *cancel.Checker) (comm []graph.VertexID, ok bool) {
	if k < 2 {
		k = 2
	}
	all, ok := Maximal(ops.Graph(), cand, check)
	if !ok {
		return nil, false
	}
	var cliques [][]graph.VertexID
	for _, c := range all {
		if len(c) >= k {
			cliques = append(cliques, c)
		}
	}
	if len(cliques) == 0 {
		return nil, true
	}
	// Percolation BFS from the cliques containing q.
	containsQ := func(c []graph.VertexID) bool {
		i := sort.Search(len(c), func(i int) bool { return c[i] >= q })
		return i < len(c) && c[i] == q
	}
	visited := make([]bool, len(cliques))
	var queue []int
	for i, c := range cliques {
		if containsQ(c) {
			visited[i] = true
			queue = append(queue, i)
		}
	}
	if len(queue) == 0 {
		return nil, true
	}
	for head := 0; head < len(queue); head++ {
		a := queue[head]
		for b := range cliques {
			check.Tick(1)
			if !visited[b] && overlapAtLeast(cliques[a], cliques[b], k-1) {
				visited[b] = true
				queue = append(queue, b)
			}
		}
	}
	// SortSet drops the members that overlapping cliques repeat.
	var out []graph.VertexID
	for _, i := range queue {
		out = append(out, cliques[i]...)
	}
	return ops.SortSet(out), true
}

// overlapAtLeast reports whether two sorted cliques share ≥ want vertices.
func overlapAtLeast(a, b []graph.VertexID, want int) bool {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			if n >= want {
				return true
			}
			i++
			j++
		}
	}
	return n >= want
}
