package kcore

import "github.com/acq-search/acq/internal/graph"

// Maintainer keeps a core-number array consistent with a mutating graph,
// implementing the incremental maintenance sketched in Appendix F of the
// paper (after reference [20]): when edge (u, v) is inserted or removed,
// only vertices with core number c = min(core(u), core(v)) that are
// reachable from the endpoints through vertices of core number exactly c
// (the "purecore") can change, and by at most one.
type Maintainer struct {
	g    graph.Mutable
	core []int32

	seen    *graph.Marker
	evicted *graph.Marker
	cd      []int32
	stack   []graph.VertexID
}

// NewMaintainer wraps g with its current core numbers, core (as Decompose
// returns them). The maintainer takes ownership of core and updates it in
// place.
func NewMaintainer(g graph.Mutable, core []int32) *Maintainer {
	return &Maintainer{
		g:    g,
		core: core,
		seen: graph.NewMarker(g.NumVertices()),
		cd:   make([]int32, g.NumVertices()),
	}
}

// Core returns the maintained core numbers. The slice aliases internal state
// and is only valid until the next mutation.
func (mt *Maintainer) Core() []int32 { return mt.core }

// Graph returns the underlying graph.
func (mt *Maintainer) Graph() graph.Mutable { return mt.g }

// InsertEdge inserts {u, v} into the graph and updates core numbers. It
// returns the vertices whose core number changed (each increased by one),
// or nil when the edge already existed.
func (mt *Maintainer) InsertEdge(u, v graph.VertexID) []graph.VertexID {
	if !mt.g.InsertEdge(u, v) {
		return nil
	}
	root := u
	if mt.core[v] < mt.core[u] {
		root = v
	}
	c := mt.core[root]
	pure := mt.purecore(root, c)
	// cd(w): neighbors that could support w in a (c+1)-core, i.e. neighbors
	// with core > c plus purecore members (all core == c neighbors of a
	// purecore member are themselves in the purecore, by closure).
	for _, w := range pure {
		d := int32(0)
		for _, x := range mt.g.Neighbors(w) {
			if mt.core[x] >= c {
				d++
			}
		}
		mt.cd[w] = d
	}
	// Peel: a vertex with cd ≤ c cannot reach core c+1.
	mt.stack = mt.stack[:0]
	evicted := mt.evictMarker()
	for _, w := range pure {
		if mt.cd[w] <= c {
			mt.stack = append(mt.stack, w)
			evicted.Add(w)
		}
	}
	for head := 0; head < len(mt.stack); head++ {
		w := mt.stack[head]
		for _, x := range mt.g.Neighbors(w) {
			if mt.core[x] == c && mt.seen.Has(x) && !evicted.Has(x) {
				mt.cd[x]--
				if mt.cd[x] <= c {
					evicted.Add(x)
					mt.stack = append(mt.stack, x)
				}
			}
		}
	}
	var changed []graph.VertexID
	for _, w := range pure {
		if !evicted.Has(w) {
			mt.core[w] = c + 1
			changed = append(changed, w)
		}
	}
	return changed
}

// RemoveEdge removes {u, v} from the graph and updates core numbers. It
// returns the vertices whose core number changed (each decreased by one),
// or nil when the edge did not exist.
func (mt *Maintainer) RemoveEdge(u, v graph.VertexID) []graph.VertexID {
	if !mt.g.RemoveEdge(u, v) {
		return nil
	}
	c := mt.core[u]
	if mt.core[v] < c {
		c = mt.core[v]
	}
	// Collect the purecores of both endpoints (post-removal graph).
	mt.seen.Reset()
	var pure []graph.VertexID
	for _, r := range []graph.VertexID{u, v} {
		if mt.core[r] != c || mt.seen.Has(r) {
			continue
		}
		mt.seen.Add(r)
		start := len(pure)
		pure = append(pure, r)
		for head := start; head < len(pure); head++ {
			w := pure[head]
			for _, x := range mt.g.Neighbors(w) {
				if mt.core[x] == c && !mt.seen.Has(x) {
					mt.seen.Add(x)
					pure = append(pure, x)
				}
			}
		}
	}
	if len(pure) == 0 {
		return nil
	}
	for _, w := range pure {
		d := int32(0)
		for _, x := range mt.g.Neighbors(w) {
			if mt.core[x] >= c {
				d++
			}
		}
		mt.cd[w] = d
	}
	mt.stack = mt.stack[:0]
	evicted := mt.evictMarker()
	for _, w := range pure {
		if mt.cd[w] < c {
			mt.stack = append(mt.stack, w)
			evicted.Add(w)
		}
	}
	for head := 0; head < len(mt.stack); head++ {
		w := mt.stack[head]
		for _, x := range mt.g.Neighbors(w) {
			if mt.core[x] == c && mt.seen.Has(x) && !evicted.Has(x) {
				mt.cd[x]--
				if mt.cd[x] < c {
					evicted.Add(x)
					mt.stack = append(mt.stack, x)
				}
			}
		}
	}
	var changed []graph.VertexID
	for _, w := range pure {
		if evicted.Has(w) {
			mt.core[w] = c - 1
			changed = append(changed, w)
		}
	}
	return changed
}

// purecore returns the vertices of core number exactly c reachable from root
// through vertices of core number c, marking them in mt.seen.
func (mt *Maintainer) purecore(root graph.VertexID, c int32) []graph.VertexID {
	mt.seen.Reset()
	if mt.core[root] != c {
		return nil
	}
	mt.seen.Add(root)
	pure := []graph.VertexID{root}
	for head := 0; head < len(pure); head++ {
		w := pure[head]
		for _, x := range mt.g.Neighbors(w) {
			if mt.core[x] == c && !mt.seen.Has(x) {
				mt.seen.Add(x)
				pure = append(pure, x)
			}
		}
	}
	return pure
}

func (mt *Maintainer) evictMarker() *graph.Marker {
	if mt.evicted == nil {
		mt.evicted = graph.NewMarker(mt.g.NumVertices())
	}
	mt.evicted.Grow(mt.g.NumVertices())
	mt.evicted.Reset()
	return mt.evicted
}
