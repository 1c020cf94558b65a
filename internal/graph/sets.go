package graph

import (
	"math/bits"
	"slices"

	"github.com/acq-search/acq/internal/cancel"
)

// Marker is an epoch-based membership set over vertices. Resetting it is
// O(1) (the epoch is bumped), which keeps repeated induced-subgraph
// computations allocation-free — the query algorithms in internal/core call
// these primitives thousands of times per query.
type Marker struct {
	epoch uint32
	mark  []uint32
}

// NewMarker returns a marker for graphs with up to n vertices.
func NewMarker(n int) *Marker {
	return &Marker{epoch: 1, mark: make([]uint32, n)}
}

// Reset empties the set.
func (mk *Marker) Reset() {
	mk.epoch++
	if mk.epoch == 0 { // wrapped: clear storage once every 2^32 resets
		for i := range mk.mark {
			mk.mark[i] = 0
		}
		mk.epoch = 1
	}
}

// Grow ensures the marker can hold vertex IDs up to n-1.
func (mk *Marker) Grow(n int) {
	if n > len(mk.mark) {
		mk.mark = append(mk.mark, make([]uint32, n-len(mk.mark))...)
	}
}

// Add inserts v.
func (mk *Marker) Add(v VertexID) { mk.mark[v] = mk.epoch }

// AddAll inserts every vertex of vs.
func (mk *Marker) AddAll(vs []VertexID) {
	for _, v := range vs {
		mk.mark[v] = mk.epoch
	}
}

// Has reports membership of v.
func (mk *Marker) Has(v VertexID) bool { return mk.mark[v] == mk.epoch }

// Remove deletes v.
func (mk *Marker) Remove(v VertexID) { mk.mark[v] = mk.epoch - 1 }

// SetOps bundles the reusable scratch space for induced-subgraph operations
// on a fixed graph view (mutable or frozen). It is not safe for concurrent
// use; create one per goroutine.
type SetOps struct {
	g     View
	in    *Marker
	alive *Marker
	deg   []int32
	queue []VertexID
	// words is SortSet's bitmap, one bit per vertex; every word is zero
	// between calls.
	words []uint64

	// check, when non-nil, is polled (amortised) from every induced-subgraph
	// loop so a canceled context stops evaluation mid-operation. The nil
	// checker makes every poll a no-op, keeping the non-cancellable path hot.
	check *cancel.Checker
}

// NewSetOps returns scratch space sized for g.
func NewSetOps(g View) *SetOps {
	n := g.NumVertices()
	return &SetOps{
		g:     g,
		in:    NewMarker(n),
		alive: NewMarker(n),
		deg:   make([]int32, n),
		queue: make([]VertexID, 0, 256),
		words: make([]uint64, (n+63)/64),
	}
}

// Graph returns the graph view this SetOps operates on.
func (s *SetOps) Graph() View { return s.g }

// SetChecker attaches a cancellation checker: subsequent operations tick it
// once per vertex visited and unwind (see internal/cancel) when the checker's
// context is canceled. A nil checker restores the unchecked fast path.
func (s *SetOps) SetChecker(c *cancel.Checker) { s.check = c }

// ComponentOf returns the connected component containing q in the subgraph
// induced by cand. It returns nil if q ∉ cand. The result is in BFS order.
func (s *SetOps) ComponentOf(cand []VertexID, q VertexID) []VertexID {
	s.in.Reset()
	s.in.AddAll(cand)
	if !s.in.Has(q) {
		return nil
	}
	s.alive.Reset() // reused as "visited"
	s.alive.Add(q)
	comp := make([]VertexID, 0, len(cand))
	comp = append(comp, q)
	for head := 0; head < len(comp); head++ {
		v := comp[head]
		s.check.Tick(1)
		for _, u := range s.g.Neighbors(v) {
			if s.in.Has(u) && !s.alive.Has(u) {
				s.alive.Add(u)
				comp = append(comp, u)
			}
		}
	}
	return comp
}

// ExpandComponentOf returns the connected component containing q in the
// subgraph induced by the vertices satisfying keep, grown by BFS from q
// without materialising that vertex set first. keep is consulted at most
// once per vertex (results are memoised for the duration of the call), so
// the cost is proportional to the component and its boundary rather than to
// the graph. keep(q) is assumed true and not consulted. The result is in
// BFS order, matching ComponentOf over the materialised set.
func (s *SetOps) ExpandComponentOf(q VertexID, keep func(VertexID) bool) []VertexID {
	s.in.Reset() // tested: accepted vertices are enqueued at test time
	s.in.Add(q)
	comp := []VertexID{q}
	for head := 0; head < len(comp); head++ {
		v := comp[head]
		s.check.Tick(1)
		for _, u := range s.g.Neighbors(v) {
			if s.in.Has(u) {
				continue
			}
			s.in.Add(u)
			if keep(u) {
				comp = append(comp, u)
			}
		}
	}
	return comp
}

// Components returns the connected components of the subgraph induced by
// cand, each in BFS order.
func (s *SetOps) Components(cand []VertexID) [][]VertexID {
	s.in.Reset()
	s.in.AddAll(cand)
	s.alive.Reset() // visited
	var comps [][]VertexID
	for _, start := range cand {
		if s.alive.Has(start) {
			continue
		}
		s.alive.Add(start)
		comp := []VertexID{start}
		for head := 0; head < len(comp); head++ {
			v := comp[head]
			s.check.Tick(1)
			for _, u := range s.g.Neighbors(v) {
				if s.in.Has(u) && !s.alive.Has(u) {
					s.alive.Add(u)
					comp = append(comp, u)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// PeelToMinDegree removes vertices of induced degree < k from cand until the
// remainder has minimum degree ≥ k, and returns the surviving vertices (order
// unspecified). This is the Gk[·] refinement step: the k-core of the induced
// subgraph.
func (s *SetOps) PeelToMinDegree(cand []VertexID, k int) []VertexID {
	s.alive.Reset()
	s.alive.AddAll(cand)
	for _, v := range cand {
		s.check.Tick(1)
		d := int32(0)
		for _, u := range s.g.Neighbors(v) {
			if s.alive.Has(u) {
				d++
			}
		}
		s.deg[v] = d
	}
	s.queue = s.queue[:0]
	for _, v := range cand {
		s.check.Tick(1)
		if s.deg[v] < int32(k) {
			s.queue = append(s.queue, v)
			s.alive.Remove(v)
		}
	}
	for head := 0; head < len(s.queue); head++ {
		v := s.queue[head]
		s.check.Tick(1)
		for _, u := range s.g.Neighbors(v) {
			if s.alive.Has(u) {
				s.deg[u]--
				if s.deg[u] < int32(k) {
					s.alive.Remove(u)
					s.queue = append(s.queue, u)
				}
			}
		}
	}
	out := make([]VertexID, 0, len(cand))
	for _, v := range cand {
		s.check.Tick(1)
		if s.alive.Has(v) {
			out = append(out, v)
		}
	}
	return out
}

// InducedEdgeCount returns the number of edges of the subgraph induced by
// cand (each edge counted once).
func (s *SetOps) InducedEdgeCount(cand []VertexID) int {
	s.in.Reset()
	s.in.AddAll(cand)
	total := 0
	for _, v := range cand {
		s.check.Tick(1)
		for _, u := range s.g.Neighbors(v) {
			if s.in.Has(u) {
				total++
			}
		}
	}
	return total / 2
}

// InducedDegrees returns the degree of every vertex of cand inside the
// subgraph induced by cand, parallel to cand.
func (s *SetOps) InducedDegrees(cand []VertexID) []int {
	s.in.Reset()
	s.in.AddAll(cand)
	out := make([]int, len(cand))
	for i, v := range cand {
		s.check.Tick(1)
		d := 0
		for _, u := range s.g.Neighbors(v) {
			if s.in.Has(u) {
				d++
			}
		}
		out[i] = d
	}
	return out
}

// FilterByKeywords returns the subset of cand whose keyword sets contain
// every keyword of set (sorted). The result preserves cand's order.
func (s *SetOps) FilterByKeywords(cand []VertexID, set []KeywordID) []VertexID {
	out := make([]VertexID, 0, len(cand))
	for _, v := range cand {
		s.check.Tick(1)
		if s.g.HasAllKeywords(v, set) {
			out = append(out, v)
		}
	}
	return out
}

// SortSet sorts vs ascending and drops duplicates in place, returning the
// shortened slice. Every ID must be below the view's vertex count. It sets
// one bit per vertex in a bitmap over vs's ID span, then scans the span's
// words in order, emitting their set bits and clearing each word as it goes,
// so the bitmap is zero again on return. A span wider than len(vs)·⌈log₂
// len(vs)⌉ words would cost more to scan than a comparison sort, so such
// sets go to slices.Sort and slices.Compact instead.
//
// SortSet does not tick the checker. It replaces a comparison sort that did
// not tick either, so a query's metered work is what it was, and the
// fallback answers it sorts are assembled outside the walks' budget probes,
// where a budget unwind would turn a partial result into an error.
func (s *SetOps) SortSet(vs []VertexID) []VertexID {
	if len(vs) < 2 {
		return vs
	}
	lo, hi := vs[0], vs[0]
	//acqvet:allow cancelcheck — unmetered like the sort it replaced; see the doc comment
	for _, v := range vs[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	first, last := int(lo>>6), int(hi>>6)
	if last-first+1 > len(vs)*bits.Len(uint(len(vs)-1)) {
		slices.Sort(vs)
		return slices.Compact(vs)
	}
	span := s.words[first : last+1]
	//acqvet:allow cancelcheck — unmetered like the sort it replaced; see the doc comment
	for _, v := range vs {
		span[int(v>>6)-first] |= 1 << (v & 63)
	}
	out := vs[:0]
	for i, w := range span {
		base := VertexID((first + i) << 6)
		for ; w != 0; w &= w - 1 {
			out = append(out, base+VertexID(bits.TrailingZeros64(w)))
		}
		span[i] = 0
	}
	return out
}
