package core

import (
	"github.com/acq-search/acq/internal/graph"
	"github.com/acq-search/acq/internal/kcore"
	"github.com/acq-search/acq/internal/para"
	"github.com/acq-search/acq/internal/unionfind"
)

// BuildOptions configures BuildAdvancedOpts.
type BuildOptions struct {
	// Workers bounds the fan-out of the parallelisable build phases: the
	// per-vertex degree scan of the core decomposition and the per-node
	// canonicalisation pass (vertex sorting, keyword inverted lists, lookup
	// tables). 1 forces the fully serial path. Values ≤ 0 resolve to one
	// worker per CPU, falling back to serial below ParallelThreshold so small
	// graphs pay no goroutine overhead. Any value yields a tree identical to
	// the serial build.
	Workers int
}

// ParallelThreshold is the work size (vertices + edges) below which an
// auto-sized build (Workers ≤ 0) stays serial: under ~32k elements the
// goroutine fan-out costs more than the parallel phases save.
const ParallelThreshold = 1 << 15

// resolve maps the option to the worker count actually used for g: explicit
// requests (Workers > 1) are honoured as-is so tests can force parallelism on
// tiny graphs, automatic sizing applies the serial threshold.
func (o BuildOptions) resolve(g graph.View) int {
	if o.Workers == 1 {
		return 1
	}
	if o.Workers <= 0 && g.NumVertices()+g.NumEdges() < ParallelThreshold {
		return 1
	}
	return para.Workers(o.Workers, g.NumVertices())
}

// ResolvedWorkers reports the worker count BuildAdvancedOpts would use for g —
// exposed so callers recording build telemetry (engine /metrics) can report
// the effective fan-out rather than the requested one.
func (o BuildOptions) ResolvedWorkers(g graph.View) int { return o.resolve(g) }

// BuildBasic constructs the CL-tree top-down (paper Algorithm 1): starting
// from the 0-core (whole graph), it repeatedly extracts the connected
// components of the next core level inside each node and recurses. Each
// recursion level recomputes connected components, so the cost is
// O(m·kmax + l̂·n); BuildAdvanced improves on this. Levels at which a
// component has no own vertices produce no node (the compressed tree of
// Section 5.1), so both builders yield identical trees.
func BuildBasic(g graph.View) *Tree {
	t := &Tree{g: g, Core: kcore.Decompose(g), scratch: new(scratchPool)}
	t.KMax = kcore.MaxCore(t.Core)
	ops := graph.NewSetOps(g)

	all := make([]graph.VertexID, g.NumVertices())
	for v := range all {
		all[v] = graph.VertexID(v)
	}
	t.Root = &Node{Core: 0}
	buildDown(t, ops, all, 0, t.Root, true)
	t.finalize()
	return t
}

// buildDown processes one ĉore region: vs holds the vertices of a connected
// component of the induced subgraph on {core ≥ level} (for the root call, the
// whole vertex set). When the region owns vertices at this level a node is
// created (unless asRoot passes the pre-made root); otherwise the level is
// passed through, which compresses away empty chain nodes.
func buildDown(t *Tree, ops *graph.SetOps, vs []graph.VertexID, level int32, parent *Node, asRoot bool) {
	var own, deeper []graph.VertexID
	//acqvet:allow cancelcheck — index construction runs off the query path; builds are not cancellable by design
	for _, v := range vs {
		if t.Core[v] == level {
			own = append(own, v)
		} else {
			deeper = append(deeper, v)
		}
	}
	target := parent
	if asRoot {
		target.Vertices = own
	} else if len(own) > 0 {
		target = &Node{Core: level, Vertices: own, Parent: parent}
		parent.Children = append(parent.Children, target)
	}
	if len(deeper) == 0 {
		return
	}
	// One core level at a time, exactly as Algorithm 1's BUILDNODE, which is
	// what gives the basic method its O(m·kmax) behaviour.
	for _, comp := range ops.Components(deeper) {
		buildDown(t, ops, comp, level+1, target, false)
	}
}

// BuildAdvanced constructs the CL-tree bottom-up in O(m·α(n) + l̂·n) time
// (paper Algorithm 9). Vertices are processed level by level from kmax down
// to 0; an Anchored Union-Find forest maintains the connected chunks of the
// already-processed (deeper) region, and each chunk's anchor — its member
// with the smallest core number — identifies the CL-tree node that is the
// chunk's subtree root, which is how parent/child tree edges are created
// without revisiting the deeper levels.
func BuildAdvanced(g graph.View) *Tree {
	return BuildAdvancedOpts(g, BuildOptions{Workers: 1})
}

// BuildAdvancedOpts is BuildAdvanced with the embarrassingly parallel phases —
// the degree scan feeding the core decomposition, and the per-node keyword
// map / inverted-list construction plus canonicalisation — fanned out over
// o.Workers goroutines. The level-by-level anchored-union-find skeleton pass
// stays serial (each level consumes the union-find state of the deeper
// levels), but it is the cheap O(m·α(n)) part; the parallel phases carry the
// allocation-heavy work. The resulting tree is identical to the serial build:
// same shape, same canonical ordering, same inverted lists.
func BuildAdvancedOpts(g graph.View, o BuildOptions) *Tree {
	workers := o.resolve(g)
	t := &Tree{g: g, Core: kcore.DecomposeWorkers(g, workers), scratch: new(scratchPool)}
	t.KMax = kcore.MaxCore(t.Core)
	buildAdvancedSkeleton(t, g)
	t.finalizeWorkers(workers)
	return t
}

// buildAdvancedSkeleton runs Algorithm 9's bottom-up pass: it wires up the
// node structure (own vertices, parent/child links) for t, leaving the
// canonicalisation (sorting, inverted lists, lookup tables) to finalize.
func buildAdvancedSkeleton(t *Tree, g graph.View) {
	n := g.NumVertices()

	// Group vertices by core number.
	levels := make([][]graph.VertexID, t.KMax+1)
	for v := 0; v < n; v++ {
		c := t.Core[v]
		levels[c] = append(levels[c], graph.VertexID(v))
	}

	auf := unionfind.NewAUF(n, t.Core)
	nodeOf := make([]*Node, n)

	// Scratch union-find over the members of one level: level vertices plus
	// the AUF roots of adjacent deeper chunks. Array-based with an explicit
	// touched list so per-level reset is O(level size), keeping the whole
	// build at O(m·α(n)).
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = -1
	}
	touched := make([]int32, 0, 256)
	find := func(x int32) int32 {
		if parent[x] < 0 {
			parent[x] = x
			touched = append(touched, x)
			return x
		}
		root := x
		for parent[root] != root {
			root = parent[root]
		}
		for parent[x] != root {
			parent[x], x = root, parent[x]
		}
		return root
	}
	union := func(x, y int32) {
		rx, ry := find(x), find(y)
		if rx != ry {
			parent[rx] = ry
		}
	}

	groups := map[int32][]int32{}
	for k := t.KMax; k >= 1; k-- {
		vk := levels[k]
		if len(vk) == 0 {
			continue
		}
		for _, x := range touched {
			parent[x] = -1
		}
		touched = touched[:0]
		for _, v := range vk {
			find(int32(v))
			for _, u := range g.Neighbors(v) {
				switch {
				case t.Core[u] == k:
					union(int32(v), int32(u))
				case t.Core[u] > k:
					union(int32(v), auf.Find(int32(u)))
				}
			}
		}
		// Gather groups: group root -> member keys.
		clear(groups)
		for _, key := range touched {
			r := find(key)
			groups[r] = append(groups[r], key)
		}
		for _, keys := range groups {
			var own []graph.VertexID
			var blobs []int32
			for _, key := range keys {
				if t.Core[key] == k {
					own = append(own, graph.VertexID(key))
				} else {
					blobs = append(blobs, key)
				}
			}
			if len(own) == 0 {
				// A group of pure deeper-chunk representatives can only arise
				// from map iteration of stale keys; with keys seeded from vk
				// it cannot happen, but guard anyway.
				continue
			}
			node := &Node{Core: k, Vertices: own}
			seenChild := map[*Node]bool{}
			for _, b := range blobs {
				child := nodeOf[auf.Anchor(b)]
				if child != nil && !seenChild[child] {
					seenChild[child] = true
					child.Parent = node
					node.Children = append(node.Children, child)
				}
			}
			for _, v := range own {
				nodeOf[v] = node
			}
			// Merge the group into one AUF chunk; Union keeps the minimum-
			// core anchor, which is one of the own vertices (core k).
			for i := 1; i < len(keys); i++ {
				auf.Union(keys[0], keys[i])
			}
			auf.UpdateAnchor(keys[0], int32(own[0]))
		}
	}

	// Root: the 0-core is the whole graph; its children are the remaining
	// top-level chunks.
	root := &Node{Core: 0, Vertices: levels[0]}
	seenRoot := map[int32]bool{}
	for v := 0; v < n; v++ {
		if t.Core[v] == 0 {
			continue
		}
		r := auf.Find(int32(v))
		if seenRoot[r] {
			continue
		}
		seenRoot[r] = true
		child := nodeOf[auf.Anchor(r)]
		child.Parent = root
		root.Children = append(root.Children, child)
	}
	t.Root = root
}
