package main

import (
	"math/rand"

	acq "github.com/acq-search/acq"
	"github.com/acq-search/acq/internal/graph"
)

// kwPair is one (vertex, keyword) attachment the writer toggles.
type kwPair struct {
	v int32
	w string
}

// allowances is what the writer may have changed when a read was answered:
// every keyword pair it ever adds and every edge it ever inserts. The writer
// only adds what the seed graph lacks and only removes what it added, so the
// served graph always lies between the seed graph and seed + allowances, and
// an answer is checked against that envelope.
type allowances struct {
	kw  map[kwPair]struct{}
	adj map[int32][]int32
}

// writeGen draws the writer's stream. Every op is effective by construction
// (adds are new to the vertex, removals undo a live add), and |W| and |E|
// stay stationary: past kwLiveDepth live additions each add is followed by
// the removal of the oldest, and edge batches alternate three inserts with
// three removals (in threes, so that the traced run can give the same kind of
// batch to every level of one request).
type writeGen struct {
	in    *inputs
	rng   *rand.Rand
	words []string
	live  []kwPair // FIFO of additions not yet removed
	edges [][2]int32
	allow *allowances
}

func newWriteGen(in *inputs, rng *rand.Rand) *writeGen {
	return &writeGen{in: in, rng: rng, words: in.g.Dict().Words(),
		allow: &allowances{kw: map[kwPair]struct{}{}, adj: map[int32][]int32{}}}
}

// generate returns the first n batches of the stream.
func (wg *writeGen) generate(n int) ([]writeBatch, *allowances) {
	out := make([]writeBatch, n)
	for i := range out {
		var muts []acq.Mutation
		if i%edgeEvery == edgeEvery-1 {
			if (i/edgeEvery)%6 < 3 {
				muts = []acq.Mutation{wg.insertEdge()}
			} else {
				e := wg.edges[0]
				wg.edges = wg.edges[1:]
				muts = []acq.Mutation{{Op: acq.OpRemoveEdge, U: e[0], V: e[1]}}
			}
			out[i].edge = true
		} else {
			muts = make([]acq.Mutation, kwBatchOps)
			for j := range muts {
				if j%2 == 1 && len(wg.live) > kwLiveDepth {
					p := wg.live[0]
					wg.live = wg.live[1:]
					muts[j] = acq.Mutation{Op: acq.OpRemoveKeyword, Vertex: p.v, Keyword: p.w}
				} else {
					p := wg.newPair()
					muts[j] = acq.Mutation{Op: acq.OpAddKeyword, Vertex: p.v, Keyword: p.w}
				}
			}
		}
		out[i].muts = muts
		out[i].body = encodeMutations(muts)
	}
	return out, wg.allow
}

// newPair draws a (vertex, word) the seed graph lacks and the stream has not
// used yet, so the add is effective whatever the removals did.
func (wg *writeGen) newPair() kwPair {
	g := wg.in.g
	for {
		p := kwPair{v: int32(wg.rng.Intn(g.NumVertices())), w: wg.words[wg.rng.Intn(len(wg.words))]}
		id, _ := g.Dict().Lookup(p.w)
		if g.HasKeyword(graph.VertexID(p.v), id) {
			continue
		}
		if _, used := wg.allow.kw[p]; used {
			continue
		}
		wg.allow.kw[p] = struct{}{}
		wg.live = append(wg.live, p)
		return p
	}
}

// insertEdge draws a 2-hop pair (u, w): w is a neighbour of a neighbour of u
// and not adjacent to u in the seed graph or the stream so far.
func (wg *writeGen) insertEdge() acq.Mutation {
	g := wg.in.g
	for {
		u := graph.VertexID(wg.rng.Intn(g.NumVertices()))
		if g.Degree(u) == 0 {
			continue
		}
		mid := g.Neighbors(u)[wg.rng.Intn(g.Degree(u))]
		w := g.Neighbors(mid)[wg.rng.Intn(g.Degree(mid))]
		if w == u || g.HasEdge(u, w) || wg.allow.hasEdge(int32(u), int32(w)) {
			continue
		}
		wg.allow.adj[int32(u)] = append(wg.allow.adj[int32(u)], int32(w))
		wg.allow.adj[int32(w)] = append(wg.allow.adj[int32(w)], int32(u))
		wg.edges = append(wg.edges, [2]int32{int32(u), int32(w)})
		return acq.Mutation{Op: acq.OpInsertEdge, U: int32(u), V: int32(w)}
	}
}

func (a *allowances) hasEdge(u, w int32) bool {
	for _, x := range a.adj[u] {
		if x == w {
			return true
		}
	}
	return false
}
