package core

import (
	"context"

	"github.com/acq-search/acq/internal/graph"
	"github.com/acq-search/acq/internal/truss"
)

// TrussSearchD answers the attributed (k,d)-truss community query, after the
// follow-up attribute-driven community search line of work: like TrussSearch
// but every member must additionally be within hop distance d of q measured
// INSIDE the community. Peeling and the distance constraint interact — a far
// vertex's removal can break edge supports — so verification alternates
// truss peeling and distance filtering until a fixpoint. d ≤ 0 means
// unbounded (plain TrussSearch).
func TrussSearchD(ctx context.Context, t *Tree, q graph.VertexID, k, d int, s []graph.KeywordID) (Result, error) {
	res, _, err := walk(ctx, t, q, k, s, DefaultOptions(), Approx{}, trussStructure(d), nil, runToEnd)
	return res, err
}

// trussStructure verifies by truss peeling, alternated with in-community
// distance filtering when d > 0.
func trussStructure(d int) structure {
	return structure{slack: 1, community: func(e *env, cand []graph.VertexID) ([]graph.VertexID, bool) {
		if d > 0 {
			return e.kdTrussFixpoint(cand, d), true
		}
		comm, _ := truss.CommunityOf(e.ops, cand, e.q, e.k, e.check)
		return comm, true
	}}
}

// kdTrussFixpoint alternates truss peeling with in-community distance
// filtering until both constraints hold simultaneously.
func (e *env) kdTrussFixpoint(cand []graph.VertexID, d int) []graph.VertexID {
	cur := cand
	for {
		comm, edges := truss.CommunityOf(e.ops, cur, e.q, e.k, e.check)
		if comm == nil {
			return nil
		}
		near := ballWithin(comm, edges, e.q, d)
		if len(near) == len(comm) {
			return comm
		}
		if len(near) == 0 {
			return nil
		}
		cur = near
	}
}

// ballWithin returns the members of comm within hop distance d of q over the
// given community edges.
func ballWithin(comm []graph.VertexID, edges [][2]graph.VertexID, q graph.VertexID, d int) []graph.VertexID {
	adj := map[graph.VertexID][]graph.VertexID{}
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	dist := map[graph.VertexID]int{q: 0}
	queue := []graph.VertexID{q}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		if dist[v] == d {
			continue
		}
		for _, u := range adj[v] {
			if _, seen := dist[u]; !seen {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	var out []graph.VertexID
	for _, v := range comm {
		if _, ok := dist[v]; ok {
			out = append(out, v)
		}
	}
	return out
}

// TrussSearch answers the attributed community query under k-truss structure
// cohesiveness — the extension named in the paper's conclusion ("we will
// study the use of other measures of structure cohesiveness (e.g., k-truss,
// k-clique)"). The returned communities are connected k-trusses containing q
// (every community edge closes ≥ k−2 triangles inside the community) whose
// members share a maximal subset of S.
//
// The search reuses Dec's strategy: candidate keyword sets are mined from
// q's neighbourhood — a vertex of a k-truss has degree ≥ k−1 inside it, so
// every qualified set must be shared by at least k−1 neighbours of q — and
// verified from the largest candidates down on q's component of the
// keyword-filtered (k−1)-core (a k-truss is contained in the (k−1)-core),
// with truss.CommunityOf instead of the k-core pipeline. k must be ≥ 2.
func TrussSearch(ctx context.Context, t *Tree, q graph.VertexID, k int, s []graph.KeywordID) (Result, error) {
	return TrussSearchD(ctx, t, q, k, 0, s)
}
