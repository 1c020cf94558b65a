package core

import (
	"context"

	"github.com/acq-search/acq/internal/cancel"
	"github.com/acq-search/acq/internal/graph"
)

// IncS answers an ACQ with the CL-tree using the space-efficient incremental
// strategy (paper Algorithm 2). For every qualified keyword set it tracks
// only the subgraph core number core(Gk[S']) (Definition 4); when two sets
// join into a larger candidate, Lemma 2 shows the new community must live in
// the ĉore of core number max of the parents', so keyword-checking is run
// against an ever-shrinking subtree of the CL-tree.
func IncS(ctx context.Context, t *Tree, q graph.VertexID, k int, s []graph.KeywordID, opt Options) (res Result, err error) {
	check, err := begin(ctx)
	if err != nil {
		return Result{}, err
	}
	defer cancel.Recover(&err)
	s, err = normalizeQuery(t.g, q, k, s)
	if err != nil {
		return Result{}, err
	}
	if int(t.Core[q]) < k {
		return Result{}, ErrNoKCore
	}
	e := t.newEnv(q, k, opt, check)
	defer t.releaseScratch(e.sc)

	type entry struct {
		set  []graph.KeywordID
		core int32 // scope: verify within the ĉore of this core number
	}
	type qualified struct {
		set  []graph.KeywordID
		core int32
		comm []graph.VertexID
	}

	// Verification: keyword-check in the subtree rooted at the c-ĉore of q,
	// then run the Gk[S'] pipeline.
	verify := func(set []graph.KeywordID, c int32) ([]graph.VertexID, int32) {
		root := t.LocateRoot(q, c)
		if root == nil {
			return nil, 0
		}
		cand := t.Candidates(root, set, opt.UseInvertedLists)
		comm := e.communityOf(cand)
		if comm == nil {
			return nil, 0
		}
		return comm, subgraphCore(t.Core, comm)
	}

	pending := make([]entry, 0, len(s))
	for _, w := range s {
		pending = append(pending, entry{set: []graph.KeywordID{w}, core: int32(k)})
	}
	var prev []qualified
	for len(pending) > 0 {
		var cur []qualified
		for _, en := range pending {
			if comm, c := verify(en.set, en.core); comm != nil {
				cur = append(cur, qualified{set: en.set, core: c, comm: comm})
			}
		}
		if len(cur) == 0 {
			break
		}
		prev = cur
		sets := make([][]graph.KeywordID, len(cur))
		for i, qe := range cur {
			sets[i] = qe.set
		}
		pending = pending[:0]
		for _, cand := range geneCand(sets) {
			c := cur[cand.left].core
			if cur[cand.right].core > c {
				c = cur[cand.right].core
			}
			pending = append(pending, entry{set: cand.set, core: c})
		}
	}
	if len(prev) == 0 {
		return fallbackResult(e.ops, t.SubtreeVertices(t.LocateRoot(q, int32(k)))), nil
	}
	res = Result{LabelSize: len(prev[0].set)}
	for _, qe := range prev {
		res.Communities = append(res.Communities, Community{Label: qe.set, Vertices: qe.comm})
	}
	return res, nil
}

// IncT answers an ACQ with the CL-tree using the time-efficient incremental
// strategy (paper Algorithm 3). It keeps the actual community Gk[S'] of every
// qualified set in memory; by Lemma 4, Gk[S1 ∪ S2] ⊆ Gk[S1] ∩ Gk[S2], so a
// joined candidate is verified inside the intersection of its parents'
// communities with no further keyword checking at all.
func IncT(ctx context.Context, t *Tree, q graph.VertexID, k int, s []graph.KeywordID, opt Options) (res Result, err error) {
	check, err := begin(ctx)
	if err != nil {
		return Result{}, err
	}
	defer cancel.Recover(&err)
	s, err = normalizeQuery(t.g, q, k, s)
	if err != nil {
		return Result{}, err
	}
	if int(t.Core[q]) < k {
		return Result{}, ErrNoKCore
	}
	e := t.newEnv(q, k, opt, check)
	defer t.releaseScratch(e.sc)
	kRoot := t.LocateRoot(q, int32(k))

	type qualified struct {
		set  []graph.KeywordID
		comm []graph.VertexID // Gk[S'], sorted
	}

	// Level 1: keyword-check each singleton inside the k-ĉore of q.
	var prev []qualified
	var cur []qualified
	for _, w := range s {
		cand := t.Candidates(kRoot, []graph.KeywordID{w}, opt.UseInvertedLists)
		if comm := e.communityOf(cand); comm != nil {
			cur = append(cur, qualified{set: []graph.KeywordID{w}, comm: comm})
		}
	}
	for len(cur) > 0 {
		prev = cur
		sets := make([][]graph.KeywordID, len(cur))
		for i, qe := range cur {
			sets[i] = qe.set
		}
		joined := geneCand(sets)
		next := cur[:0:0]
		for _, cand := range joined {
			// Lemma 4: no keyword verification needed inside the
			// intersection — every member contains S1 ∪ S2 already.
			scope := graph.IntersectVertices(cur[cand.left].comm, cur[cand.right].comm)
			if comm := e.communityOf(scope); comm != nil {
				next = append(next, qualified{set: cand.set, comm: comm})
			}
		}
		cur = next
	}
	if len(prev) == 0 {
		return fallbackResult(e.ops, t.SubtreeVertices(kRoot)), nil
	}
	res = Result{LabelSize: len(prev[0].set)}
	for _, qe := range prev {
		res.Communities = append(res.Communities, Community{Label: qe.set, Vertices: qe.comm})
	}
	return res, nil
}

// subgraphCore returns the subgraph core number of Definition 4: the minimum
// core number over the members.
func subgraphCore(core []int32, vs []graph.VertexID) int32 {
	if len(vs) == 0 {
		return 0
	}
	minCore := core[vs[0]]
	for _, v := range vs[1:] {
		if core[v] < minCore {
			minCore = core[v]
		}
	}
	return minCore
}
