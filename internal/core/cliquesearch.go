package core

import (
	"context"

	"github.com/acq-search/acq/internal/clique"
	"github.com/acq-search/acq/internal/graph"
)

// CliqueSearch answers the attributed community query under k-clique
// percolation cohesiveness, the third structure measure the paper's
// conclusion proposes (after k-core and k-truss): the returned communities
// are unions of overlapping cliques of size ≥ k reachable from q whose
// members all share a maximal subset of S.
//
// Candidate keyword sets are mined from q's neighbourhood with minimum
// support k−1 (a member of a k-clique has k−1 clique neighbours), and
// verified from the largest candidates downward. A k-clique is contained in
// the (k−1)-core, so each candidate is verified on q's component of the
// keyword-filtered (k−1)-core (see scopedWalk). k ≥ 2.
func CliqueSearch(ctx context.Context, t *Tree, q graph.VertexID, k int, s []graph.KeywordID) (Result, error) {
	res, _, err := scopedWalk(ctx, t, q, k, s, Approx{}, runToEnd, clique.CommunityOf)
	return res, err
}
