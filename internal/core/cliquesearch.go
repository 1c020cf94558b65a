package core

import (
	"context"
	"fmt"

	"github.com/acq-search/acq/internal/cancel"
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
// keyword-filtered (k−1)-core (see env.verify). k ≥ 2. A verification whose
// clique enumeration hits clique.MaxCliques proves nothing, so the walk
// cannot be exact: the search then ends with an error wrapping
// cancel.ErrBudget, never with ErrNoKCore. CliqueApprox returns what the
// walk could prove instead.
func CliqueSearch(ctx context.Context, t *Tree, q graph.VertexID, k int, s []graph.KeywordID) (Result, error) {
	res, b, err := walk(ctx, t, q, k, s, DefaultOptions(), Approx{}, cliqueStructure, nil, runToEnd)
	if err == nil && b.BudgetExhausted {
		return Result{}, fmt.Errorf("%w: a clique enumeration passed %d maximal cliques", cancel.ErrBudget, clique.MaxCliques)
	}
	return res, err
}

// cliqueStructure verifies by k-clique percolation.
var cliqueStructure = structure{slack: 1, community: func(e *env, cand []graph.VertexID) ([]graph.VertexID, bool) {
	return clique.CommunityOf(e.ops, cand, e.q, e.k, e.check)
}}
