package main

import (
	"fmt"

	"github.com/acq-search/acq/internal/graph"
)

// answer is the part of a 200 /v1/search body the benchmark reads.
type answer struct {
	Version uint64 `json:"version"`
	Result  struct {
		Communities []struct {
			Label     []string
			MemberIDs []int32
		}
		LabelSize int
		Fallback  bool
	} `json:"result"`
}

func (a *answer) nonEmpty() bool { return len(a.Result.Communities) > 0 }

// validate checks an answer against the paper's Problem 1 on the benchmark's
// own copy of the graph: the query vertex is a member, the members are
// connected, every member has at least k neighbours among the members
// (k−1 for the clique and truss models, whose cohesiveness is not a degree
// bound), and every member carries the whole label. allow, when non-nil,
// widens the graph by what a concurrent writer may have added.
func (in *inputs) validate(q *query, a *answer, allow *allowances) error {
	minDeg := q.K
	if q.Mode == "clique" || q.Mode == "truss" {
		minDeg = q.K - 1
	}
	// Threshold and similar members share only part of the label.
	wholeLabel := q.Mode != "threshold" && q.Mode != "similar"
	for ci, c := range a.Result.Communities {
		if wholeLabel && q.Mode != "fixed" && len(c.Label) != a.Result.LabelSize {
			return fmt.Errorf("community %d: label of %d keywords, label_size %d", ci, len(c.Label), a.Result.LabelSize)
		}
		member := make(map[int32]bool, len(c.MemberIDs))
		for _, v := range c.MemberIDs {
			if v < 0 || int(v) >= in.g.NumVertices() {
				return fmt.Errorf("community %d: member %d out of range", ci, v)
			}
			member[v] = true
		}
		if !member[q.ID] {
			return fmt.Errorf("community %d: query vertex %d is not a member", ci, q.ID)
		}
		neighbours := func(v int32, visit func(int32)) {
			for _, u := range in.g.Neighbors(graph.VertexID(v)) {
				if member[int32(u)] {
					visit(int32(u))
				}
			}
			if allow != nil {
				for _, u := range allow.adj[v] {
					if member[u] {
						visit(u)
					}
				}
			}
		}
		var labelIDs []graph.KeywordID
		if wholeLabel {
			for _, w := range c.Label {
				id, ok := in.g.Dict().Lookup(w)
				if !ok {
					return fmt.Errorf("community %d: label keyword %q is not in the dictionary", ci, w)
				}
				labelIDs = append(labelIDs, id)
			}
		}
		for _, v := range c.MemberIDs {
			deg := 0
			neighbours(v, func(int32) { deg++ })
			if deg < minDeg {
				return fmt.Errorf("community %d: member %d has induced degree %d < %d", ci, v, deg, minDeg)
			}
			for i, id := range labelIDs {
				if in.g.HasKeyword(graph.VertexID(v), id) {
					continue
				}
				if allow != nil {
					if _, ok := allow.kw[kwPair{v, c.Label[i]}]; ok {
						continue
					}
				}
				return fmt.Errorf("community %d: member %d lacks label keyword %q", ci, v, c.Label[i])
			}
		}
		seen := map[int32]bool{q.ID: true}
		queue := []int32{q.ID}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			neighbours(v, func(u int32) {
				if !seen[u] {
					seen[u] = true
					queue = append(queue, u)
				}
			})
		}
		if len(seen) != len(member) {
			return fmt.Errorf("community %d: %d of %d members reachable from the query vertex", ci, len(seen), len(member))
		}
	}
	return nil
}
