package bench

import (
	"fmt"
	"time"

	"github.com/acq-search/acq/internal/baseline"
	"github.com/acq-search/acq/internal/core"
	"github.com/acq-search/acq/internal/graph"
	"github.com/acq-search/acq/internal/measure"
)

// ExtTruss compares the structure-cohesiveness measures — the paper's
// k-core against the conclusion's proposed k-truss and k-clique percolation
// — on quality (CMF, CPJ, community size) and query time. This is an
// extension experiment beyond the paper's evaluation (the
// structure-cohesiveness ablation); the expectation is that the stronger
// measures return smaller, denser, at-least-as-cohesive communities at
// higher query cost.
func ExtTruss(ds *Dataset) *Table {
	k := dsK(ds)
	t := &Table{
		ID:     "ext-truss",
		Title:  fmt.Sprintf("k-core vs k-truss vs k-clique cohesiveness (%s, k=%d)", ds.Name, k),
		Header: []string{"measure", "CMF", "CPJ", "avg-size", "ms/query"},
	}
	type variant struct {
		name string
		run  func(q graph.VertexID) (core.Result, error)
	}
	variants := []variant{
		{"k-core (Dec)", func(q graph.VertexID) (core.Result, error) {
			return core.Dec(bgCtx, ds.Tree, q, k, nil, core.DefaultOptions())
		}},
		{"k-truss", func(q graph.VertexID) (core.Result, error) {
			return core.TrussSearch(bgCtx, ds.Tree, q, k, nil)
		}},
		{"k-clique", func(q graph.VertexID) (core.Result, error) {
			return core.CliqueSearch(bgCtx, ds.Tree, q, k, nil)
		}},
	}
	for _, v := range variants {
		var all [][]graph.VertexID
		cmf, size := 0.0, 0.0
		nq := 0
		elapsed := msPer(ds.Queries, func(q graph.VertexID) {
			res, err := v.run(q)
			if err != nil || len(res.Communities) == 0 {
				return
			}
			nq++
			vs := communitiesOf(res)
			cmf += measure.CMF(ds.G, q, vs)
			size += measure.AvgSize(vs)
			all = append(all, vs...)
		})
		if nq == 0 {
			continue
		}
		t.AddRow(v.name,
			f3(cmf/float64(nq)),
			f3(measure.CPJ(ds.G, all, 500)),
			fmt.Sprintf("%.0f", size/float64(nq)),
			ms(elapsed))
	}
	return t
}

// ExtInfluence profiles the influential-community baseline (the paper's
// related work [19]): offline top-r enumeration time and the size/influence
// of the top communities, contrasted with an AC around the top community's
// seed vertex. It illustrates the query-based/offline split the paper draws.
func ExtInfluence(ds *Dataset, r int) *Table {
	k := dsK(ds)
	t := &Table{
		ID:     "ext-influence",
		Title:  fmt.Sprintf("influential communities vs ACQ (%s, k=%d, top-%d)", ds.Name, k, r),
		Header: []string{"rank", "influence", "size", "CMF-of-AC-at-seed", "enum-ms"},
	}
	start := time.Now()
	top := baseline.TopInfluential(ds.G, baseline.DegreeWeights(ds.G), k, r)
	enumMS := float64(time.Since(start).Microseconds()) / 1000
	for i, c := range top {
		seed := c.Vertices[0]
		cmf := "-"
		if res, err := core.Dec(bgCtx, ds.Tree, seed, k, nil, core.DefaultOptions()); err == nil {
			cmf = f3(measure.CMF(ds.G, seed, communitiesOf(res)))
		}
		elapsed := "-"
		if i == 0 {
			elapsed = ms(enumMS)
		}
		t.AddRow(fmt.Sprintf("%d", i+1), fmt.Sprintf("%.0f", c.Influence),
			fmt.Sprintf("%d", len(c.Vertices)), cmf, elapsed)
	}
	return t
}
