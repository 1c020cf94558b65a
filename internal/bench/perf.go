package bench

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/acq-search/acq/internal/baseline"
	"github.com/acq-search/acq/internal/core"
	"github.com/acq-search/acq/internal/datagen"
	"github.com/acq-search/acq/internal/fpm"
	"github.com/acq-search/acq/internal/graph"
)

// Fig13 reproduces Figure 13: CL-tree construction time for the basic and
// advanced methods over growing induced subgraphs (20%..100% of vertices).
// The "-" variants time the tree build alone, without keyword inverted
// lists, matching the paper's Basic-/Advanced- curves.
func Fig13(ds *Dataset, fracs []float64) *Table {
	t := &Table{
		ID:     "fig13",
		Title:  fmt.Sprintf("index construction time, ms (%s)", ds.Name),
		Header: []string{"vertices%", "basic", "basic-", "advanced", "advanced-"},
	}
	for _, frac := range fracs {
		sub := graph.Induced(ds.G, graph.SampleVertices(ds.G, frac, 11))
		bare := sub.StripKeywords()
		timeIt := func(fn func()) string {
			start := time.Now()
			fn()
			return ms(float64(time.Since(start).Microseconds()) / 1000)
		}
		t.AddRow(fmt.Sprintf("%.0f%%", frac*100),
			timeIt(func() { core.BuildBasic(sub) }),
			timeIt(func() { core.BuildBasic(bare) }),
			timeIt(func() { core.BuildAdvanced(sub) }),
			timeIt(func() { core.BuildAdvanced(bare) }),
		)
	}
	return t
}

// queriesWithCore filters the workload to vertices whose core number
// supports degree bound k.
func queriesWithCore(ds *Dataset, k int) []graph.VertexID {
	var out []graph.VertexID
	for _, q := range ds.Queries {
		if int(ds.Tree.Core[q]) >= k {
			out = append(out, q)
		}
	}
	return out
}

// ksFor returns the paper's k sweep (4..8) clamped to values the workload
// can answer.
func ksFor(ds *Dataset) []int {
	var ks []int
	for _, k := range []int{4, 5, 6, 7, 8} {
		if k <= int(ds.Tree.KMax) {
			ks = append(ks, k)
		}
	}
	if len(ks) == 0 {
		ks = []int{int(ds.MinCore)}
	}
	return ks
}

// Fig14QueryVsCS reproduces Figure 14(a–d): Dec versus the community-search
// baselines Global and Local across k.
func Fig14QueryVsCS(ds *Dataset) *Table {
	t := &Table{
		ID:     "fig14a-d",
		Title:  fmt.Sprintf("query time vs community search, ms (%s)", ds.Name),
		Header: []string{"k", "Global", "Local", "Dec"},
	}
	ops := graph.NewSetOps(ds.G)
	for _, k := range ksFor(ds) {
		qs := queriesWithCore(ds, k)
		if len(qs) == 0 {
			continue
		}
		t.AddRow(fmt.Sprintf("%d", k),
			ms(msPer(qs, func(q graph.VertexID) { baseline.Global(ops, q, k) })),
			ms(msPer(qs, func(q graph.VertexID) { baseline.Local(ops, q, k) })),
			ms(msPer(qs, func(q graph.VertexID) { core.Dec(bgCtx, ds.Tree, q, k, nil, core.DefaultOptions()) })),
		)
	}
	return t
}

// Fig14EffectK reproduces Figure 14(e–h): all five ACQ algorithms across k.
func Fig14EffectK(ds *Dataset, withBasic bool) *Table {
	t := &Table{
		ID:     "fig14e-h",
		Title:  fmt.Sprintf("ACQ query time by algorithm, ms (%s)", ds.Name),
		Header: []string{"k", "basic-g", "basic-w", "Inc-S", "Inc-T", "Dec"},
	}
	opt := core.DefaultOptions()
	for _, k := range ksFor(ds) {
		qs := queriesWithCore(ds, k)
		if len(qs) == 0 {
			continue
		}
		// The index-free baselines are orders of magnitude slower; cap their
		// sample so the sweep stays tractable, exactly as one would when
		// reproducing a log-scale plot.
		qsBasic := qs
		if len(qsBasic) > 10 {
			qsBasic = qsBasic[:10]
		}
		bg, bw := "-", "-"
		if withBasic {
			bg = ms(msPer(qsBasic, func(q graph.VertexID) { core.BasicG(bgCtx, ds.G, q, k, nil, opt) }))
			bw = ms(msPer(qsBasic, func(q graph.VertexID) { core.BasicW(bgCtx, ds.G, q, k, nil, opt) }))
		}
		t.AddRow(fmt.Sprintf("%d", k), bg, bw,
			ms(msPer(qs, func(q graph.VertexID) { core.IncS(bgCtx, ds.Tree, q, k, nil, opt) })),
			ms(msPer(qs, func(q graph.VertexID) { core.IncT(bgCtx, ds.Tree, q, k, nil, opt) })),
			ms(msPer(qs, func(q graph.VertexID) { core.Dec(bgCtx, ds.Tree, q, k, nil, opt) })),
		)
	}
	return t
}

// Fig14KeywordScale reproduces Figure 14(i–l): indexed algorithms over
// graphs whose vertices keep 20%..100% of their keywords.
func Fig14KeywordScale(ds *Dataset, fracs []float64) *Table {
	t := &Table{
		ID:     "fig14i-l",
		Title:  fmt.Sprintf("keyword scalability, ms (%s, k=%d)", ds.Name, dsK(ds)),
		Header: []string{"keywords%", "Inc-S", "Inc-T", "Dec"},
	}
	k := dsK(ds)
	opt := core.DefaultOptions()
	for _, frac := range fracs {
		g := graph.WithKeywordFraction(ds.G, frac, 13)
		tree := core.BuildAdvanced(g)
		qs := ds.Queries
		t.AddRow(fmt.Sprintf("%.0f%%", frac*100),
			ms(msPer(qs, func(q graph.VertexID) { core.IncS(bgCtx, tree, q, k, nil, opt) })),
			ms(msPer(qs, func(q graph.VertexID) { core.IncT(bgCtx, tree, q, k, nil, opt) })),
			ms(msPer(qs, func(q graph.VertexID) { core.Dec(bgCtx, tree, q, k, nil, opt) })),
		)
	}
	return t
}

// Fig14VertexScale reproduces Figure 14(m–p): indexed algorithms over
// induced subgraphs of 20%..100% of the vertices.
func Fig14VertexScale(ds *Dataset, fracs []float64, cfg Config) *Table {
	t := &Table{
		ID:     "fig14m-p",
		Title:  fmt.Sprintf("vertex scalability, ms (%s, k=%d)", ds.Name, dsK(ds)),
		Header: []string{"vertices%", "Inc-S", "Inc-T", "Dec"},
	}
	k := dsK(ds)
	opt := core.DefaultOptions()
	for _, frac := range fracs {
		g := graph.Induced(ds.G, graph.SampleVertices(ds.G, frac, 17))
		tree := core.BuildAdvanced(g)
		qs := datagen.QueryVertices(tree.Core, int32(k), cfg.Queries, cfg.Seed)
		if len(qs) == 0 {
			continue
		}
		t.AddRow(fmt.Sprintf("%.0f%%", frac*100),
			ms(msPer(qs, func(q graph.VertexID) { core.IncS(bgCtx, tree, q, k, nil, opt) })),
			ms(msPer(qs, func(q graph.VertexID) { core.IncT(bgCtx, tree, q, k, nil, opt) })),
			ms(msPer(qs, func(q graph.VertexID) { core.Dec(bgCtx, tree, q, k, nil, opt) })),
		)
	}
	return t
}

// randomS draws a deterministic random size-|S| subset of W(q).
func randomS(g *graph.Graph, q graph.VertexID, size int, rng *rand.Rand) []graph.KeywordID {
	wq := g.Keywords(q)
	if size > len(wq) {
		size = len(wq)
	}
	perm := rng.Perm(len(wq))
	s := make([]graph.KeywordID, size)
	for i := 0; i < size; i++ {
		s[i] = wq[perm[i]]
	}
	return graph.SortKeywordSet(s)
}

// Fig14EffectS reproduces Figure 14(q–t): Dec versus the index-free
// baselines as the query keyword set S grows (|S| ∈ {1,3,5,7,9}).
func Fig14EffectS(ds *Dataset, withBasic bool) *Table {
	k := dsK(ds)
	t := &Table{
		ID:     "fig14q-t",
		Title:  fmt.Sprintf("effect of |S|, ms (%s, k=%d)", ds.Name, k),
		Header: []string{"|S|", "basic-g", "basic-w", "Dec"},
	}
	opt := core.DefaultOptions()
	for _, size := range []int{1, 3, 5, 7, 9} {
		rng := rand.New(rand.NewSource(int64(size)))
		sOf := map[graph.VertexID][]graph.KeywordID{}
		for _, q := range ds.Queries {
			sOf[q] = randomS(ds.G, q, size, rng)
		}
		qsBasic := ds.Queries
		if len(qsBasic) > 10 {
			qsBasic = qsBasic[:10]
		}
		bg, bw := "-", "-"
		if withBasic {
			bg = ms(msPer(qsBasic, func(q graph.VertexID) { core.BasicG(bgCtx, ds.G, q, k, sOf[q], opt) }))
			bw = ms(msPer(qsBasic, func(q graph.VertexID) { core.BasicW(bgCtx, ds.G, q, k, sOf[q], opt) }))
		}
		t.AddRow(fmt.Sprintf("%d", size), bg, bw,
			ms(msPer(ds.Queries, func(q graph.VertexID) { core.Dec(bgCtx, ds.Tree, q, k, sOf[q], opt) })),
		)
	}
	return t
}

// Fig15 reproduces Figure 15: the inverted-list ablation — Inc-S/Inc-T with
// per-node inverted lists versus Inc-S*/Inc-T* scanning keyword sets.
func Fig15(ds *Dataset) *Table {
	t := &Table{
		ID:     "fig15",
		Title:  fmt.Sprintf("effect of invertedList, ms (%s)", ds.Name),
		Header: []string{"k", "Inc-S", "Inc-T", "Inc-S*", "Inc-T*"},
	}
	opt := core.DefaultOptions()
	starOpt := opt
	starOpt.UseInvertedLists = false
	for _, k := range ksFor(ds) {
		qs := queriesWithCore(ds, k)
		if len(qs) == 0 {
			continue
		}
		t.AddRow(fmt.Sprintf("%d", k),
			ms(msPer(qs, func(q graph.VertexID) { core.IncS(bgCtx, ds.Tree, q, k, nil, opt) })),
			ms(msPer(qs, func(q graph.VertexID) { core.IncT(bgCtx, ds.Tree, q, k, nil, opt) })),
			ms(msPer(qs, func(q graph.VertexID) { core.IncS(bgCtx, ds.Tree, q, k, nil, starOpt) })),
			ms(msPer(qs, func(q graph.VertexID) { core.IncT(bgCtx, ds.Tree, q, k, nil, starOpt) })),
		)
	}
	return t
}

// Fig16 reproduces Figure 16: Dec versus Local on non-attributed graphs
// (keywords stripped), where ACQ degrades to pure core-locating.
func Fig16(ds *Dataset) *Table {
	t := &Table{
		ID:     "fig16",
		Title:  fmt.Sprintf("non-attributed graphs, ms (%s)", ds.Name),
		Header: []string{"k", "Local", "Dec"},
	}
	bare := ds.G.StripKeywords()
	tree := core.BuildAdvanced(bare)
	ops := graph.NewSetOps(bare)
	for _, k := range ksFor(ds) {
		qs := queriesWithCore(ds, k)
		if len(qs) == 0 {
			continue
		}
		t.AddRow(fmt.Sprintf("%d", k),
			ms(msPer(qs, func(q graph.VertexID) { baseline.Local(ops, q, k) })),
			ms(msPer(qs, func(q graph.VertexID) { core.Dec(bgCtx, tree, q, k, nil, core.DefaultOptions()) })),
		)
	}
	return t
}

// Fig17Variant1 reproduces Figure 17(a–d): Variant 1 (fixed keyword set)
// query time for SW versus the index-free variants, as |S| grows.
func Fig17Variant1(ds *Dataset, withBasic bool) *Table {
	k := dsK(ds)
	t := &Table{
		ID:     "fig17a-d",
		Title:  fmt.Sprintf("Variant 1: effect of |S|, ms (%s, k=%d)", ds.Name, k),
		Header: []string{"|S|", "basic-g-v1", "basic-w-v1", "SW"},
	}
	for _, size := range []int{1, 3, 5, 7, 9} {
		rng := rand.New(rand.NewSource(int64(100 + size)))
		sOf := map[graph.VertexID][]graph.KeywordID{}
		for _, q := range ds.Queries {
			sOf[q] = randomS(ds.G, q, size, rng)
		}
		qsBasic := ds.Queries
		if len(qsBasic) > 10 {
			qsBasic = qsBasic[:10]
		}
		bg, bw := "-", "-"
		if withBasic {
			bg = ms(msPer(qsBasic, func(q graph.VertexID) { core.BasicGV1(bgCtx, ds.G, q, k, sOf[q]) }))
			bw = ms(msPer(qsBasic, func(q graph.VertexID) { core.BasicWV1(bgCtx, ds.G, q, k, sOf[q]) }))
		}
		t.AddRow(fmt.Sprintf("%d", size), bg, bw,
			ms(msPer(ds.Queries, func(q graph.VertexID) { core.SW(bgCtx, ds.Tree, q, k, sOf[q]) })),
		)
	}
	return t
}

// Fig17Variant2 reproduces Figure 17(e–h): Variant 2 (θ-threshold) query
// time for SWT versus the index-free variants, as θ grows.
func Fig17Variant2(ds *Dataset, withBasic bool) *Table {
	k := dsK(ds)
	t := &Table{
		ID:     "fig17e-h",
		Title:  fmt.Sprintf("Variant 2: effect of θ, ms (%s, k=%d, |S|=10)", ds.Name, k),
		Header: []string{"θ", "basic-g-v2", "basic-w-v2", "SWT"},
	}
	rng := rand.New(rand.NewSource(200))
	sOf := map[graph.VertexID][]graph.KeywordID{}
	for _, q := range ds.Queries {
		sOf[q] = randomS(ds.G, q, 10, rng)
	}
	for _, theta := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		qsBasic := ds.Queries
		if len(qsBasic) > 10 {
			qsBasic = qsBasic[:10]
		}
		bg, bw := "-", "-"
		if withBasic {
			bg = ms(msPer(qsBasic, func(q graph.VertexID) { core.BasicGV2(bgCtx, ds.G, q, k, sOf[q], theta) }))
			bw = ms(msPer(qsBasic, func(q graph.VertexID) { core.BasicWV2(bgCtx, ds.G, q, k, sOf[q], theta) }))
		}
		t.AddRow(fmt.Sprintf("%.1f", theta), bg, bw,
			ms(msPer(ds.Queries, func(q graph.VertexID) { core.SWT(bgCtx, ds.Tree, q, k, sOf[q], theta) })),
		)
	}
	return t
}

// AblationFPM compares Dec's candidate miners: FP-Growth (paper's choice)
// versus Apriori.
func AblationFPM(ds *Dataset) *Table {
	t := &Table{
		ID:     "ablation-fpm",
		Title:  fmt.Sprintf("Dec candidate mining: FP-Growth vs Apriori, ms (%s)", ds.Name),
		Header: []string{"k", "Dec(FP-Growth)", "Dec(Apriori)"},
	}
	opt := core.DefaultOptions()
	for _, k := range ksFor(ds) {
		qs := queriesWithCore(ds, k)
		if len(qs) == 0 {
			continue
		}
		t.AddRow(fmt.Sprintf("%d", k),
			ms(msPer(qs, func(q graph.VertexID) { core.DecWithMiner(bgCtx, ds.Tree, q, k, nil, opt, fpm.FPGrowth) })),
			ms(msPer(qs, func(q graph.VertexID) { core.DecWithMiner(bgCtx, ds.Tree, q, k, nil, opt, fpm.Apriori) })),
		)
	}
	return t
}

// AblationLemma3 measures the effect of the Lemma 3 edge-count prune.
func AblationLemma3(ds *Dataset) *Table {
	t := &Table{
		ID:     "ablation-lemma3",
		Title:  fmt.Sprintf("Lemma 3 prune on/off, ms (%s)", ds.Name),
		Header: []string{"k", "Dec(prune)", "Dec(no-prune)", "Inc-T(prune)", "Inc-T(no-prune)"},
	}
	on := core.DefaultOptions()
	off := on
	off.UseLemma3 = false
	for _, k := range ksFor(ds) {
		qs := queriesWithCore(ds, k)
		if len(qs) == 0 {
			continue
		}
		t.AddRow(fmt.Sprintf("%d", k),
			ms(msPer(qs, func(q graph.VertexID) { core.Dec(bgCtx, ds.Tree, q, k, nil, on) })),
			ms(msPer(qs, func(q graph.VertexID) { core.Dec(bgCtx, ds.Tree, q, k, nil, off) })),
			ms(msPer(qs, func(q graph.VertexID) { core.IncT(bgCtx, ds.Tree, q, k, nil, on) })),
			ms(msPer(qs, func(q graph.VertexID) { core.IncT(bgCtx, ds.Tree, q, k, nil, off) })),
		)
	}
	return t
}

// AblationMaintenance compares incremental index maintenance against a full
// rebuild for a batch of edge updates (Appendix F's motivation).
func AblationMaintenance(ds *Dataset, edits int) *Table {
	t := &Table{
		ID:     "ablation-maint",
		Title:  fmt.Sprintf("index maintenance vs rebuild (%s, %d random edge flips)", ds.Name, edits),
		Header: []string{"strategy", "total-ms", "ms/edit"},
	}
	rng := rand.New(rand.NewSource(23))
	n := ds.G.NumVertices()
	type edit struct{ u, v graph.VertexID }
	var edits1 []edit
	for i := 0; i < edits; i++ {
		edits1 = append(edits1, edit{graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))})
	}
	flip := func(g *graph.Graph, m *core.Maintainer, e edit, rebuild bool) {
		if g.HasEdge(e.u, e.v) {
			if m != nil {
				m.RemoveEdge(e.u, e.v)
			} else {
				//acqvet:allow viewpurity — the bench driver owns this private mutable graph; it is never a served view
				g.RemoveEdge(e.u, e.v)
			}
		} else {
			if m != nil {
				m.InsertEdge(e.u, e.v)
			} else {
				//acqvet:allow viewpurity — the bench driver owns this private mutable graph; it is never a served view
				g.InsertEdge(e.u, e.v)
			}
		}
		if rebuild {
			core.BuildAdvanced(g)
		}
	}

	inc := ds.G.Clone()
	incTree := core.BuildAdvanced(inc)
	m := core.NewMaintainer(incTree)
	start := time.Now()
	for _, e := range edits1 {
		flip(inc, m, e, false)
	}
	incMS := float64(time.Since(start).Microseconds()) / 1000
	t.AddRow("incremental", ms(incMS), ms(incMS/float64(edits)))

	reb := ds.G.Clone()
	start = time.Now()
	for _, e := range edits1 {
		flip(reb, nil, e, true)
	}
	rebMS := float64(time.Since(start).Microseconds()) / 1000
	t.AddRow("rebuild", ms(rebMS), ms(rebMS/float64(edits)))
	return t
}
