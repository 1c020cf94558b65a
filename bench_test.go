// Benchmarks mapping one-to-one onto the paper's tables and figures (see
// EXPERIMENTS.md). Each figure-level benchmark executes the corresponding
// internal/bench driver; per-operation benchmarks at the end give ns/op for
// the individual algorithms.
//
// Scale knobs (environment):
//
//	ACQ_BENCH_SCALE    dataset scale factor (default 0.1; paper-shape runs
//	                   use 1.0 via cmd/acqbench)
//	ACQ_BENCH_QUERIES  query vertices per dataset (default 10)
package acq_test

import (
	"os"
	"strconv"
	"sync"
	"testing"

	acq "github.com/acq-search/acq"
	"github.com/acq-search/acq/internal/baseline"
	"github.com/acq-search/acq/internal/bench"
	"github.com/acq-search/acq/internal/core"
	"github.com/acq-search/acq/internal/graph"
)

func benchConfig() bench.Config {
	cfg := bench.DefaultConfig()
	cfg.Scale = 0.1
	cfg.Queries = 10
	if s := os.Getenv("ACQ_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil {
			cfg.Scale = v
		}
	}
	if s := os.Getenv("ACQ_BENCH_QUERIES"); s != "" {
		if v, err := strconv.Atoi(s); err == nil {
			cfg.Queries = v
		}
	}
	return cfg
}

var (
	dsMu    sync.Mutex
	dsCache = map[string]*bench.Dataset{}
)

func dataset(b *testing.B, name string) *bench.Dataset {
	b.Helper()
	dsMu.Lock()
	defer dsMu.Unlock()
	if ds, ok := dsCache[name]; ok {
		return ds
	}
	ds, err := bench.LoadDataset(name, benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	dsCache[name] = ds
	return ds
}

func perDataset(b *testing.B, run func(b *testing.B, ds *bench.Dataset)) {
	for _, name := range bench.DatasetNames() {
		b.Run(name, func(b *testing.B) {
			ds := dataset(b, name)
			b.ResetTimer()
			run(b, ds)
		})
	}
}

// BenchmarkTable3Stats regenerates Table 3 (dataset statistics).
func BenchmarkTable3Stats(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table3(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7LabelLength regenerates Figure 7 (CMF/CPJ vs AC-label length).
func BenchmarkFig7LabelLength(b *testing.B) {
	perDataset(b, func(b *testing.B, ds *bench.Dataset) {
		for i := 0; i < b.N; i++ {
			bench.Fig7(ds)
		}
	})
}

// BenchmarkFig8VsCD regenerates Figure 8 (ACQ vs CODICIL).
func BenchmarkFig8VsCD(b *testing.B) {
	perDataset(b, func(b *testing.B, ds *bench.Dataset) {
		for i := 0; i < b.N; i++ {
			bench.Fig8(ds)
		}
	})
}

// BenchmarkFig9VsCS regenerates Figure 9 (ACQ vs Global/Local quality).
func BenchmarkFig9VsCS(b *testing.B) {
	perDataset(b, func(b *testing.B, ds *bench.Dataset) {
		for i := 0; i < b.N; i++ {
			bench.Fig9(ds)
		}
	})
}

// BenchmarkFig11MF regenerates Figure 11 and Tables 5/6 (keyword MF).
func BenchmarkFig11MF(b *testing.B) {
	perDataset(b, func(b *testing.B, ds *bench.Dataset) {
		for i := 0; i < b.N; i++ {
			bench.Fig11(ds)
			bench.Tables56(ds)
		}
	})
}

// BenchmarkTable4Distinct regenerates Table 4 (distinct community keywords).
func BenchmarkTable4Distinct(b *testing.B) {
	perDataset(b, func(b *testing.B, ds *bench.Dataset) {
		for i := 0; i < b.N; i++ {
			bench.Table4(ds)
		}
	})
}

// BenchmarkFig12Size regenerates Figure 12 (community size vs k).
func BenchmarkFig12Size(b *testing.B) {
	perDataset(b, func(b *testing.B, ds *bench.Dataset) {
		for i := 0; i < b.N; i++ {
			bench.Fig12(ds, []int{4, 5, 6, 7, 8})
		}
	})
}

// BenchmarkTable7GPM regenerates Table 7 (star-pattern GPM hit rate).
func BenchmarkTable7GPM(b *testing.B) {
	perDataset(b, func(b *testing.B, ds *bench.Dataset) {
		for i := 0; i < b.N; i++ {
			bench.Table7(ds)
		}
	})
}

// BenchmarkFig13Index regenerates Figure 13 (index construction scalability).
func BenchmarkFig13Index(b *testing.B) {
	perDataset(b, func(b *testing.B, ds *bench.Dataset) {
		for i := 0; i < b.N; i++ {
			bench.Fig13(ds, []float64{0.2, 0.4, 0.6, 0.8, 1.0})
		}
	})
}

// BenchmarkFig14QueryVsCS regenerates Figure 14(a–d) (Dec vs Global/Local).
func BenchmarkFig14QueryVsCS(b *testing.B) {
	perDataset(b, func(b *testing.B, ds *bench.Dataset) {
		for i := 0; i < b.N; i++ {
			bench.Fig14QueryVsCS(ds)
		}
	})
}

// BenchmarkFig14EffectK regenerates Figure 14(e–h) (all five algorithms).
func BenchmarkFig14EffectK(b *testing.B) {
	perDataset(b, func(b *testing.B, ds *bench.Dataset) {
		for i := 0; i < b.N; i++ {
			bench.Fig14EffectK(ds, true)
		}
	})
}

// BenchmarkFig14KeywordScale regenerates Figure 14(i–l).
func BenchmarkFig14KeywordScale(b *testing.B) {
	perDataset(b, func(b *testing.B, ds *bench.Dataset) {
		for i := 0; i < b.N; i++ {
			bench.Fig14KeywordScale(ds, []float64{0.2, 0.4, 0.6, 0.8, 1.0})
		}
	})
}

// BenchmarkFig14VertexScale regenerates Figure 14(m–p).
func BenchmarkFig14VertexScale(b *testing.B) {
	cfg := benchConfig()
	perDataset(b, func(b *testing.B, ds *bench.Dataset) {
		for i := 0; i < b.N; i++ {
			bench.Fig14VertexScale(ds, []float64{0.2, 0.4, 0.6, 0.8, 1.0}, cfg)
		}
	})
}

// BenchmarkFig14EffectS regenerates Figure 14(q–t) (effect of |S|).
func BenchmarkFig14EffectS(b *testing.B) {
	perDataset(b, func(b *testing.B, ds *bench.Dataset) {
		for i := 0; i < b.N; i++ {
			bench.Fig14EffectS(ds, true)
		}
	})
}

// BenchmarkFig15InvList regenerates Figure 15 (inverted-list ablation).
func BenchmarkFig15InvList(b *testing.B) {
	perDataset(b, func(b *testing.B, ds *bench.Dataset) {
		for i := 0; i < b.N; i++ {
			bench.Fig15(ds)
		}
	})
}

// BenchmarkFig16NonAttr regenerates Figure 16 (non-attributed graphs).
func BenchmarkFig16NonAttr(b *testing.B) {
	perDataset(b, func(b *testing.B, ds *bench.Dataset) {
		for i := 0; i < b.N; i++ {
			bench.Fig16(ds)
		}
	})
}

// BenchmarkFig17Variant1 regenerates Figure 17(a–d).
func BenchmarkFig17Variant1(b *testing.B) {
	perDataset(b, func(b *testing.B, ds *bench.Dataset) {
		for i := 0; i < b.N; i++ {
			bench.Fig17Variant1(ds, true)
		}
	})
}

// BenchmarkFig17Variant2 regenerates Figure 17(e–h).
func BenchmarkFig17Variant2(b *testing.B) {
	perDataset(b, func(b *testing.B, ds *bench.Dataset) {
		for i := 0; i < b.N; i++ {
			bench.Fig17Variant2(ds, true)
		}
	})
}

// BenchmarkAblationFPM compares Dec's two candidate miners (FP-Growth, Apriori).
func BenchmarkAblationFPM(b *testing.B) {
	perDataset(b, func(b *testing.B, ds *bench.Dataset) {
		for i := 0; i < b.N; i++ {
			bench.AblationFPM(ds)
		}
	})
}

// BenchmarkAblationLemma3 measures the Lemma 3 prune.
func BenchmarkAblationLemma3(b *testing.B) {
	perDataset(b, func(b *testing.B, ds *bench.Dataset) {
		for i := 0; i < b.N; i++ {
			bench.AblationLemma3(ds)
		}
	})
}

// BenchmarkExtTruss compares k-core against k-truss structure cohesiveness
// (the paper's named future work).
func BenchmarkExtTruss(b *testing.B) {
	perDataset(b, func(b *testing.B, ds *bench.Dataset) {
		for i := 0; i < b.N; i++ {
			bench.ExtTruss(ds)
		}
	})
}

// BenchmarkExtInfluence profiles the influential-community baseline.
func BenchmarkExtInfluence(b *testing.B) {
	perDataset(b, func(b *testing.B, ds *bench.Dataset) {
		for i := 0; i < b.N; i++ {
			bench.ExtInfluence(ds, 5)
		}
	})
}

// BenchmarkAblationMaintenance compares incremental index maintenance with
// full rebuilds (Appendix F).
func BenchmarkAblationMaintenance(b *testing.B) {
	perDataset(b, func(b *testing.B, ds *bench.Dataset) {
		for i := 0; i < b.N; i++ {
			bench.AblationMaintenance(ds, 20)
		}
	})
}

// --- Per-operation micro-benchmarks (ns/op for single queries/builds).

func BenchmarkOpBuildAdvanced(b *testing.B) {
	perDataset(b, func(b *testing.B, ds *bench.Dataset) {
		for i := 0; i < b.N; i++ {
			core.BuildAdvanced(ds.G)
		}
	})
}

func BenchmarkOpBuildBasic(b *testing.B) {
	perDataset(b, func(b *testing.B, ds *bench.Dataset) {
		for i := 0; i < b.N; i++ {
			core.BuildBasic(ds.G)
		}
	})
}

func benchQuery(b *testing.B, run func(ds *bench.Dataset, q graph.VertexID)) {
	perDataset(b, func(b *testing.B, ds *bench.Dataset) {
		if len(ds.Queries) == 0 {
			b.Skip("no queries")
		}
		for i := 0; i < b.N; i++ {
			run(ds, ds.Queries[i%len(ds.Queries)])
		}
	})
}

func BenchmarkOpQueryDec(b *testing.B) {
	benchQuery(b, func(ds *bench.Dataset, q graph.VertexID) {
		core.Dec(bgCtx, ds.Tree, q, int(ds.MinCore), nil, core.DefaultOptions())
	})
}

func BenchmarkOpQueryIncS(b *testing.B) {
	benchQuery(b, func(ds *bench.Dataset, q graph.VertexID) {
		core.IncS(bgCtx, ds.Tree, q, int(ds.MinCore), nil, core.DefaultOptions())
	})
}

func BenchmarkOpQueryIncT(b *testing.B) {
	benchQuery(b, func(ds *bench.Dataset, q graph.VertexID) {
		core.IncT(bgCtx, ds.Tree, q, int(ds.MinCore), nil, core.DefaultOptions())
	})
}

func BenchmarkOpQueryGlobal(b *testing.B) {
	perDataset(b, func(b *testing.B, ds *bench.Dataset) {
		if len(ds.Queries) == 0 {
			b.Skip("no queries")
		}
		ops := graph.NewSetOps(ds.G)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			baseline.Global(ops, ds.Queries[i%len(ds.Queries)], int(ds.MinCore))
		}
	})
}

func BenchmarkOpQueryLocal(b *testing.B) {
	perDataset(b, func(b *testing.B, ds *bench.Dataset) {
		if len(ds.Queries) == 0 {
			b.Skip("no queries")
		}
		ops := graph.NewSetOps(ds.G)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			baseline.Local(ops, ds.Queries[i%len(ds.Queries)], int(ds.MinCore))
		}
	})
}

// --- SearchBatch fan-out. The rest of the serving path (snapshot pin,
// result cache, publication, transport) is measured end to end on a real
// acqd by go run ./benchmark.

// servingBenchGraph builds an indexed synthetic graph plus a set of queries
// whose vertices sit in a reasonably deep core, so every query does real
// work.
func servingBenchGraph(b *testing.B) (*acq.Graph, []acq.Query) {
	b.Helper()
	g, err := acq.Synthetic("dblp", benchConfig().Scale)
	if err != nil {
		b.Fatal(err)
	}
	g.BuildIndex()
	k := g.Stats().KMax / 2
	if k < 2 {
		k = 2
	}
	var queries []acq.Query
	for v := int32(0); int(v) < g.NumVertices() && len(queries) < 64; v++ {
		if c, err := g.CoreNumber(v); err == nil && c >= k {
			queries = append(queries, acq.Query{VertexID: v, K: k})
		}
	}
	if len(queries) == 0 {
		b.Skip("no suitable query vertices")
	}
	return g, queries
}

// BenchmarkServingSearchBatch measures pinned-snapshot batch throughput:
// one snapshot acquisition amortised over the whole query set, with the
// worker pool fanning out across CPUs. ns/op is per batch.
func BenchmarkServingSearchBatch(b *testing.B) {
	g, queries := servingBenchGraph(b)
	g.SetResultCacheSize(-1)
	g.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range g.SearchBatch(bgCtx, queries, acq.BatchOptions{}) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}
