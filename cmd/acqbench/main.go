// Command acqbench regenerates the paper's tables and figures on the
// synthetic dataset analogues and prints them as aligned text tables.
//
// Usage:
//
//	acqbench [-scale 1.0] [-queries 50] [-datasets flickr,dblp,tencent,dbpedia]
//	         [-exp all] [-nobasic]
//
// -exp selects experiments by paper artefact ID (comma separated):
// table3, fig7, fig8, fig9, fig11, table4, table5-6, fig12, table7, fig13,
// fig14a-d, fig14e-h, fig14i-l, fig14m-p, fig14q-t, fig15, fig16, fig17a-d,
// fig17e-h, ext-truss, ext-influence, ablations.
// "all" runs everything; "quality" and "perf" select the two groups. An
// unknown ID exits 2 with the list of valid ones.
//
// Performance of the serving stack is measured by go run ./benchmark, not
// here.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"github.com/acq-search/acq/internal/bench"
)

// The experiment IDs of each group, in the order main runs them.
var (
	qualityExps = []string{"table3", "fig7", "fig8", "fig9", "fig11", "table4", "table5-6", "fig12", "table7"}
	perfExps    = []string{"fig13", "fig14a-d", "fig14e-h", "fig14i-l", "fig14m-p", "fig14q-t",
		"fig15", "fig16", "fig17a-d", "fig17e-h", "ext-truss", "ext-influence", "ablations"}
)

func main() {
	scale := flag.Float64("scale", 1.0, "dataset scale factor (1.0 = default laptop scale)")
	queries := flag.Int("queries", 50, "query vertices per dataset (paper: 300)")
	datasets := flag.String("datasets", strings.Join(bench.DatasetNames(), ","), "comma-separated dataset list")
	exps := flag.String("exp", "all", "comma-separated experiment IDs, or all/quality/perf")
	noBasic := flag.Bool("nobasic", false, "skip the slow index-free baselines in fig14/fig17")
	flag.Parse()

	want, err := expandSelection(*exps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "acqbench:", err)
		os.Exit(2)
	}

	cfg := bench.DefaultConfig()
	cfg.Scale = *scale
	cfg.Queries = *queries
	out := os.Stdout

	if want["table3"] {
		tab, err := bench.Table3(cfg)
		if err != nil {
			fatal(err)
		}
		tab.Fprint(out)
	}

	names := strings.Split(*datasets, ",")
	fracs := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		needDS := false
		for id := range want {
			if id != "table3" {
				needDS = true
			}
		}
		if !needDS {
			break
		}
		fmt.Fprintf(out, "---- dataset %s (scale %.2f, %d queries) ----\n\n", name, *scale, *queries)
		ds, err := bench.LoadDataset(name, cfg)
		if err != nil {
			fatal(err)
		}
		run := func(id string, f func() *bench.Table) {
			if want[id] {
				f().Fprint(out)
			}
		}
		run("fig7", func() *bench.Table { return bench.Fig7(ds) })
		run("fig8", func() *bench.Table { return bench.Fig8(ds) })
		run("fig9", func() *bench.Table { return bench.Fig9(ds) })
		run("fig11", func() *bench.Table { return bench.Fig11(ds) })
		run("table4", func() *bench.Table { return bench.Table4(ds) })
		run("table5-6", func() *bench.Table { return bench.Tables56(ds) })
		run("fig12", func() *bench.Table { return bench.Fig12(ds, []int{4, 5, 6, 7, 8}) })
		run("table7", func() *bench.Table { return bench.Table7(ds) })
		run("fig13", func() *bench.Table { return bench.Fig13(ds, fracs) })
		run("fig14a-d", func() *bench.Table { return bench.Fig14QueryVsCS(ds) })
		run("fig14e-h", func() *bench.Table { return bench.Fig14EffectK(ds, !*noBasic) })
		run("fig14i-l", func() *bench.Table { return bench.Fig14KeywordScale(ds, fracs) })
		run("fig14m-p", func() *bench.Table { return bench.Fig14VertexScale(ds, fracs, cfg) })
		run("fig14q-t", func() *bench.Table { return bench.Fig14EffectS(ds, !*noBasic) })
		run("fig15", func() *bench.Table { return bench.Fig15(ds) })
		run("fig16", func() *bench.Table { return bench.Fig16(ds) })
		run("fig17a-d", func() *bench.Table { return bench.Fig17Variant1(ds, !*noBasic) })
		run("fig17e-h", func() *bench.Table { return bench.Fig17Variant2(ds, !*noBasic) })
		run("ext-truss", func() *bench.Table { return bench.ExtTruss(ds) })
		run("ext-influence", func() *bench.Table { return bench.ExtInfluence(ds, 5) })
		run("ablations", func() *bench.Table { return bench.AblationFPM(ds) })
		if want["ablations"] {
			bench.AblationLemma3(ds).Fprint(out)
			bench.AblationMaintenance(ds, 50).Fprint(out)
		}
	}
}

// expandSelection turns the -exp argument into the set of experiment IDs to
// run, expanding the group names and rejecting any ID that names no
// experiment.
func expandSelection(arg string) (map[string]bool, error) {
	out := map[string]bool{}
	add := func(ids []string) {
		for _, id := range ids {
			out[id] = true
		}
	}
	for _, tok := range strings.Split(arg, ",") {
		switch tok = strings.TrimSpace(tok); tok {
		case "all":
			add(qualityExps)
			add(perfExps)
		case "quality":
			add(qualityExps)
		case "perf":
			add(perfExps)
		case "":
		default:
			if !slices.Contains(qualityExps, tok) && !slices.Contains(perfExps, tok) {
				return nil, fmt.Errorf("unknown experiment %q; valid IDs: all, quality, perf, %s",
					tok, strings.Join(append(slices.Clone(qualityExps), perfExps...), ", "))
			}
			out[tok] = true
		}
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "acqbench:", err)
	os.Exit(1)
}
