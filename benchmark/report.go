package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// resultsSchema names the layout of results.json.
const resultsSchema = "acq-benchmark/v1"

// resultsFile is what -out writes and -compare reads: every run of a suite
// invocation, repeated -aa times.
type resultsFile struct {
	Schema  string      `json:"schema"`
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Quick   bool        `json:"quick"`
	Runs    []runResult `json:"runs"`
}

// runSuite runs every workload untraced and then traced, rounds times over,
// prints the spread of every metric when rounds > 1, and writes out.
func runSuite(ctx context.Context, base runConfig, rounds int, out string) int {
	file := resultsFile{Schema: resultsSchema, Seed: base.seed, Seconds: base.window.Seconds(), Quick: base.quick}
	status := 0
	for round := 0; round < rounds; round++ {
		for _, traced := range []bool{false, true} {
			for _, w := range workloads {
				rc := base
				rc.w, rc.trace = w, traced
				res, err := runWorkload(ctx, &rc)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				if !res.Correct {
					status = 1
				}
				file.Runs = append(file.Runs, *res)
			}
		}
	}
	if rounds > 1 {
		printSpread(base.log, &file)
	}
	if out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(out, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	return status
}

// series collects, per workload and metric, the values of all runs of one
// kind (untraced or traced) in a results file.
func (f *resultsFile) series(traced int) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range f.Runs {
		if r.Trace != traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// printSpread prints, for every workload × metric, the median, quartiles and
// spread over the rounds of an A/A run — the figure each bound must exceed.
func printSpread(w io.Writer, f *resultsFile) {
	for traced, defs := range [][]metricDef{endToEnd, perLayer} {
		series := f.series(traced)
		for _, wl := range workloads {
			fmt.Fprintf(w, "A/A %s (trace %d)\n", wl.name, traced)
			for _, d := range defs {
				xs := series[wl.name][d.Name]
				q1, q2, q3 := quartiles(xs)
				line := fmt.Sprintf("  %-28s median %12.4f  q1 %12.4f  q3 %12.4f  spread %6.2f%%", d.Name, q2, q1, q3, 100*spread(xs))
				if d.Bound > 0 {
					line += fmt.Sprintf("  bound %4.1f%%", 100*d.Bound)
				}
				fmt.Fprintln(w, line, d.Unit)
			}
		}
	}
}

// verdict classifies the change of one end-to-end metric from a to b against
// its bound: unresolved when a's own run-to-run spread is wider than the
// bound, worse when b's median is worse than a's by more than the bound.
func verdict(d metricDef, a, b []float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "missing"
	}
	if len(a) > 1 && spread(a) > d.Bound {
		return "unresolved"
	}
	ma, mb := median(a), median(b)
	worse := mb - ma
	if d.Better == "higher" {
		worse = ma - mb
	}
	if ma != 0 && worse/ma > d.Bound {
		return "worse"
	}
	return "ok"
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultsSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultsSchema)
	}
	return &f, nil
}

// compareFiles prints one row per workload × end-to-end metric and exits 1 if
// any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, errA := readResults(pathA)
	b, errB := readResults(pathB)
	for _, err := range []error{errA, errB} {
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	return compareResults(w, a, b)
}

func compareResults(w io.Writer, a, b *resultsFile) int {
	sa, sb := a.series(0), b.series(0)
	status := 0
	fmt.Fprintf(w, "%-12s %-16s %12s %12s %8s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			xa, xb := sa[wl.name][d.Name], sb[wl.name][d.Name]
			v := verdict(d, xa, xb)
			if v == "worse" {
				status = 1
			}
			ma, mb := median(xa), median(xb)
			change := 0.0
			if ma != 0 {
				change = 100 * (mb - ma) / ma
			}
			fmt.Fprintf(w, "%-12s %-16s %12.4f %12.4f %+7.1f%% %6.1f%%  %s\n", wl.name, d.Name, ma, mb, change, 100*d.Bound, v)
		}
	}
	return status
}
