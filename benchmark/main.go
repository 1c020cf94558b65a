// Command benchmark is the repository's one performance yardstick: a seeded,
// self-checking end-to-end benchmark of the real acqd binary plus a traced
// in-process replay that attributes a request to the layers below it.
//
// One workload, as the benchmark driver runs it (BENCHMARK.json):
//
//	go run ./benchmark --workload core-cold --seed 1 --seconds 10 --trace 0
//
// prints every metric by name with its unit and ends with one JSON result
// line. Without --workload the whole suite runs — every workload untraced,
// then traced:
//
//	go run ./benchmark -seed 1 -out .bench_build/results.json
//	go run ./benchmark -aa 3 -out .bench_build/aa.json     # run-to-run spread
//	go run ./benchmark -compare a.json b.json              # one row per workload × metric
//	go run ./benchmark -quick                              # smoke: scale ÷ 8, 3 s windows
//
// See README.md in this directory for the workloads, the metrics and how to
// read trace.json.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// buildDir is where everything the benchmark leaves behind goes, inside the
// checkout it was started in (and listed in .gitignore).
const buildDir = ".bench_build"

func main() {
	os.Exit(realMain())
}

func realMain() int {
	workload := flag.String("workload", "", "run this one workload and end with the result line (default: the whole suite)")
	seed := flag.Int64("seed", defaultSeed, "seed of the traffic: query vertices, Zipf draws, mutation targets, schedule")
	seconds := flag.Int("seconds", 10, "measured window per run, in seconds; warm-up is a fifth of it on top")
	trace := flag.Int("trace", 0, "with -workload: 0 = untraced run (end-to-end metrics), 1 = traced run (per-layer metrics)")
	out := flag.String("out", "", "suite: write every run's result to this JSON file")
	aa := flag.Int("aa", 0, "suite: run the whole suite this many times on the same binary and print each metric's spread")
	compare := flag.Bool("compare", false, "compare two results files given as arguments: a.json b.json")
	quick := flag.Bool("quick", false, "smoke run: scale ÷ 8, 3 s windows, no shape assertions on background cycles")
	workdir := flag.String("workdir", "", "scratch directory (default: a fresh one under "+buildDir+", removed on exit)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare wants two results files")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	if *quick {
		*seconds = 3
	}

	// Ctrl-C cancels ctx, which kills every acqd started under it; the
	// deferred cleanup below still runs because main returns normally.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	dir := *workdir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp(buildDir, "work-"); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		defer os.RemoveAll(dir)
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// Relative paths are handed to acqd and to in-process opens alike.
	dir, err := filepath.Abs(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	bin, err := buildAcqd(ctx, dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	base := runConfig{
		seed: *seed, window: time.Duration(*seconds) * time.Second, quick: *quick,
		bin: bin, workdir: dir, outdir: buildDir, log: os.Stdout,
	}

	if *workload != "" {
		w, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			return 2
		}
		rc := base
		rc.w, rc.trace = w, *trace == 1
		res, err := runWorkload(ctx, &rc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Println(res.resultLine())
		if !res.Correct {
			return 1
		}
		return 0
	}
	return runSuite(ctx, base, max(*aa, 1), *out)
}
