// Command acq is the command-line interface to the attributed community
// search library.
//
// Subcommands:
//
//	acq gen -preset dblp -scale 1.0 -out graph.txt
//	    Generate a synthetic attributed graph in the text format.
//
//	acq index -in graph.txt -out graph.acqm [-method advanced|basic]
//	    Build the CL-tree index and write an .acqm snapshot.
//
//	acq stats -in graph.txt|graph.acqm
//	    Print graph and index statistics (Table 3 style).
//
//	acq query -in graph.acqm -q <vertex> -k 6 [-s kw1,kw2] [-algo dec]
//	    Run an attributed community query and print the communities.
//	    -mode selects the community model (core|fixed|threshold|clique|
//	    similar|truss) with -theta/-tau as its parameters; -timeout bounds
//	    the evaluation (the search is interrupted mid-evaluation when it
//	    expires). A bare -theta implies -mode threshold.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	acq "github.com/acq-search/acq"
	"github.com/acq-search/acq/engine"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "index":
		err = cmdIndex(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "acq: unknown subcommand %q\n\n", os.Args[1])
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "acq:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: acq <gen|index|stats|query> [flags]
  gen    -preset dblp -scale 1.0 -out graph.txt
  index  -in graph.txt -out graph.acqm [-method advanced|basic]
  stats  -in graph.txt|graph.acqm
  query  -in graph.acqm -q <vertex> -k 6 [-s kw1,kw2] [-algo dec|inc-s|inc-t|basic-g|basic-w]
         [-mode core|fixed|threshold|clique|similar|truss] [-theta 0.6] [-tau 0.5]
         [-timeout 5s]`)
	os.Exit(2)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	preset := fs.String("preset", "dblp", "dataset preset (flickr|dblp|tencent|dbpedia)")
	scale := fs.Float64("scale", 1.0, "scale factor")
	out := fs.String("out", "", "output file (default stdout)")
	fs.Parse(args)
	g, err := acq.Synthetic(*preset, *scale)
	if err != nil {
		return err
	}
	w, closeFn, err := openOut(*out)
	if err != nil {
		return err
	}
	defer closeFn()
	return g.Save(w)
}

func cmdIndex(args []string) error {
	fs := flag.NewFlagSet("index", flag.ExitOnError)
	in := fs.String("in", "", "input graph (text format)")
	out := fs.String("out", "", "output snapshot (default stdout)")
	method := fs.String("method", "advanced", "index construction method (advanced|basic)")
	fs.Parse(args)
	g, err := loadAny(*in)
	if err != nil {
		return err
	}
	switch *method {
	case "advanced":
		g.BuildIndexWith(acq.IndexAdvanced)
	case "basic":
		g.BuildIndexWith(acq.IndexBasic)
	default:
		return fmt.Errorf("unknown index method %q", *method)
	}
	w, closeFn, err := openOut(*out)
	if err != nil {
		return err
	}
	defer closeFn()
	return g.SaveSnapshot(w)
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	in := fs.String("in", "", "input graph (text or snapshot)")
	fs.Parse(args)
	g, err := loadAny(*in)
	if err != nil {
		return err
	}
	s := g.Stats()
	fmt.Printf("vertices:      %d\n", s.Vertices)
	fmt.Printf("edges:         %d\n", s.Edges)
	fmt.Printf("kmax:          %d\n", s.KMax)
	fmt.Printf("avg degree:    %.2f\n", s.AvgDegree)
	fmt.Printf("avg keywords:  %.2f\n", s.AvgKeywords)
	fmt.Printf("distinct kw:   %d\n", s.Keywords)
	if g.HasIndex() {
		fmt.Printf("index nodes:   %d\n", s.IndexNodes)
		fmt.Printf("index height:  %d\n", s.IndexHeight)
	}
	return nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	in := fs.String("in", "", "input graph (text or snapshot)")
	qv := fs.String("q", "", "query vertex label")
	k := fs.Int("k", 6, "minimum degree bound")
	s := fs.String("s", "", "comma-separated query keywords (default: all of q's)")
	algo := fs.String("algo", "dec", "algorithm (dec|inc-s|inc-t|basic-g|basic-w)")
	mode := fs.String("mode", "", "community model (core|fixed|threshold|clique|similar|truss)")
	theta := fs.Float64("theta", 0, "threshold mode: require ⌈θ·|S|⌉ shared keywords, θ ∈ (0,1]")
	tau := fs.Float64("tau", 0, "similar mode: Jaccard similarity bound τ ∈ (0,1]")
	timeout := fs.Duration("timeout", 0, "bound the evaluation; 0 = no deadline")
	fs.Parse(args)
	if *qv == "" {
		return fmt.Errorf("query: -q is required")
	}
	g, err := loadAny(*in)
	if err != nil {
		return err
	}
	if !g.HasIndex() && (*algo == "dec" || *algo == "inc-s" || *algo == "inc-t") {
		g.BuildIndex()
	}
	query := acq.Query{
		Vertex:    *qv,
		K:         *k,
		Algorithm: acq.Algorithm(*algo),
		Mode:      acq.Mode(*mode),
		Theta:     *theta,
		Tau:       *tau,
	}
	if *s != "" {
		query.Keywords = strings.Split(*s, ",")
	}
	// Back-compat convenience from before the unified Mode field.
	if query.Mode == "" && *theta > 0 {
		query.Mode = acq.ModeThreshold
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancelFn context.CancelFunc
		ctx, cancelFn = context.WithTimeout(ctx, *timeout)
		defer cancelFn()
	}
	res, err := g.Search(ctx, query)
	if err != nil {
		return err
	}
	if len(res.Communities) == 0 {
		fmt.Println("no community satisfies the query")
		return nil
	}
	if res.Fallback {
		fmt.Println("no shared keywords; returning the plain k-core community")
	}
	for i, c := range res.Communities {
		fmt.Printf("community %d (%d members), shared keywords: %s\n",
			i+1, len(c.Members), strings.Join(c.Label, ", "))
		fmt.Printf("  %s\n", strings.Join(c.Members, ", "))
	}
	return nil
}

func loadAny(path string) (*acq.Graph, error) {
	if path == "" {
		return nil, fmt.Errorf("missing -in")
	}
	return engine.LoadFile(path)
}

func openOut(path string) (*os.File, func(), error) {
	if path == "" {
		return os.Stdout, func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}
