package acq_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	acq "github.com/acq-search/acq"
)

// wideKeywordGraph returns a text graph whose query vertex q carries 70
// keywords, w00…w69, so S = W(q) spans two mask words. q closes a 6-clique
// with a1…a5, which share w60…w67 across the word boundary; b1…b6 form a
// second dense group around q sharing a few of w00…w20 each, and c1…c4 a
// 5-clique with q sharing w10, w68 and w69. Every vertex also carries
// keywords outside S.
func wideKeywordGraph() string {
	rng := rand.New(rand.NewSource(64))
	var b strings.Builder
	w := func(i int) string { return fmt.Sprintf("w%02d", i) }
	line := func(name string, kws ...string) {
		fmt.Fprintf(&b, "v %s %s\n", name, strings.Join(kws, " "))
	}
	var all []string
	for i := range 70 {
		all = append(all, w(i))
	}
	line("q", all...)
	var group []string
	for i := 1; i <= 5; i++ {
		kws := []string{w(rng.Intn(60)), fmt.Sprintf("x%d", i)}
		for j := 60; j < 68; j++ {
			kws = append(kws, w(j))
		}
		line(fmt.Sprintf("a%d", i), kws...)
		group = append(group, fmt.Sprintf("a%d", i))
	}
	for i := 1; i <= 6; i++ {
		kws := []string{fmt.Sprintf("y%d", i)}
		for range 4 {
			kws = append(kws, w(rng.Intn(21)))
		}
		line(fmt.Sprintf("b%d", i), kws...)
	}
	for i := 1; i <= 4; i++ {
		line(fmt.Sprintf("c%d", i), w(10), w(68), w(69), "z")
	}
	clique := func(vs ...string) {
		for i := range vs {
			for _, u := range vs[i+1:] {
				fmt.Fprintf(&b, "e %s %s\n", vs[i], u)
			}
		}
	}
	clique(append([]string{"q"}, group...)...)
	clique("q", "c1", "c2", "c3", "c4")
	for i := 1; i <= 6; i++ {
		fmt.Fprintf(&b, "e q b%d\n", i)
		for j := i + 1; j <= 6; j++ {
			if rng.Intn(3) > 0 {
				fmt.Fprintf(&b, "e b%d b%d\n", i, j)
			}
		}
		fmt.Fprintf(&b, "e b%d a%d\n", i, 1+rng.Intn(5))
	}
	return b.String()
}

// TestWideKeywordSetAnswersAgree: a query vertex with more than 64 keywords
// (multi-word masks) answers identically on the graph, its snapshot and a
// reloaded .acqm container, in every mode that mines candidates; the core
// answer also equals every incremental and index-free algorithm's, and is
// the 6-clique around q labelled w60…w67.
func TestWideKeywordSetAnswersAgree(t *testing.T) {
	g, err := acq.Load(strings.NewReader(wideKeywordGraph()))
	if err != nil {
		t.Fatal(err)
	}
	g.SetResultCacheSize(-1)
	g.BuildIndex()
	var buf bytes.Buffer
	if err := g.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	mapped, err := acq.LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	mapped.SetResultCacheSize(-1)
	searchers := map[string]acq.Searcher{"graph": g, "snapshot": g.Snapshot(), "mapped": mapped}

	queries := []acq.Query{
		{Vertex: "q", K: 4},
		{Vertex: "q", K: 4, Epsilon: 0.3},
		{Vertex: "q", K: 4, TopR: 1},
		{Vertex: "q", K: 4, Mode: acq.ModeClique},
		{Vertex: "q", K: 4, Mode: acq.ModeTruss},
		{Vertex: "q", K: 4, Mode: acq.ModeTruss, MaxHops: 1},
		{Vertex: "q", K: 3, Keywords: []string{"w10", "w60", "w64", "w68", "w69"}},
	}
	for _, q := range queries {
		want, err := g.Search(bgCtx, q)
		if err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
		for name, s := range searchers {
			got, err := s.Search(bgCtx, q)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %+v: %+v (%v), graph answered %+v", name, q, got, err, want)
			}
		}
	}

	exact, err := g.Search(bgCtx, acq.Query{Vertex: "q", K: 4})
	if err != nil {
		t.Fatal(err)
	}
	var label []string
	for i := 60; i < 68; i++ {
		label = append(label, fmt.Sprintf("w%02d", i))
	}
	members := []string{"a1", "a2", "a3", "a4", "a5", "q"}
	if len(exact.Communities) != 1 || !reflect.DeepEqual(exact.Communities[0].Label, label) ||
		!reflect.DeepEqual(slices.Sorted(slices.Values(exact.Communities[0].Members)), members) {
		t.Fatalf("core answer %+v, want %v labelled %v", exact.Communities, members, label)
	}
	for _, algo := range []acq.Algorithm{acq.AlgoIncS, acq.AlgoIncT, acq.AlgoBasicG, acq.AlgoBasicW} {
		got, err := g.Search(bgCtx, acq.Query{Vertex: "q", K: 4, Algorithm: algo})
		if err != nil || !reflect.DeepEqual(got.Communities, exact.Communities) || got.LabelSize != exact.LabelSize {
			t.Fatalf("%s: %+v (%v), dec answered %+v", algo, got, err, exact)
		}
	}
}
