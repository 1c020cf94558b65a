package acq_test

// Answer golden: seeded queries over two synthetic presets, evaluated in
// every mode, are rendered one line per query into the committed
// testdata/answers.golden. Evaluator rewrites must leave the file untouched;
// a changed line names the query whose answer moved.
//
// The file is self-describing: the check parses each line back into its
// query and re-renders it through Graph.Search, Snapshot.Search, a graph
// reloaded from a SaveSnapshot container, an Overlay snapshot after a
// mutation batch that leaves the graph as it was, graphs indexed with 1
// and 8 build workers, and the decoded SearchJSON bytes of the Snapshot and
// the Overlay, on the cache miss and on the hit. Only generation draws
// queries.
// The clique and truss modes can cost seconds on a dense ĉore, so at
// generation a heavy-mode query is kept only if it completes within
// goldenHeavyDeadline; which ones qualified is then fixed by the file, and
// the check itself involves no clock. Regenerate only when an answer change
// is intended:
//
//	go test -run TestAnswersGolden -update-answers .

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	acq "github.com/acq-search/acq"
)

var updateAnswers = flag.Bool("update-answers", false, "rewrite testdata/answers.golden")

const answersGolden = "testdata/answers.golden"

// goldenPresets are the synthetic graphs the golden covers, each with the
// seed of its query stream.
var goldenPresets = []struct {
	name string
	seed int64
}{
	{"dblp", 20160913},
	{"tencent", 1},
}

const (
	goldenScale      = 0.25
	goldenPerPreset  = 100
	goldenMaxK       = 6
	goldenMaxSubsetS = 3
	goldenEpsilon    = 0.1
	goldenTheta      = 0.5
	goldenTau        = 0.4
	// goldenHeavyDeadline admits a clique or truss query into the golden.
	goldenHeavyDeadline = 2 * time.Millisecond
	// goldenOverlaySeed draws the overlay searcher's mutation batch.
	goldenOverlaySeed = 37
)

// goldenQueries draws n (q, k, S) triples and expands each into the six
// modes plus core at ε = goldenEpsilon. q is drawn among the vertices of
// core ≥ 2, k up to min(core(q), goldenMaxK) with one draw in ten asking for
// core(q)+1 (the no-k-core path), and S is either W(q) (nil) or a small
// subset of it.
func goldenQueries(t *testing.T, g *acq.Graph, seed int64, n int) []acq.Query {
	rng := rand.New(rand.NewSource(seed))
	var out []acq.Query
	for drawn, tries := 0, 0; drawn < n; tries++ {
		if tries > 1000*n {
			t.Fatal("too few vertices with core ≥ 2")
		}
		v := int32(rng.Intn(g.NumVertices()))
		c, err := g.CoreNumber(v)
		if err != nil || c < 2 {
			continue
		}
		drawn++
		hi := c
		if hi > goldenMaxK {
			hi = goldenMaxK
		}
		k := 2 + rng.Intn(hi-1)
		if rng.Intn(10) == 0 {
			k = c + 1
		}
		var s []string
		if w := g.Keywords(v); len(w) > 0 && rng.Intn(3) > 0 {
			size := 1 + rng.Intn(goldenMaxSubsetS)
			for _, i := range rng.Perm(len(w)) {
				if len(s) == size {
					break
				}
				s = append(s, w[i])
			}
			sort.Strings(s)
		}
		for _, mode := range []acq.Mode{acq.ModeCore, acq.ModeFixed, acq.ModeThreshold, acq.ModeClique, acq.ModeSimilar, acq.ModeTruss, acq.ModeCore} {
			out = append(out, goldenQuery(mode, v, k, s))
		}
		out[len(out)-1].Epsilon = goldenEpsilon
	}
	return out
}

// goldenQuery builds one golden query; threshold and similar carry the
// golden's fixed θ and τ.
func goldenQuery(mode acq.Mode, v int32, k int, s []string) acq.Query {
	q := acq.Query{VertexID: v, K: k, Keywords: s, Mode: mode}
	switch mode {
	case acq.ModeThreshold:
		q.Theta = goldenTheta
	case acq.ModeSimilar:
		q.Tau = goldenTau
	}
	return q
}

// goldenErrors names the sentinel errors a golden query may end in.
var goldenErrors = []struct {
	err  error
	name string
}{
	{acq.ErrNoKCore, "no_kcore"},
	{acq.ErrVertexNotFound, "vertex_not_found"},
	{acq.ErrBadK, "bad_k"},
	{acq.ErrBadTheta, "bad_theta"},
	{acq.ErrNoIndex, "no_index"},
	{acq.ErrCanceled, "canceled"},
}

// goldenHead renders the query half of a line: mode (with @ε when set), q,
// k and S ("*" for W(q)).
func goldenHead(q acq.Query) string {
	mode := string(q.Mode)
	if q.Epsilon > 0 {
		mode = fmt.Sprintf("%s@%g", mode, q.Epsilon)
	}
	s := "*"
	if q.Keywords != nil {
		s = strings.Join(q.Keywords, ",")
	}
	return fmt.Sprintf("%s q=#%d k=%d S=%s", mode, q.VertexID, q.K, s)
}

// parseGoldenHead inverts goldenHead.
func parseGoldenHead(head string) (acq.Query, error) {
	f := strings.Fields(head)
	if len(f) != 4 || !strings.HasPrefix(f[1], "q=#") || !strings.HasPrefix(f[2], "k=") || !strings.HasPrefix(f[3], "S=") {
		return acq.Query{}, fmt.Errorf("malformed golden query %q", head)
	}
	mode, eps, _ := strings.Cut(f[0], "@")
	v, err := strconv.Atoi(f[1][3:])
	if err != nil {
		return acq.Query{}, err
	}
	k, err := strconv.Atoi(f[2][2:])
	if err != nil {
		return acq.Query{}, err
	}
	var s []string
	if f[3] != "S=*" {
		s = strings.Split(f[3][2:], ",")
	}
	q := goldenQuery(acq.Mode(mode), int32(v), k, s)
	if eps != "" {
		if q.Epsilon, err = strconv.ParseFloat(eps, 64); err != nil {
			return acq.Query{}, err
		}
	}
	return q, nil
}

// goldenAnswer renders the outcome half of a line. Communities are ordered
// by label so the line does not depend on enumeration order; members are
// hashed (FNV-64a over the sorted member labels of every community) rather
// than listed, which keeps the file small while still pinning every member.
func goldenAnswer(q acq.Query, res acq.Result, err error) string {
	if err != nil {
		for _, e := range goldenErrors {
			if errors.Is(err, e.err) {
				return "err=" + e.name
			}
		}
		return "err=" + err.Error()
	}
	keys := make([]string, len(res.Communities))
	members := make([][]string, len(res.Communities))
	for i, c := range res.Communities {
		l := append([]string(nil), c.Label...)
		sort.Strings(l)
		keys[i] = strings.Join(l, ",")
		members[i] = append([]string(nil), c.Members...)
		sort.Strings(members[i])
	}
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	h := fnv.New64a()
	labels := make([]string, len(idx))
	for i, j := range idx {
		labels[i] = keys[j]
		fmt.Fprintf(h, "%s\x00%s\x01", keys[j], strings.Join(members[j], "\x00"))
	}
	out := fmt.Sprintf("l=%d", res.LabelSize)
	if res.Fallback {
		out += " fallback"
	}
	if q.Epsilon > 0 {
		out += fmt.Sprintf(" lb=%d ub=%d exact=%t", res.ScoreLowerBound, res.ScoreUpperBound, res.Exact)
	}
	return fmt.Sprintf("%s labels=[%s] fnv=%016x", out, strings.Join(labels, ";"), h.Sum64())
}

// goldenGraph is one preset with the searchers the golden is checked
// against: the indexed Graph, its Snapshot, a graph reloaded from a
// SaveSnapshot container, an Overlay snapshot after a no-net-change mutation
// batch, graphs indexed with 1 and 8 build workers, and the SearchJSON bytes
// of the Snapshot and the Overlay.
type goldenGraph struct {
	g        *acq.Graph
	searches map[string]func(acq.Query) (acq.Result, error)
}

// goldenSearchers is the order the check runs the searchers in.
var goldenSearchers = []string{"graph", "snapshot", "mapped", "overlay", "workers-1", "workers-8", "snapshot-json", "overlay-json"}

func loadGoldenGraph(t *testing.T, preset string) goldenGraph {
	g := goldenIndexed(t, preset)
	var buf bytes.Buffer
	if err := g.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	mapped, err := acq.LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	snap := g.Snapshot()
	overlay := goldenOverlay(t, preset)
	searches := map[string]func(acq.Query) (acq.Result, error){
		"graph":    func(q acq.Query) (acq.Result, error) { return g.Search(bgCtx, q) },
		"snapshot": func(q acq.Query) (acq.Result, error) { return snap.Search(bgCtx, q) },
		"mapped":   func(q acq.Query) (acq.Result, error) { return mapped.Search(bgCtx, q) },
		"overlay":  func(q acq.Query) (acq.Result, error) { return overlay.Search(bgCtx, q) },
		// Caches of their own, so the first SearchJSON of a query is a miss
		// even after the plain searchers have cached it.
		"snapshot-json": encodedSearch(acq.FreshCache(snap)),
		"overlay-json":  encodedSearch(acq.FreshCache(overlay)),
	}
	for _, n := range []int{1, 8} {
		acq.ForceBuildWorkers(t, n)
		built := goldenIndexed(t, preset)
		acq.ForceBuildWorkers(t, 0) // back to automatic sizing
		if _, w := built.IndexBuildStats(); w != n {
			t.Fatalf("%s: index built with %d workers, want %d", preset, w, n)
		}
		searches[fmt.Sprintf("workers-%d", n)] = func(q acq.Query) (acq.Result, error) { return built.Search(bgCtx, q) }
	}
	return goldenGraph{g: g, searches: searches}
}

// encodedSearch answers a query through s.SearchJSON twice, the cache miss
// and then the hit, and decodes the bytes back into a Result. Both calls must
// return the same bytes, and the Result SearchJSON returns beside them must
// be the decoded one without its Communities.
func encodedSearch(s *acq.Snapshot) func(acq.Query) (acq.Result, error) {
	return func(q acq.Query) (acq.Result, error) {
		var first []byte
		var res acq.Result
		for call := 0; call < 2; call++ {
			enc, scalars, err := s.SearchJSON(bgCtx, q)
			if err != nil {
				return acq.Result{}, err
			}
			if call == 1 && !bytes.Equal(enc, first) {
				return acq.Result{}, fmt.Errorf("hit bytes differ from the miss:\n%s\n%s", enc, first)
			}
			first = enc
			res = acq.Result{}
			if err := json.Unmarshal(enc, &res); err != nil {
				return acq.Result{}, err
			}
			want := res
			want.Communities = nil
			if !reflect.DeepEqual(scalars, want) {
				return acq.Result{}, fmt.Errorf("SearchJSON returned %+v beside bytes decoding to %+v", scalars, want)
			}
		}
		return res, nil
	}
}

// goldenIndexed loads preset at the golden's scale and builds its index.
func goldenIndexed(t *testing.T, preset string) *acq.Graph {
	g, err := acq.Synthetic(preset, goldenScale)
	if err != nil {
		t.Fatal(err)
	}
	g.BuildIndex()
	return g
}

// goldenOverlay returns a snapshot of preset served as an Overlay over its
// frozen base. One seeded batch removes and re-adds a keyword on 16 vertices
// and removes and re-inserts 4 edges, so the graph ends where it started
// while every read goes through the overlay's delta rows and the maintained
// index.
func goldenOverlay(t *testing.T, preset string) *acq.Snapshot {
	g := goldenIndexed(t, preset)
	g.SetCompactionThreshold(1 << 20)
	g.Snapshot() // start serving: the next write publishes an overlay
	rng := rand.New(rand.NewSource(goldenOverlaySeed))
	var removes, adds []acq.Mutation
	for touched := map[int32]bool{}; len(touched) < 16; {
		v := int32(rng.Intn(g.NumVertices()))
		w := g.Keywords(v)
		if touched[v] || len(w) == 0 {
			continue
		}
		touched[v] = true
		word := w[rng.Intn(len(w))]
		removes = append(removes, acq.Mutation{Op: acq.OpRemoveKeyword, Vertex: v, Keyword: word})
		adds = append(adds, acq.Mutation{Op: acq.OpAddKeyword, Vertex: v, Keyword: word})
	}
	for picked := map[[2]int32]bool{}; len(picked) < 4; {
		u := int32(rng.Intn(g.NumVertices()))
		ns := acq.Neighbors(g, u)
		if len(ns) == 0 {
			continue
		}
		v := ns[rng.Intn(len(ns))]
		e := [2]int32{min(u, v), max(u, v)}
		if picked[e] {
			continue
		}
		picked[e] = true
		removes = append(removes, acq.Mutation{Op: acq.OpRemoveEdge, U: u, V: v})
		adds = append(adds, acq.Mutation{Op: acq.OpInsertEdge, U: u, V: v})
	}
	for i, r := range g.ApplyMutations(append(removes, adds...)) {
		if !r.Changed || r.Err != nil {
			t.Fatalf("%s: overlay mutation %d had no effect (%v)", preset, i, r.Err)
		}
	}
	snap := g.Snapshot()
	if ws := g.WriteStats(); ws.DeltaKeywordRows == 0 || ws.Compactions != 0 {
		t.Fatalf("%s: snapshot is not an overlay: %+v", preset, ws)
	}
	return snap
}

// generateGolden draws every preset's queries and renders them through
// Graph.Search, dropping heavy-mode queries that miss goldenHeavyDeadline.
func generateGolden(t *testing.T) string {
	var b strings.Builder
	for _, p := range goldenPresets {
		gg := loadGoldenGraph(t, p.name)
		fmt.Fprintf(&b, "# %s@%g\n", p.name, goldenScale)
		for _, q := range goldenQueries(t, gg.g, p.seed, goldenPerPreset) {
			if q.Mode == acq.ModeClique || q.Mode == acq.ModeTruss {
				ctx, cancel := context.WithTimeout(bgCtx, goldenHeavyDeadline)
				_, err := gg.g.Search(ctx, q)
				cancel()
				if errors.Is(err, acq.ErrCanceled) {
					continue
				}
			}
			res, err := gg.g.Search(bgCtx, q)
			fmt.Fprintf(&b, "%s | %s\n", goldenHead(q), goldenAnswer(q, res, err))
		}
	}
	return b.String()
}

func TestAnswersGolden(t *testing.T) {
	if *updateAnswers {
		got := generateGolden(t)
		if err := os.MkdirAll(filepath.Dir(answersGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(answersGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", answersGolden, len(got))
	}
	want, err := os.ReadFile(answersGolden)
	if err != nil {
		t.Fatalf("missing %s (run with -update-answers to create): %v", answersGolden, err)
	}
	var gg goldenGraph
	failures := 0
	for i, line := range strings.Split(strings.TrimSuffix(string(want), "\n"), "\n") {
		if preset, ok := strings.CutPrefix(line, "# "); ok {
			name, _, _ := strings.Cut(preset, "@")
			gg = loadGoldenGraph(t, name)
			continue
		}
		head, answer, ok := strings.Cut(line, " | ")
		if !ok || gg.g == nil {
			t.Fatalf("%s:%d: malformed line %q", answersGolden, i+1, line)
		}
		q, err := parseGoldenHead(head)
		if err != nil {
			t.Fatalf("%s:%d: %v", answersGolden, i+1, err)
		}
		for _, name := range goldenSearchers {
			res, err := gg.searches[name](q)
			if got := goldenAnswer(q, res, err); got != answer {
				t.Errorf("%s:%d (%s): %s\n- %s\n+ %s", answersGolden, i+1, name, head, answer, got)
				failures++
			}
		}
		if failures >= 10 {
			t.Fatal("too many answer mismatches; if the change is intended, regenerate with:\n\tgo test -run TestAnswersGolden -update-answers .")
		}
	}
}
