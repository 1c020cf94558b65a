package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	acq "github.com/acq-search/acq"
	"github.com/acq-search/acq/internal/datagen"
	"github.com/acq-search/acq/internal/dataio"
	"github.com/acq-search/acq/internal/graph"
	"github.com/acq-search/acq/internal/kcore"
)

// Fixed parameters of the workloads. They are part of the benchmark's
// definition: changing one changes every number, so the baseline must be
// measured again.
const (
	// defaultSeed drives the committed baseline; heldOutSeed is the seed a
	// later claim must also hold on and is never used while tuning.
	defaultSeed = 1
	heldOutSeed = 20160913

	baseScale     = 8.0 // dblp@8: 240 k vertices / 803 k edges
	queryK        = 6   // degree bound of every query
	zipfKeys      = 128 // distinct hot-zipf queries; fits the 256-entry cache
	zipfS         = 1.1
	openRate      = 100.0 // modes-open: scheduled requests per second
	sloLimit      = 250 * time.Millisecond
	writeRate     = 16.0    // mixed-rw: scheduled write batches per second
	kwBatchOps    = 16      // keyword ops per write batch
	edgeEvery     = 16      // every edgeEvery-th write batch is a single-edge batch
	kwLiveDepth   = 64      // live additions kept before removals start
	probeWrites   = 320     // batches drawn for the other workloads' write probes
	streamLen     = 1 << 16 // pre-drawn ops per closed-loop client
	clients       = 2       // nproc: goroutines and HTTP connections
	spareVertices = 16      // pool vertices kept for the traced run's unit probes
)

// workloadDef is one named traffic mix. why is the BENCHMARK.json text.
type workloadDef struct {
	name     string
	why      string
	scaleDiv float64 // graph scale is baseScale / scaleDiv
	zipf     bool    // skewed draws over a few cached keys
	open     bool    // open loop on a fixed schedule
	writer   bool    // one of the two clients writes, to a durable collection
}

var workloads = []workloadDef{
	{name: "core-cold", scaleDiv: 1,
		why: "closed loop, 2 clients, exact core search on dblp@8 over 20k+ distinct vertices: misses the result cache, so the evaluator does the work"},
	{name: "hot-zipf", scaleDiv: 1, zipf: true,
		why: "closed loop, 2 clients, Zipf(1.1) over 128 queries that fit the result cache: the evaluator idles; decode, cache probe, clone, encode and transport do the work"},
	{name: "mixed-rw", scaleDiv: 1, writer: true,
		why: "durable dblp@8, one reader beside one writer of 16-op keyword batches and single-edge batches: WAL, overlay publication, compaction and checkpoints run beside reads"},
	{name: "modes-open", scaleDiv: 4, open: true,
		why: "open loop at 100 req/s on dblp@2 cycling core, fixed, threshold, similar, clique, truss and core+epsilon: arrivals, queueing and the heavy-tailed modes"},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// openModes is the cycle of modes-open. Parameters are chosen so that at
// least half of each mode's answers are non-empty (asserted after the run).
var openModes = []string{"core", "fixed", "threshold", "similar", "clique", "truss", "approx"}

// query is one search request: its wire body plus what validation and the
// in-process levels of the traced run need to re-issue it.
type query struct {
	ID       int32
	K        int
	Mode     string // "" = core; "approx" is core with Epsilon set
	Keywords []string
	Theta    float64
	Tau      float64
	Epsilon  float64
	body     []byte
}

// wireQuery mirrors the v1 query object of POST /v1/search.
type wireQuery struct {
	ID       int32    `json:"id"`
	K        int      `json:"k"`
	Mode     string   `json:"mode,omitempty"`
	Keywords []string `json:"keywords,omitempty"`
	Theta    float64  `json:"theta,omitempty"`
	Tau      float64  `json:"tau,omitempty"`
	Epsilon  float64  `json:"epsilon,omitempty"`
	Algo     string   `json:"algo,omitempty"`
}

// wireMode maps the benchmark's mode label to the protocol's.
func (q *query) wireMode() string {
	if q.Mode == "approx" {
		return "core"
	}
	return q.Mode
}

// encode renders the request body; algo "" is the server's default (dec).
func (q *query) encode(algo string) []byte {
	body, err := json.Marshal(map[string]wireQuery{"query": {
		ID: q.ID, K: q.K, Mode: q.wireMode(), Keywords: q.Keywords,
		Theta: q.Theta, Tau: q.Tau, Epsilon: q.Epsilon, Algo: algo,
	}})
	if err != nil {
		panic(err) // plain data; cannot fail
	}
	return body
}

// acqQuery is the library form of q, for the in-process levels.
func (q *query) acqQuery() acq.Query {
	return acq.Query{VertexID: q.ID, K: q.K, Keywords: q.Keywords, Mode: acq.Mode(q.wireMode()),
		Theta: q.Theta, Tau: q.Tau, Epsilon: q.Epsilon}
}

// writeBatch is one POST /v1/mutations request of the writer.
type writeBatch struct {
	edge bool
	muts []acq.Mutation
	body []byte
}

// wireMutation mirrors one entry of POST /v1/mutations, addressed by dense ID.
type wireMutation struct {
	Op      string `json:"op"`
	UID     *int32 `json:"u_id,omitempty"`
	VID     *int32 `json:"v_id,omitempty"`
	ID      *int32 `json:"id,omitempty"`
	Keyword string `json:"keyword,omitempty"`
}

func encodeMutations(muts []acq.Mutation) []byte {
	wire := make([]wireMutation, len(muts))
	for i := range muts {
		m := &muts[i]
		wire[i].Op = string(m.Op)
		switch m.Op {
		case acq.OpInsertEdge, acq.OpRemoveEdge:
			wire[i].UID, wire[i].VID = &m.U, &m.V
		default:
			wire[i].ID, wire[i].Keyword = &m.Vertex, m.Keyword
		}
	}
	body, err := json.Marshal(map[string][]wireMutation{"mutations": wire})
	if err != nil {
		panic(err) // plain data; cannot fail
	}
	return body
}

// inputs is everything generated before any timing: the text file acqd
// loads, and the benchmark's own copy of the same graph for drawing query
// vertices and for checking answers from outside.
type inputs struct {
	scale float64
	file  string
	g     *graph.Graph
	core  []int32
}

// prepare generates dblp at scale into dir. The graph keeps the preset's own
// seed: -seed varies the traffic, never the data.
func prepare(dir string, scale float64) (*inputs, error) {
	cfg, err := datagen.Preset("dblp")
	if err != nil {
		return nil, err
	}
	g := datagen.Generate(cfg.Scale(scale))
	file := filepath.Join(dir, fmt.Sprintf("dblp%g.txt", scale))
	f, err := os.Create(file)
	if err != nil {
		return nil, err
	}
	if err := dataio.WriteText(f, g); err != nil {
		f.Close()
		return nil, fmt.Errorf("writing %s: %w", file, err)
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return &inputs{scale: scale, file: file, g: g, core: kcore.Decompose(g)}, nil
}

// pool returns every vertex with core(v) ≥ minCore in a seeded order, so that
// every query drawn from it is answerable.
func (in *inputs) pool(minCore int32, rng *rand.Rand) []int32 {
	var out []int32
	for v, c := range in.core {
		if c >= minCore {
			out = append(out, int32(v))
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// densest filters pool down to the vertices of maximum core number: the
// generator's seed cliques. A k-clique and a k-truss around q are certain
// only there; a vertex of core 6 outside them answers clique and truss
// queries with 404 no_k_core.
func (in *inputs) densest(pool []int32) []int32 {
	kmax := kcore.MaxCore(in.core)
	var out []int32
	for _, v := range pool {
		if in.core[v] == kmax {
			out = append(out, v)
		}
	}
	return out
}

// largestCore returns the vertices of the largest k-ĉore (connected component
// of the k-core) in a seeded order.
func (in *inputs) largestCore(k int32, rng *rand.Rand) []int32 {
	seen := make([]bool, len(in.core))
	var best []int32
	for v0 := range in.core {
		if seen[v0] || in.core[v0] < k {
			continue
		}
		seen[v0] = true
		comp := []int32{int32(v0)}
		for i := 0; i < len(comp); i++ {
			for _, u := range in.g.Neighbors(graph.VertexID(comp[i])) {
				if !seen[u] && in.core[u] >= k {
					seen[u] = true
					comp = append(comp, int32(u))
				}
			}
		}
		if len(comp) > len(best) {
			best = comp
		}
	}
	rng.Shuffle(len(best), func(i, j int) { best[i], best[j] = best[j], best[i] })
	return best
}

// foreignKeyword returns the first dictionary word that v does not carry.
func (in *inputs) foreignKeyword(v int32) []string {
	for id, w := range in.g.Dict().Words() {
		if !in.g.HasKeyword(graph.VertexID(v), graph.KeywordID(id)) {
			return []string{w}
		}
	}
	return nil
}

// firstKeywords returns up to n of v's keywords, in dictionary order.
func (in *inputs) firstKeywords(v int32, n int) []string {
	kws := in.g.KeywordStrings(graph.VertexID(v))
	if len(kws) > n {
		kws = kws[:n]
	}
	return kws
}

// sharedKeyword returns the keyword of v that most of v's neighbours carry
// too — the likeliest single keyword a whole community around v shares — and
// how many neighbours carry it.
func (in *inputs) sharedKeyword(v int32) (word []string, support int) {
	qv := graph.VertexID(v)
	best := graph.KeywordID(-1)
	for _, w := range in.g.Keywords(qv) {
		count := 0
		for _, u := range in.g.Neighbors(qv) {
			if in.g.HasKeyword(u, w) {
				count++
			}
		}
		if count > support || best < 0 {
			best, support = w, count
		}
	}
	if best < 0 {
		return nil, 0
	}
	return []string{in.g.Dict().Word(best)}, support
}

// plan is one workload's seeded traffic: a table of queries, the order in
// which each reader client issues them, and the writer's batches.
type plan struct {
	table    []query
	order    [][]int32 // per reader client: indices into table, reused cyclically
	prime    []int32   // issued once, untimed, before warm-up
	writer   bool      // writes run beside the reads (mixed-rw)
	poolSize int       // vertices with core ≥ queryK
	spare    []int32   // pool vertices for the traced run's unit probes
	writes   []writeBatch
	allow    *allowances // what the writer may have changed under a read; nil without a writer
}

// readOp returns reader client c's i-th query.
func (p *plan) readOp(c, i int) *query {
	ord := p.order[c]
	return &p.table[ord[i%len(ord)]]
}

// canonical returns the first n request bodies of the plan in its canonical
// order: round-robin over the reader clients, then the writer. The traced
// run replays a prefix of this order; the determinism test pins it.
func (p *plan) canonical(n int) [][]byte {
	lanes := len(p.order)
	if p.writer {
		lanes++
	}
	out := make([][]byte, 0, n)
	for i := 0; len(out) < n; i++ {
		lane, step := i%lanes, i/lanes
		if lane < len(p.order) {
			out = append(out, p.readOp(lane, step).body)
		} else if step < len(p.writes) {
			out = append(out, p.writes[step].body)
		}
	}
	return out
}

// reads returns the first n queries of the canonical order.
func (p *plan) reads(n int) []*query {
	out := make([]*query, 0, n)
	for i := 0; len(out) < n; i++ {
		out = append(out, p.readOp(i%len(p.order), i/len(p.order)))
	}
	return out
}

// buildPlan draws workload w's traffic from seed. seconds sizes the open
// loop's schedule (warm-up included); closed loops reuse their order
// cyclically if a run ever outlasts it.
func buildPlan(w workloadDef, in *inputs, seed int64, total time.Duration) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	pool := in.pool(queryK, rng)
	if len(pool) < 2*zipfKeys {
		return nil, fmt.Errorf("%s: only %d vertices with core ≥ %d at scale %g", w.name, len(pool), queryK, in.scale)
	}
	dense := in.densest(pool)
	if len(dense) < spareVertices {
		return nil, fmt.Errorf("%s: only %d vertices of maximum core number at scale %g", w.name, len(dense), in.scale)
	}
	p := &plan{poolSize: len(pool), spare: dense[len(dense)-spareVertices:]}
	coreQuery := func(v int32) query { return query{ID: v, K: queryK} }
	switch {
	case w.open:
		// One ĉore for every query, as on hot-zipf: what a mode costs then
		// depends on the mode, not on which ĉore a seed drew its vertex from.
		pool = in.largestCore(queryK, rng)
		if dense = in.densest(pool); len(dense) == 0 {
			return nil, fmt.Errorf("%s: the largest %d-ĉore holds no vertex of maximum core number", w.name, queryK)
		}
		slots := int(openRate*total.Seconds()) + 1
		p.table = make([]query, slots)
		ord := make([]int32, slots)
		for i := range p.table {
			mode, from := openModes[i%len(openModes)], pool
			if mode == "clique" || mode == "truss" {
				from = dense
			}
			p.table[i] = in.modeQuery(mode, from[rng.Intn(len(from))])
			ord[i] = int32(i)
		}
		p.order = [][]int32{ord}
	case w.zipf:
		// All keys come from the largest k-ĉore, so every fallback answer is
		// that same ĉore: the byte mix then depends on the Zipf draws, not on
		// which vertices a seed happened to rank first.
		// And only vertices with a keyword that 2k neighbours carry: their W(q)
		// answer is a community with a label, never the fallback, so a small
		// answer is small under every seed.
		var keys []int32
		for _, v := range in.largestCore(queryK, rng) {
			if _, support := in.sharedKeyword(v); support >= 2*queryK {
				keys = append(keys, v)
			}
		}
		if pool = keys; len(pool) < zipfKeys {
			return nil, fmt.Errorf("%s: largest %d-ĉore has only %d usable vertices at scale %g", w.name, queryK, len(pool), in.scale)
		}
		p.table = make([]query, zipfKeys)
		for i := range p.table {
			p.table[i] = coreQuery(pool[i])
			if i%4 == 1 {
				// A keyword q itself lacks can be shared by no community around
				// q: always the fallback answer, the whole k-ĉore, two orders
				// larger than the W(q) answers. Every fourth rank draws a quarter
				// of the requests: the median request is a small answer, the
				// tail a large one, and neither sits on the edge between them.
				p.table[i].Keywords = in.foreignKeyword(pool[i])
			}
			p.prime = append(p.prime, int32(i))
		}
		p.order = make([][]int32, clients)
		for c := range p.order {
			z := rand.NewZipf(rand.New(rand.NewSource(rng.Int63())), zipfS, 1, zipfKeys-1)
			p.order[c] = make([]int32, streamLen)
			for i := range p.order[c] {
				p.order[c][i] = int32(z.Uint64())
			}
		}
	default: // core-cold, and the reader of mixed-rw
		p.table = make([]query, len(pool))
		for i, v := range pool {
			p.table[i] = coreQuery(v)
		}
		readers := clients
		if w.writer {
			readers = clients - 1
		}
		p.order = make([][]int32, readers)
		for i := range p.table {
			p.order[i%readers] = append(p.order[i%readers], int32(i))
		}
	}
	for i := range p.table {
		p.table[i].body = p.table[i].encode("")
	}
	// Every workload draws the writer's stream: mixed-rw runs it beside its
	// reads, the others use a prefix as the traced run's write probes.
	n := probeWrites
	if w.writer {
		n = max(n, int(writeRate*total.Seconds())+1)
	}
	p.writer = w.writer
	var allow *allowances
	p.writes, allow = newWriteGen(in, rand.New(rand.NewSource(rng.Int63()))).generate(n)
	if w.writer {
		p.allow = allow
	}
	return p, nil
}

// modeQuery builds the modes-open query of the given mode at vertex v.
func (in *inputs) modeQuery(mode string, v int32) query {
	q := query{ID: v, K: queryK, Mode: mode}
	switch mode {
	case "core":
		q.Mode = ""
	case "fixed":
		q.Keywords, _ = in.sharedKeyword(v)
	case "threshold":
		q.Keywords, q.Theta = in.firstKeywords(v, 3), 0.3
	case "similar":
		q.Tau = 0.2
	case "approx":
		q.Epsilon = 0.1
	}
	return q
}
