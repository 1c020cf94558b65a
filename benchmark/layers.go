package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	acq "github.com/acq-search/acq"
	"github.com/acq-search/acq/engine"
	"github.com/acq-search/acq/internal/core"
	"github.com/acq-search/acq/internal/dataio"
	"github.com/acq-search/acq/internal/fpm"
	"github.com/acq-search/acq/internal/graph"
	"github.com/acq-search/acq/internal/kcore"
	"github.com/acq-search/acq/internal/lru"
	"github.com/acq-search/acq/internal/wal"
)

// Sizes of the traced run. The replay is sequential and in-process; its ops
// are the first traceReads searches of the workload's canonical order and the
// first write batches of the seeded write stream.
const (
	traceReads      = 100           // searches replayed at every level
	traceKwWrites   = 48            // traced keyword write requests
	traceEdgeWrites = 3             // traced edge write requests
	perWrite        = 3             // consecutive same-kind batches one traced write request takes
	writeChunks     = 3             // compaction + checkpoint after each chunk of writes
	unitQueries     = spareVertices // extra core queries probed level by level
	unitModeQueries = 4             // queries per non-core evaluator
	recoverBatches  = 4             // keyword batches left in the WAL for acq.recover
	lruGets         = 100000

	// Request identifiers: the replayed searches are 0..traceReads-1; every
	// other family of spans gets its own range, so that spans sharing an
	// identifier always belong to one request.
	unitBase  = 10000 // unit probes of the read-side layers
	writeBase = 20000 // traced write requests
	probeBase = 30000 // set-up and storage probes
)

// layers is the in-process stack the traced run calls level by level: a
// loopback server and the bare handler over one durable acq.Graph, and below
// them the benchmark's own frozen graph, CL-tree, maintainer and WAL built
// from the same generated file.
type layers struct {
	t       *tracer
	in      *inputs
	kw      []*writeBatch // the write stream's keyword batches, in order
	edge    []*writeBatch // and its edge batches
	g       *acq.Graph
	handler http.Handler
	srv     *httptest.Server

	fz    *graph.Frozen
	tree  *core.Tree
	ops   *graph.SetOps
	maint *core.Maintainer
	wlog  *wal.Log
	walOp int // ops appended to wlog
}

// traceRun replays the workload in-process once per level of the stack,
// records a span around every call, writes trace-<workload>.json and derives
// the per-layer values.
func (rc *runConfig) traceRun(in *inputs, p *plan, values map[string]float64, res *runResult) error {
	dir := filepath.Join(rc.dir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	lv := &layers{t: newTracer(), in: in}
	for i := range p.writes {
		if p.writes[i].edge {
			lv.edge = append(lv.edge, &p.writes[i])
		} else {
			lv.kw = append(lv.kw, &p.writes[i])
		}
	}
	if len(lv.kw) < perWrite*traceKwWrites+recoverBatches+1 || len(lv.edge) < perWrite*traceEdgeWrites {
		return fmt.Errorf("traced run: write stream too short: %d keyword and %d edge batches", len(lv.kw), len(lv.edge))
	}
	t := lv.t

	// --- Set-up layers, timed on the way to building the benchmark's own
	// copy of the stack. What acqd does between spawn and ready.
	var own *graph.Graph
	var err error
	t.call("dataio.read_text", probeBase, "", func() {
		var f *os.File
		if f, err = os.Open(in.file); err == nil {
			own, err = dataio.ReadText(f)
			f.Close()
		}
	})
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	for i := 0; i < 2; i++ {
		t.call("kcore.decompose", probeBase+i, "", func() { kcore.Decompose(own) })
		t.call("graph.freeze", probeBase+i, "", func() { lv.fz = own.Freeze(1) })
		t.call("core.build", probeBase+i, "", func() { lv.tree = core.BuildAdvanced(lv.fz) })
	}
	lv.ops = graph.NewSetOps(lv.fz)
	lv.maint = core.NewMaintainer(core.BuildAdvanced(own))
	if lv.wlog, err = wal.Create(filepath.Join(dir, "probe.wal"), wal.SyncAlways); err != nil {
		return err
	}
	defer lv.wlog.Close()
	edges := float64(lv.fz.NumEdges())
	values["graph.bytes_per_edge"] = float64(lv.fz.SizeBytes()) / edges

	data := filepath.Join(dir, "data")
	eng := engine.New(nil, engine.Config{DataDir: data, Logf: func(string, ...any) {}})
	if lv.g, err = engine.LoadFile(in.file); err != nil {
		return err
	}
	if _, err := eng.AddCollection(engine.DefaultCollection, lv.g); err != nil {
		return err
	}
	lv.handler = eng.Handler()
	lv.srv = httptest.NewServer(lv.handler)
	defer lv.srv.Close()

	// mixed-rw reads through the overlay its writes leave behind; the other
	// workloads read the frozen base first.
	if p.writer {
		if err := lv.replayWrites(); err != nil {
			return err
		}
	}
	allocs, respBytes, err := lv.replayReads(p)
	if err != nil {
		return err
	}
	runtime.GC()
	if !p.writer {
		if err := lv.replayWrites(); err != nil {
			return err
		}
	}
	runtime.GC()
	lv.unitProbes(p)
	runtime.GC()
	if err := lv.storageProbes(dir, data, values); err != nil {
		return err
	}

	if err := writeTrace(filepath.Join(rc.outdir, "trace-"+rc.w.name+".json"),
		traceFile{Workload: rc.w.name, Seed: rc.seed, Spans: t.spans}); err != nil {
		return err
	}
	lv.derive(values, res)
	values["engine.search.allocs"] = allocs
	values["engine.search.resp_bytes"] = respBytes
	values["wal.bytes_per_op"] = float64(lv.wlog.Size()) / float64(max(lv.walOp, 1))
	values["lru.get_ns"] = lruGetNS(p)
	values["trace.overhead_ratio"] = median(durationsMS(t.spans, "transport")) / values["read_p50_ms"]
	return nil
}

// replayReads issues every search once per level, level after level within
// one request: loopback round trip, bare handler on a recorder,
// acq.Snapshot.Search, the core evaluator on the benchmark's own tree, and
// unit calls into the leaves. Each level's span names the level above as its
// parent. The levels of a request run back to back so that whatever the
// process is doing at that moment — a collection cycle spans some fifteen
// requests — weighs on all of them alike and cancels in the subtraction.
//
// A request must cost the same at every level, so the result cache may not
// turn the second call into a hit: a plan that primes the cache (hot-zipf)
// replays with every call a hit, any other plan replays with the cache off —
// which drops one failed probe and one insertion per request, a fraction of a
// microsecond (lru.get_ns).
func (lv *layers) replayReads(p *plan) (allocsPerReq, respBytes float64, err error) {
	t := lv.t
	reads := p.reads(traceReads)
	client := lv.srv.Client()
	if len(p.prime) == 0 {
		lv.g.SetResultCacheSize(-1)
	}
	snap := lv.g.Snapshot()
	for _, i := range p.prime {
		if _, err := snap.Search(context.Background(), p.table[i].acqQuery()); err != nil {
			return 0, 0, fmt.Errorf("traced run: priming: %w", err)
		}
	}
	runtime.GC()
	var before, after runtime.MemStats
	var mallocs uint64
	total := 0
	for r, q := range reads {
		t.call("transport", r, "", func() {
			var resp *http.Response
			if resp, err = client.Post(lv.srv.URL+"/v1/search", "application/json", bytes.NewReader(q.body)); err == nil {
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err == nil && resp.StatusCode != 200 {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
			}
		})
		if err != nil {
			return 0, 0, fmt.Errorf("traced transport level: %w", err)
		}

		req := httptest.NewRequest("POST", "/v1/search", bytes.NewReader(q.body))
		rec := httptest.NewRecorder()
		runtime.ReadMemStats(&before)
		t.call("engine.search", r, "transport", func() { lv.handler.ServeHTTP(rec, req) })
		runtime.ReadMemStats(&after)
		if rec.Code != 200 {
			return 0, 0, fmt.Errorf("traced handler level: status %d: %.200s", rec.Code, rec.Body)
		}
		mallocs += after.Mallocs - before.Mallocs
		total += rec.Body.Len()

		if err := lv.searchLevels(snap, r, q, "engine.search"); err != nil {
			return 0, 0, err
		}
	}
	// The unit probes want both the miss and the hit path.
	lv.g.SetResultCacheSize(0)
	return float64(mallocs) / float64(len(reads)), float64(total) / float64(len(reads)), nil
}

// searchLevels runs one query at the acq level and, when the result cache
// missed, at the core level and the leaves below it.
func (lv *layers) searchLevels(snap *acq.Snapshot, r int, q *query, parent string) error {
	t := lv.t
	hits0, _ := lv.g.ResultCacheStats()
	var err error
	t.call("acq.search", r, parent, func() { _, err = snap.Search(context.Background(), q.acqQuery()) })
	if err != nil {
		return fmt.Errorf("traced acq level: vertex %d: %w", q.ID, err)
	}
	if hits, _ := lv.g.ResultCacheStats(); hits > hits0 {
		t.spans[len(t.spans)-1].Name = "acq.cache.hit"
		return nil
	}
	name := lv.coreEval(r, q, "acq.search")
	if name == "core.eval.core" {
		lv.leaves(r, q, name)
	}
	return nil
}

// coreEval runs q's evaluator on the benchmark's own tree and returns the
// span's name.
func (lv *layers) coreEval(r int, q *query, parent string) string {
	ctx := context.Background()
	qv := graph.VertexID(q.ID)
	var s []graph.KeywordID
	if len(q.Keywords) > 0 {
		s, _ = lv.fz.Dict().LookupAll(q.Keywords)
	}
	mode := q.Mode
	if mode == "" {
		mode = "core"
	}
	name := "core.eval." + mode
	// Evaluator errors cannot occur here: the same query just succeeded one
	// level up, on a graph built from the same file.
	lv.t.call(name, r, parent, func() {
		switch mode {
		case "fixed":
			_, _ = core.SW(ctx, lv.tree, qv, q.K, s)
		case "threshold":
			_, _ = core.SWT(ctx, lv.tree, qv, q.K, s, q.Theta)
		case "similar":
			_, _ = core.SJ(ctx, lv.tree, qv, q.K, s, q.Tau)
		case "clique":
			_, _ = core.CliqueSearch(ctx, lv.tree, qv, q.K, s)
		case "truss":
			_, _ = core.TrussSearchD(ctx, lv.tree, qv, q.K, 0, s)
		case "approx":
			_, _, _ = core.DecApprox(ctx, lv.tree, qv, q.K, s, core.DefaultOptions(), core.Approx{Epsilon: q.Epsilon})
		default:
			_, _ = core.Dec(ctx, lv.tree, qv, q.K, s, core.DefaultOptions())
		}
	})
	return name
}

// leaves makes one call into each leaf the core evaluator is built from, at
// this query's scale: locate q's k-ĉore in the CL-tree, mine q's neighbours'
// keyword sets, and filter, take the component of, and peel that k-ĉore. They
// are unit costs, not a decomposition: Dec makes a data-dependent number of
// such calls on shrinking candidate sets.
func (lv *layers) leaves(r int, q *query, parent string) {
	t := lv.t
	qv := graph.VertexID(q.ID)
	var sub []graph.VertexID
	t.call("core.locate", r, parent, func() {
		sub = lv.tree.SubtreeVertices(lv.tree.LocateRoot(qv, int32(q.K)))
	})
	s := lv.fz.Keywords(qv)
	if len(q.Keywords) > 0 {
		s, _ = lv.fz.Dict().LookupAll(q.Keywords)
	}
	var txns [][]fpm.Item
	for _, v := range lv.fz.Neighbors(qv) {
		var txn []fpm.Item
		for _, w := range s {
			if lv.fz.HasKeyword(v, w) {
				txn = append(txn, fpm.Item(w))
			}
		}
		if len(txn) > 0 {
			txns = append(txns, txn)
		}
	}
	var sets []fpm.Itemset
	t.call("fpm.mine", r, parent, func() { sets = fpm.FPGrowth(txns, q.K) })
	// Filter by the largest mined set: the first candidate Dec verifies.
	var label []graph.KeywordID
	for _, set := range sets {
		if len(set.Items) > len(label) {
			label = label[:0]
			for _, it := range set.Items {
				label = append(label, graph.KeywordID(it))
			}
		}
	}
	label = graph.SortKeywordSet(label)
	t.call("graph.setops.filter", r, parent, func() { lv.ops.FilterByKeywords(sub, label) })
	t.call("graph.setops.component", r, parent, func() { lv.ops.ComponentOf(sub, qv) })
	t.call("graph.setops.peel", r, parent, func() { lv.ops.PeelToMinDegree(sub, q.K) })
}

// replayWrites issues the seeded write stream level by level. A traced write
// request takes three consecutive batches of the same kind. The first goes
// through the handler and the second straight to Graph.ApplyMutations, both
// while the published snapshot is unread, so both are decode/apply/WAL with
// no publication inside and their difference is the handler's own work. Then
// Graph.Snapshot() pays the publication of what the two left behind. The
// third batch, untimed, is applied while that snapshot counts as read — it
// publishes eagerly and leaves its snapshot unread for the next request.
// Below the acq level the same ops go to the benchmark's own maintainer and
// WAL. After each chunk the overlay is compacted and checkpointed.
func (lv *layers) replayWrites() error {
	t := lv.t
	request := func(r int, batches []*writeBatch, applyName, maintName string) error {
		r += writeBase
		handled, applied, settle := batches[0], batches[1], batches[2]
		req := httptest.NewRequest("POST", "/v1/mutations", bytes.NewReader(handled.body))
		rec := httptest.NewRecorder()
		t.call("engine.mutations", r, "", func() { lv.handler.ServeHTTP(rec, req) })
		if rec.Code != 200 {
			return fmt.Errorf("traced handler level: mutations status %d: %.200s", rec.Code, rec.Body)
		}
		t.call(applyName, r, "engine.mutations", func() { lv.g.ApplyMutations(applied.muts) })
		t.call("acq.publish", r, "", func() { lv.g.Snapshot() })
		lv.g.ApplyMutations(settle.muts)
		// The benchmark's own master receives all three batches, in stream
		// order, so every op stays effective; only the second's are timed.
		for _, b := range batches {
			rec := wal.Record{PreVersion: uint64(lv.walOp)}
			for _, m := range b.muts {
				if b == applied {
					t.call(maintName, r, applyName, func() { lv.maintain(m) })
				} else {
					lv.maintain(m)
				}
				rec.Ops = append(rec.Ops, walOp(m))
			}
			if b == applied {
				var err error
				t.call("wal.append_sync", r, applyName, func() { err = lv.wlog.Append(rec) })
				if err != nil {
					return fmt.Errorf("traced WAL append: %w", err)
				}
				lv.walOp += len(rec.Ops)
			}
		}
		return nil
	}
	// Start unread: apply one untraced batch over the read snapshot.
	lv.g.Snapshot()
	lv.g.ApplyMutations(lv.kw[perWrite*traceKwWrites+recoverBatches].muts)
	lv.maintainAll(lv.kw[perWrite*traceKwWrites+recoverBatches])
	k, e := 0, 0
	for chunk := 0; chunk < writeChunks; chunk++ {
		for i := 0; i < traceKwWrites/writeChunks; i++ {
			if err := request(k, lv.kw[perWrite*k:perWrite*(k+1)], "acq.apply.kw_batch", "core.maintain.kw"); err != nil {
				return err
			}
			k++
		}
		for i := 0; i < traceEdgeWrites/writeChunks; i++ {
			if err := request(traceKwWrites+e, lv.edge[perWrite*e:perWrite*(e+1)], "acq.apply.edge", "core.maintain.edge"); err != nil {
				return err
			}
			e++
		}
		if chunk == writeChunks-1 {
			break // the last chunk's overlay stays for the reads; storageProbes folds it
		}
		if err := lv.compactAndCheckpoint(chunk); err != nil {
			return err
		}
	}
	return nil
}

func (lv *layers) maintainAll(b *writeBatch) {
	for _, m := range b.muts {
		lv.maintain(m)
	}
}

func (lv *layers) compactAndCheckpoint(i int) error {
	var err error
	lv.t.call("acq.compact", probeBase+i, "", func() { lv.g.Compact() })
	lv.t.call("acq.checkpoint", probeBase+i, "", func() { err = lv.g.Checkpoint() })
	if err != nil {
		return fmt.Errorf("traced checkpoint: %w", err)
	}
	return nil
}

// maintain applies one mutation to the benchmark's own master through the
// index maintainer.
func (lv *layers) maintain(m acq.Mutation) {
	switch m.Op {
	case acq.OpAddKeyword:
		lv.maint.AddKeyword(graph.VertexID(m.Vertex), m.Keyword)
	case acq.OpRemoveKeyword:
		lv.maint.RemoveKeyword(graph.VertexID(m.Vertex), m.Keyword)
	case acq.OpInsertEdge:
		lv.maint.InsertEdge(graph.VertexID(m.U), graph.VertexID(m.V))
	case acq.OpRemoveEdge:
		lv.maint.RemoveEdge(graph.VertexID(m.U), graph.VertexID(m.V))
	}
}

func walOp(m acq.Mutation) wal.Op {
	switch m.Op {
	case acq.OpInsertEdge:
		return wal.Op{Kind: wal.OpInsertEdge, U: m.U, V: m.V}
	case acq.OpRemoveEdge:
		return wal.Op{Kind: wal.OpRemoveEdge, U: m.U, V: m.V}
	case acq.OpAddKeyword:
		return wal.Op{Kind: wal.OpAddKeyword, U: m.Vertex, Word: m.Keyword}
	default:
		return wal.Op{Kind: wal.OpRemoveKeyword, U: m.Vertex, Word: m.Keyword}
	}
}

// unitProbes gives every workload a sample of every read-side layer, whatever
// its own traffic exercises: core queries at the plan's spare vertices (never
// seen by the replay, so they miss the cache) go through the acq, core and
// leaf levels; then the same key again for the hit path; then each
// non-core evaluator on the benchmark's own tree.
func (lv *layers) unitProbes(p *plan) {
	snap := lv.g.Snapshot()
	pool := make([]*query, len(p.spare))
	for i, v := range p.spare {
		pool[i] = &query{ID: v, K: queryK}
	}
	for i, q := range pool {
		// Errors cannot occur: every pool vertex has core ≥ k.
		_ = lv.searchLevels(snap, unitBase+i, q, "")
	}
	for i, q := range pool {
		lv.t.call("acq.cache.hit", unitBase+unitQueries+i, "", func() {
			_, _ = snap.Search(context.Background(), q.acqQuery())
		})
	}
	for m, mode := range openModes[1:] {
		for i := 0; i < unitModeQueries && i < len(pool); i++ {
			q := lv.in.modeQuery(mode, pool[i].ID)
			lv.coreEval(unitBase+(m+2)*unitQueries+i, &q, "")
		}
	}
}

// storageProbes times the durable formats: the mapped snapshot writer and
// opener on the benchmark's own frozen graph and tree, a clean OpenDurable of
// a checkpointed directory, and a dirty one that has a WAL tail to replay.
func (lv *layers) storageProbes(dir, data string, values map[string]float64) error {
	t := lv.t
	if err := lv.compactAndCheckpoint(writeChunks - 1); err != nil {
		return err
	}
	mapped := filepath.Join(dir, "probe.acqm")
	ft := dataio.FlattenTree(lv.tree)
	for i := 0; i < 2; i++ {
		var err error
		t.call("dataio.write_mapped", probeBase+i, "", func() {
			var f *os.File
			if f, err = os.Create(mapped); err == nil {
				if err = dataio.WriteMapped(f, lv.fz, ft, 0); err == nil {
					err = f.Sync()
				}
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
		})
		if err != nil {
			return fmt.Errorf("traced WriteMapped: %w", err)
		}
	}
	st, err := os.Stat(mapped)
	if err != nil {
		return err
	}
	values["dataio.acqm_bytes_per_edge"] = float64(st.Size()) / float64(lv.fz.NumEdges())
	for i := 0; i < 3; i++ {
		var m *dataio.Mapped
		t.call("dataio.open_mapped", probeBase+i, "", func() { m, err = dataio.OpenMapped(mapped) })
		if err != nil {
			return fmt.Errorf("traced OpenMapped: %w", err)
		}
		m.Close()
	}

	src := filepath.Join(data, engine.DefaultCollection)
	open := func(name, dst string) error {
		if err := copyDir(src, dst); err != nil {
			return err
		}
		var err error
		t.call(name, probeBase, "", func() {
			var g *acq.Graph
			if g, err = acq.OpenDurable(acq.DurableOptions{Dir: dst}); err == nil {
				g.Snapshot()
			}
		})
		if err != nil {
			return fmt.Errorf("traced OpenDurable(%s): %w", dst, err)
		}
		return nil
	}
	if err := open("acq.open_durable", filepath.Join(dir, "clean")); err != nil {
		return err
	}
	// A WAL tail for recovery to replay: a few more keyword batches, no
	// checkpoint.
	for _, b := range lv.kw[perWrite*traceKwWrites : perWrite*traceKwWrites+recoverBatches] {
		lv.g.ApplyMutations(b.muts)
	}
	return open("acq.recover", filepath.Join(dir, "dirty"))
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// lruGetNS times lru.ShardedCache.Get on a cache holding the plan's keys.
func lruGetNS(p *plan) float64 {
	c := lru.NewSharded[acq.Result](acq.DefaultResultCacheSize)
	n := min(len(p.table), zipfKeys)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = string(p.table[i].body)
		c.Put(keys[i], acq.Result{})
	}
	start := time.Now()
	for i := 0; i < lruGets; i++ {
		c.Get(keys[i%n])
	}
	return float64(time.Since(start).Nanoseconds()) / lruGets
}

// spanMetrics maps a per-layer timing to the span whose durations it is the
// median of; scale converts ms to the metric's unit.
var spanMetrics = []struct {
	metric, span string
	scale        float64
}{
	{"acq.cache.hit_ms", "acq.cache.hit", 1},
	{"core.eval.core_ms", "core.eval.core", 1},
	{"core.locate_ms", "core.locate", 1},
	{"fpm.mine_ms", "fpm.mine", 1},
	{"graph.setops.filter_ms", "graph.setops.filter", 1},
	{"graph.setops.component_ms", "graph.setops.component", 1},
	{"graph.setops.peel_ms", "graph.setops.peel", 1},
	{"core.eval.fixed_ms", "core.eval.fixed", 1},
	{"core.eval.threshold_ms", "core.eval.threshold", 1},
	{"core.eval.similar_ms", "core.eval.similar", 1},
	{"core.eval.clique_ms", "core.eval.clique", 1},
	{"core.eval.truss_ms", "core.eval.truss", 1},
	{"core.eval.approx_ms", "core.eval.approx", 1},
	{"acq.apply.kw_batch_ms", "acq.apply.kw_batch", 1},
	{"core.maintain.kw_us", "core.maintain.kw", 1000},
	{"wal.append_sync_ms", "wal.append_sync", 1},
	{"acq.publish_ms", "acq.publish", 1},
	{"acq.apply.edge_ms", "acq.apply.edge", 1},
	{"core.maintain.edge_ms", "core.maintain.edge", 1},
	{"acq.compact_ms", "acq.compact", 1},
	{"acq.checkpoint_ms", "acq.checkpoint", 1},
	{"dataio.write_mapped_ms", "dataio.write_mapped", 1},
	{"dataio.read_text_ms", "dataio.read_text", 1},
	{"kcore.decompose_ms", "kcore.decompose", 1},
	{"core.build_ms", "core.build", 1},
	{"graph.freeze_ms", "graph.freeze", 1},
	{"dataio.open_mapped_ms", "dataio.open_mapped", 1},
	{"acq.open_durable_ms", "acq.open_durable", 1},
	{"acq.recover_ms", "acq.recover", 1},
}

// selfMetrics maps a *.self_ms metric to the span whose self time it is.
var selfMetrics = map[string]string{
	"transport.self_ms":        "transport",
	"engine.search.self_ms":    "engine.search",
	"engine.mutations.self_ms": "engine.mutations",
	"acq.search.self_ms":       "acq.search",
}

// derive turns the recorded spans into the per-layer values, and into the
// two figures that show the workload does what it claims: the evaluator's
// share of the handler span (the median over the replayed requests; a cache
// hit has no evaluator span and counts as 0), and how far the self times of a
// request are from summing to its round trip.
func (lv *layers) derive(values map[string]float64, res *runResult) {
	spans := lv.t.spans
	for _, m := range spanMetrics {
		values[m.metric] = m.scale * median(durationsMS(spans, m.span))
	}
	for metric, name := range selfMetrics {
		// A level replayed faster than the one below it gives a negative
		// difference; the median is reported, never below zero.
		values[metric] = max(0, median(selfTimesMS(spans, name)))
	}
	handler, eval := map[int]time.Duration{}, map[int]time.Duration{}
	for _, s := range spans {
		switch {
		case s.Req >= unitBase:
		case s.Name == "engine.search":
			handler[s.Req] = s.dur()
		case strings.HasPrefix(s.Name, "core.eval."):
			eval[s.Req] = s.dur()
		}
	}
	var shares []float64
	for r, h := range handler {
		shares = append(shares, float64(eval[r])/float64(h))
	}
	res.Info["trace_evaluator_share_of_handler"] = median(shares)
	res.Info["trace_self_sum_max_error"] = selfSumError(spans)
	res.Info["trace_spans"] = float64(len(spans))
}
