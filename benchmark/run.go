package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

const (
	// setupBoots is how often an untraced run boots acqd; setup_s is the
	// median, the last boot serves the workload.
	setupBoots = 3
	// basicGChecks is how many core queries per run must agree with the
	// index-free basic-g algorithm on the label size.
	basicGChecks = 20
	// maxFailRatio is the share of operations that may fail before the run
	// itself counts as incorrect.
	maxFailRatio = 0.001
	// Write-path cadence of mixed-rw, scaled down from the defaults
	// (4096 / 65536) so that at writeRate several compactions and checkpoints
	// complete inside one window.
	mixedCompactThreshold = "512"
	mixedCheckpointEvery  = "1024"
	minBackgroundCycles   = 3
	// probeBatches is the length of the read-only workloads' write probe.
	probeBatches = 64
	// slices is how many equal parts the window is cut into; see summarise.
	slices = 5
)

// runConfig is one invocation of one workload.
type runConfig struct {
	w       workloadDef
	seed    int64
	window  time.Duration
	trace   bool
	quick   bool
	bin     string // built acqd
	workdir string // scratch, removed by the caller
	dir     string // this run's own directory under workdir
	outdir  string // where trace-<workload>.json goes
	log     io.Writer
}

func (rc *runConfig) warm() time.Duration { return rc.window / 5 }

// runResult is one run's line in results.json; the contract's result line is
// its four leading fields.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     int               `json:"trace"`
	// Info carries what is printed but not gated: sample counts, the tail
	// percentile actually reported, response sizes, per-mode shares.
	Info map[string]float64 `json:"info"`
}

// resultLine is the contract's last line of standard output.
func (r *runResult) resultLine() string {
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // plain data; cannot fail
	}
	return string(line)
}

// runWorkload performs one run: untimed preparation, boot(s), the server
// window, the checks after it and, for a traced run, the in-process replay.
// An error means the run could not be measured or failed a check that
// invalidates it outright; a run that merely saw failures returns normally
// with Correct false.
func runWorkload(ctx context.Context, rc *runConfig) (*runResult, error) {
	logf := func(format string, args ...any) { fmt.Fprintf(rc.log, format+"\n", args...) }
	scale := baseScale / rc.w.scaleDiv
	if rc.quick {
		scale /= 8
	}
	// A fresh directory per run: a durable directory left by an earlier run
	// of the suite would be recovered instead of built.
	dir, err := os.MkdirTemp(rc.workdir, rc.w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	prepStart := time.Now()
	in, err := prepare(dir, scale)
	if err != nil {
		return nil, err
	}
	rc.dir = dir
	p, err := buildPlan(rc.w, in, rc.seed, rc.warm()+rc.window)
	if err != nil {
		return nil, err
	}
	logf("# %s seed %d: dblp@%g, %d vertices / %d edges, %d query vertices with core ≥ %d (prepared in %.1f s)",
		rc.w.name, rc.seed, scale, in.g.NumVertices(), in.g.NumEdges(), p.poolSize, queryK, time.Since(prepStart).Seconds())

	args := []string{"-in", in.file}
	if rc.w.writer {
		// Pre-build the durable directory with the real binary: one boot from
		// text arms durability and writes the first checkpoint; the measured
		// boots then recover from it.
		data := filepath.Join(dir, "data")
		seedBoot, err := startServer(ctx, rc.bin, "-in", in.file, "-data-dir", data)
		if err != nil {
			return nil, fmt.Errorf("pre-building %s: %w", data, err)
		}
		seedBoot.stop()
		args = []string{"-data-dir", data, "-compact-threshold", mixedCompactThreshold, "-checkpoint-every", mixedCheckpointEvery}
	}

	boots := setupBoots
	if rc.trace {
		boots = 1
	}
	var s *server
	var ready []float64
	for i := 0; i < boots; i++ {
		if s != nil {
			s.stop()
		}
		if s, err = startServer(ctx, rc.bin, args...); err != nil {
			return nil, err
		}
		ready = append(ready, s.ready.Seconds())
	}
	defer func() { s.stop() }()

	d := &driver{s: s, w: rc.w, p: p, in: in}
	load, err := d.run(ctx, rc.warm(), rc.window)
	if err != nil {
		return nil, err
	}

	res := &runResult{Workload: rc.w.name, Seed: rc.seed, Seconds: rc.window.Seconds(), Info: map[string]float64{}}
	values := map[string]float64{"setup_s": median(ready)}
	rc.summarise(load, res, values)

	// --- Checks after the window.
	mismatch, err := d.checkBasicG(basicGChecks)
	if err != nil {
		return nil, err
	}
	res.Attempted += basicGChecks
	res.Failed += mismatch
	res.Info["basic_g_mismatches"] = float64(mismatch)
	asserts := rc.assertShape(load, res)

	if rc.trace {
		res.Trace = 1
		if !p.writer {
			kw, edge, elapsed := d.writeProbe()
			rc.summariseWrites(kw, edge, elapsed, res, values)
		}
		values["fail_ratio"] = float64(res.Failed) / float64(max(res.Attempted, 1))
		if err := rc.traceRun(in, p, values, res); err != nil {
			return nil, err
		}
	}
	if rc.w.writer {
		// Crash safety: kill without warning, recover from the directory alone,
		// and require every acknowledged version to be there.
		s.stop()
		start := time.Now()
		if s, err = startServer(ctx, rc.bin, args...); err != nil {
			return nil, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		h, err := s.health()
		if err != nil {
			return nil, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		res.Info["recover_s"] = time.Since(start).Seconds()
		if h.Version < load.lastAck {
			return nil, fmt.Errorf("acknowledged version %d lost: recovered version %d after SIGKILL", load.lastAck, h.Version)
		}
		logf("  recovered version %d ≥ last acknowledged %d in %.2f s", h.Version, load.lastAck, res.Info["recover_s"])
	}

	defs := endToEnd
	if rc.trace {
		defs = perLayer
	}
	var missing []string
	res.Metrics, missing = pick(defs, values)
	if len(missing) > 0 {
		return nil, fmt.Errorf("%s: no measurement for %v", rc.w.name, missing)
	}
	res.Correct = len(asserts) == 0 && float64(res.Failed) <= maxFailRatio*float64(res.Attempted)
	for _, a := range asserts {
		logf("  ASSERTION FAILED: %s", a)
	}
	for _, e := range load.errs {
		logf("  failed operation: %s", e)
	}
	if !res.Correct {
		logf("  acqd stderr:\n%s", s.stderr)
	}
	rc.print(res, defs)
	return res, nil
}

// summarise turns the window's samples into the end-to-end values. The
// window is cut into equal slices and every timing, rate and ratio is the
// median of its per-slice values: one collection cycle, checkpoint or
// pathological query then moves one slice, not the run's number. (A slice's
// tail is the highest percentile with ten of the slice's samples beyond it.)
func (rc *runConfig) summarise(load *loadResult, res *runResult, values map[string]float64) {
	type slice struct {
		lat                         []float64
		reads, ok, sloOK, attempted int
		lastDone                    time.Duration // latest completion among the slice's answered reads
	}
	per := make([]slice, slices)
	at := func(s sample) *slice {
		i := int((s.due - load.warm) * slices / load.window)
		return &per[min(max(i, 0), slices-1)]
	}
	var late, all []float64
	okReads, bytes := 0, 0
	for _, s := range load.reads {
		sl := at(s)
		sl.reads++
		sl.attempted++
		late = append(late, ms(s.sent-s.due))
		if !s.ok {
			continue
		}
		okReads++
		bytes += s.bytes
		sl.ok++
		sl.lastDone = max(sl.lastDone, s.done)
		sl.lat = append(sl.lat, s.latencyMS())
		all = append(all, s.latencyMS())
		if s.done-s.due <= sloLimit {
			sl.sloOK++
		}
	}
	for _, group := range [][]sample{load.kwWrites, load.edgeWrites} {
		for _, s := range group {
			at(s).attempted++
		}
	}
	res.Attempted = len(load.reads) + len(load.kwWrites) + len(load.edgeWrites)
	for _, group := range [][]sample{load.reads, load.kwWrites, load.edgeWrites} {
		for _, s := range group {
			if !s.ok {
				res.Failed++
			}
		}
	}
	var p50, p99, pct, qps, cpu, slo []float64
	for i, sl := range per {
		tp, tv := tail(sl.lat)
		p50 = append(p50, median(sl.lat))
		p99 = append(p99, tv)
		pct = append(pct, tp)
		// Answered searches over the time it took to answer them: from the
		// slice's start to the last of its answers.
		start := load.warm + load.window*time.Duration(i)/slices
		qps = append(qps, float64(sl.ok)/max(sl.lastDone-start, time.Millisecond).Seconds())
		cpu = append(cpu, ms(load.cpuAt[i+1]-load.cpuAt[i])/float64(max(sl.attempted, 1)))
		slo = append(slo, float64(sl.sloOK)/float64(max(sl.reads, 1)))
	}
	values["read_p50_ms"] = median(p50)
	values["read_p99_ms"] = median(p99)
	values["read_qps"] = median(qps)
	values["cpu_ms_per_req"] = median(cpu)
	values["rss_peak_mb"] = load.rssPeakMB
	values["slo_ok_ratio"] = median(slo)
	_, values["gen.lateness_p99_ms"] = tail(late)
	wholePct, wholeTail := tail(all)
	res.Info["read_samples"] = float64(len(all))
	res.Info["read_tail_percentile"] = median(pct)
	res.Info["read_whole_window_p50_ms"] = median(all)
	res.Info["read_whole_window_tail_ms"] = wholeTail
	res.Info["read_whole_window_tail_percentile"] = wholePct
	res.Info["read_resp_bytes_mean"] = float64(bytes) / float64(max(okReads, 1))
	total := load.cpuAt[slices] - load.cpuAt[0]
	res.Info["server_cpu_cores"] = total.Seconds() / load.window.Seconds()
	hits := float64(load.after.CacheHits - load.before.CacheHits)
	misses := float64(load.after.CacheMisses - load.before.CacheMisses)
	values["acq.cache.hit_ratio"] = hits / max(hits+misses, 1)
	res.Info["cache_hit_ratio"] = values["acq.cache.hit_ratio"]
	col0, col1 := load.before.Collections["default"], load.after.Collections["default"]
	values["engine.shed_total"] = float64(load.after.ShedTotal - load.before.ShedTotal)
	values["acq.delta_publishes"] = float64(col1.DeltaPublishes - col0.DeltaPublishes)
	values["acq.compactions"] = float64(col1.CompactionsTotal - col0.CompactionsTotal)
	values["acq.checkpoints"] = float64(col1.CheckpointsTotal - col0.CheckpointsTotal)
	if rc.w.writer {
		rc.summariseWrites(load.kwWrites, load.edgeWrites, load.window, res, values)
		res.Info["compactions"] = values["acq.compactions"]
		res.Info["checkpoints"] = values["acq.checkpoints"]
	}
}

// summariseWrites turns write samples into the write_* values.
func (rc *runConfig) summariseWrites(kw, edge []sample, window time.Duration, res *runResult, values map[string]float64) {
	var kwLat, edgeLat []float64
	effective := 0
	for _, s := range kw {
		if s.ok {
			kwLat = append(kwLat, s.latencyMS())
		}
		effective += s.effective
	}
	for _, s := range edge {
		if s.ok {
			edgeLat = append(edgeLat, s.latencyMS())
		}
		effective += s.effective
	}
	pct, p99 := tail(kwLat)
	values["write_p50_ms"] = median(kwLat)
	values["write_p99_ms"] = p99
	values["write_edge_p50_ms"] = median(edgeLat)
	values["write_ops_per_s"] = float64(effective) / window.Seconds()
	res.Info["write_samples"] = float64(len(kwLat))
	res.Info["write_tail_percentile"] = pct
	res.Info["write_edge_samples"] = float64(len(edgeLat))
}

// assertShape checks that the workload did what it claims; each returned
// string is a violated claim.
func (rc *runConfig) assertShape(load *loadResult, res *runResult) []string {
	var out []string
	if len(load.reads) == 0 {
		out = append(out, "no read completed inside the window")
	}
	ratio := res.Info["cache_hit_ratio"]
	switch rc.w.name {
	case "hot-zipf":
		if ratio < 0.95 {
			out = append(out, fmt.Sprintf("hot-zipf: result-cache hit ratio %.3f < 0.95", ratio))
		}
	case "core-cold":
		if ratio > 0.05 {
			out = append(out, fmt.Sprintf("core-cold: result-cache hit ratio %.3f > 0.05", ratio))
		}
	}
	if rc.w.writer && !rc.quick {
		for _, name := range []string{"compactions", "checkpoints"} {
			if res.Info[name] < minBackgroundCycles {
				out = append(out, fmt.Sprintf("%s: %g %s inside the window, want ≥ %d: the run is too short", rc.w.name, res.Info[name], name, minBackgroundCycles))
			}
		}
	}
	if rc.w.open {
		total, nonEmpty := map[string]int{}, map[string]int{}
		for _, s := range load.reads {
			if s.ok {
				total[s.mode]++
				if s.nonEmpty {
					nonEmpty[s.mode]++
				}
			}
		}
		modes := make([]string, 0, len(total))
		for m := range total {
			modes = append(modes, m)
		}
		sort.Strings(modes)
		for _, m := range modes {
			share := float64(nonEmpty[m]) / float64(total[m])
			res.Info["nonempty_share."+m] = share
			if share < 0.5 {
				out = append(out, fmt.Sprintf("modes-open: only %.0f%% of %s answers are non-empty", 100*share, m))
			}
		}
	}
	return out
}

// checkBasicG re-asks n core queries of the plan with the index-free basic-g
// algorithm and counts label sizes that differ from the indexed answer's.
// Both answers come from the same server version: the writer has stopped.
func (d *driver) checkBasicG(n int) (mismatches int, err error) {
	asked := 0
	for i := 0; i < len(d.p.table) && asked < n; i++ {
		q := &d.p.table[i]
		if q.Mode != "" && q.Mode != "core" {
			continue
		}
		asked++
		var got [2]answer
		for j, algo := range []string{"", "basic-g"} {
			status, body, err := d.s.post(d.s.ctl, "/v1/search", q.encode(algo))
			if err != nil {
				return 0, fmt.Errorf("basic-g check: %w\n%s", err, d.s.stderr)
			}
			if status != 200 {
				return 0, fmt.Errorf("basic-g check: vertex %d algo %q: status %d: %.200s", q.ID, algo, status, body)
			}
			if err := json.Unmarshal(body, &got[j]); err != nil {
				return 0, fmt.Errorf("basic-g check: %w", err)
			}
		}
		if got[0].Result.LabelSize != got[1].Result.LabelSize {
			mismatches++
		}
	}
	return mismatches, nil
}

// writeProbe gives the read-only workloads their write_* control values: a
// short closed loop of the seeded write stream against the idle server,
// after the window. (mixed-rw reports its window's writes instead.)
func (d *driver) writeProbe() (kw, edge []sample, elapsed time.Duration) {
	t0 := time.Now()
	for i := 0; i < probeBatches; i++ {
		sent := time.Since(t0)
		o := d.write(d.s.ctl, &d.p.writes[i])
		s := sample{due: sent, sent: sent, done: time.Since(t0), outcome: o}
		if d.p.writes[i].edge {
			edge = append(edge, s)
		} else {
			kw = append(kw, s)
		}
	}
	return kw, edge, time.Since(t0)
}

// print writes every reported metric by name with its unit, then the info.
func (rc *runConfig) print(res *runResult, defs []metricDef) {
	kind := "end-to-end (untraced)"
	if rc.trace {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(rc.log, "%s — %s, %g s window, %d attempted, %d failed, correct=%v\n",
		rc.w.name, kind, rc.window.Seconds(), res.Attempted, res.Failed, res.Correct)
	for _, d := range defs {
		m := res.Metrics[d.Name]
		fmt.Fprintf(rc.log, "  %-28s %14.4f %s\n", d.Name, m.Value, m.Unit)
	}
	keys := make([]string, 0, len(res.Info))
	for k := range res.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(rc.log, "  (%s = %.4g)\n", k, res.Info[k])
	}
}
