package main

// metricDef is one row of BENCHMARK.json: a metric's name, unit, direction
// and — for end-to-end metrics only — the share of the parent's median by
// which it may worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a caller of acqd sees. Every workload reports every
// one of them from its untraced run. TestBenchmarkJSONMatchesTables keeps
// BENCHMARK.json equal to this table.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "read_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "read_qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_req", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "slo_ok_ratio", Unit: "ratio", Better: "higher", Bound: 0.02},
}

// perLayer lists the report-only metrics of the traced run. The first block
// are the end-to-end rows of the issue that cannot be gated: they exist on
// one workload only, are 0 at the baseline, or (read_p99_ms) do not repeat
// within the largest bound the driver allows. The rest are single-layer
// timings and counts. A timing is the median duration (or
// self time, for *.self_ms) of the spans of that name in trace.json; rows
// marked † in README.md are /metrics deltas across the server window.
var perLayer = []metricDef{
	{Name: "read_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "write_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "write_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "write_edge_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "write_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "gen.lateness_p99_ms", Unit: "ms", Better: "lower"},

	{Name: "transport.self_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.search.self_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.search.resp_bytes", Unit: "B", Better: "lower"},
	{Name: "engine.search.allocs", Unit: "count", Better: "lower"},
	{Name: "engine.mutations.self_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.shed_total", Unit: "count", Better: "lower"},
	{Name: "acq.search.self_ms", Unit: "ms", Better: "lower"},
	{Name: "acq.cache.hit_ms", Unit: "ms", Better: "lower"},
	{Name: "acq.cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "lru.get_ns", Unit: "ns", Better: "lower"},
	{Name: "core.eval.core_ms", Unit: "ms", Better: "lower"},
	{Name: "core.locate_ms", Unit: "ms", Better: "lower"},
	{Name: "fpm.mine_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.setops.filter_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.setops.component_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.setops.peel_ms", Unit: "ms", Better: "lower"},
	{Name: "core.eval.fixed_ms", Unit: "ms", Better: "lower"},
	{Name: "core.eval.threshold_ms", Unit: "ms", Better: "lower"},
	{Name: "core.eval.similar_ms", Unit: "ms", Better: "lower"},
	{Name: "core.eval.clique_ms", Unit: "ms", Better: "lower"},
	{Name: "core.eval.truss_ms", Unit: "ms", Better: "lower"},
	{Name: "core.eval.approx_ms", Unit: "ms", Better: "lower"},
	{Name: "acq.apply.kw_batch_ms", Unit: "ms", Better: "lower"},
	{Name: "core.maintain.kw_us", Unit: "us", Better: "lower"},
	{Name: "wal.append_sync_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "acq.publish_ms", Unit: "ms", Better: "lower"},
	{Name: "acq.delta_publishes", Unit: "count", Better: "higher"},
	{Name: "acq.apply.edge_ms", Unit: "ms", Better: "lower"},
	{Name: "core.maintain.edge_ms", Unit: "ms", Better: "lower"},
	{Name: "acq.compact_ms", Unit: "ms", Better: "lower"},
	{Name: "acq.compactions", Unit: "count", Better: "higher"},
	{Name: "acq.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "acq.checkpoints", Unit: "count", Better: "higher"},
	{Name: "dataio.write_mapped_ms", Unit: "ms", Better: "lower"},
	{Name: "dataio.read_text_ms", Unit: "ms", Better: "lower"},
	{Name: "kcore.decompose_ms", Unit: "ms", Better: "lower"},
	{Name: "core.build_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.freeze_ms", Unit: "ms", Better: "lower"},
	{Name: "dataio.open_mapped_ms", Unit: "ms", Better: "lower"},
	{Name: "acq.open_durable_ms", Unit: "ms", Better: "lower"},
	{Name: "acq.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.bytes_per_edge", Unit: "B", Better: "lower"},
	{Name: "dataio.acqm_bytes_per_edge", Unit: "B", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// metric is one reported value in the result line and in results.json.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick assembles the reported metric set for defs from measured values; a
// name without a measurement is a bug in the benchmark, not a zero.
func pick(defs []metricDef, values map[string]float64) (map[string]metric, []string) {
	out := make(map[string]metric, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out, missing
}
