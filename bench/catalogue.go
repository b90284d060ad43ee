package main

// metricDef names one metric. The two lists below are the benchmark's
// catalogue: BENCHMARK.json repeats them (the smoke test holds the two in
// step), every untraced run reports exactly the end-to-end list and every
// traced run exactly the per-layer list.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndDefs are what a user of the engine sees. None is ever 0.
// Failures travel beside them as the result's attempted/failed epochs;
// wire_bytes_per_tick is 0 on the sequential workloads and therefore
// lives with the per-layer metrics.
var endToEndDefs = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"agent_ticks_per_s", "1/s", higher, 0.25},
	{"epoch_ms_p50", "ms", lower, 0.25},
	{"allocs_per_tick", "count", lower, 0.2},
	{"alloc_kb_per_tick", "KiB", lower, 0.2},
	{"heap_live_peak_mb", "MiB", lower, 0.15},
}

var perLayerDefs = []metricDef{
	{Name: "wire_bytes_per_tick", Unit: "B", Better: lower},

	{Name: "scenario.build_ms", Unit: "ms", Better: lower},
	{Name: "brasil.compile_us", Unit: "us", Better: lower},

	{Name: "spatial.kd_build_us", Unit: "us", Better: lower},
	{Name: "spatial.list_build_us", Unit: "us", Better: lower},
	{Name: "spatial.probe_ns_per_agent", Unit: "ns", Better: lower},
	{Name: "spatial.candidates_per_agent", Unit: "count", Better: lower},
	{Name: "spatial.candidate_hit_ratio", Unit: "ratio", Better: higher},

	{Name: "agent.pack_morton_us", Unit: "us", Better: lower},

	{Name: "partition.route_ns_per_agent", Unit: "ns", Better: lower},
	{Name: "partition.replicas_per_agent", Unit: "count", Better: lower},
	{Name: "partition.imbalance", Unit: "ratio", Better: lower},

	{Name: "engine.tick_us_build", Unit: "us", Better: lower},
	{Name: "engine.tick_us_reuse", Unit: "us", Better: lower},
	{Name: "engine.cache_reuse_ratio", Unit: "ratio", Better: higher},
	{Name: "engine.candidates_per_agent_tick", Unit: "count", Better: lower},
	{Name: "engine.epoch_ms_p90", Unit: "ms", Better: lower},
	{Name: "engine.diff_us", Unit: "us", Better: lower},
	{Name: "engine.delta_bytes_per_agent", Unit: "B", Better: lower},
	{Name: "engine.apply_delta_us", Unit: "us", Better: lower},
	{Name: "engine.clone_envelopes_us", Unit: "us", Better: lower},

	{Name: "mapreduce.empty_tick_us", Unit: "us", Better: lower},
	{Name: "mapreduce.local_bytes_per_tick", Unit: "B", Better: lower},

	{Name: "transport.frame_encode_us", Unit: "us", Better: lower},
	{Name: "transport.frame_decode_us", Unit: "us", Better: lower},
	{Name: "transport.frame_bytes", Unit: "B", Better: lower},
	{Name: "transport.frame_payload_bytes", Unit: "B", Better: lower},
	{Name: "transport.frame_allocs", Unit: "count", Better: lower},
	{Name: "transport.ckpt_frame_encode_us", Unit: "us", Better: lower},
	{Name: "transport.ckpt_frame_bytes", Unit: "B", Better: lower},
	{Name: "transport.loopback_rtt_us", Unit: "us", Better: lower},
	{Name: "transport.loopback_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "transport.mem_send_drain_ns_per_msg", Unit: "ns", Better: lower},

	{Name: "distrib.empty_tick_us", Unit: "us", Better: lower},
	{Name: "distrib.epoch_ms_p90", Unit: "ms", Better: lower},
	{Name: "distrib.msgs_per_tick", Unit: "count", Better: lower},
	{Name: "distrib.ckpt_bytes_per_epoch", Unit: "B", Better: lower},
	{Name: "distrib.full_parts", Unit: "count", Better: lower},
	{Name: "distrib.delta_parts", Unit: "count", Better: higher},
	{Name: "distrib.rebalances", Unit: "count", Better: lower},
	{Name: "distrib.relayed_frames", Unit: "count", Better: lower},
	{Name: "distrib.recoveries", Unit: "count", Better: lower},
	{Name: "distrib.stall_drops", Unit: "count", Better: lower},

	{Name: "trace.overhead_pct", Unit: "%", Better: lower},
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run ends on. Attempted and Failed count epochs.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricsOf attaches the catalogue's units to values; a name the values
// lack reports 0.
func metricsOf(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}
