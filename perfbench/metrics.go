package main

// metricDef declares one metric as BENCHMARK.json records it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. Bound is the share of the parent's median by which a metric
// may worsen before a change counts as a regression. The time bounds are
// wide because the shared 2-vCPU host the benchmark was tuned on drifts by
// 20-40% over minutes: a fixed ALU loop there varies by ±30%, and ten runs
// of one workload (ten seeds) spread by up to 0.28 of their median.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"alloc_mb", "MiB", "lower", 0.1},
	{"peak_rss_mb", "MiB", "lower", 0.2},
}

// perLayer are the single-layer metrics of a traced run and its fixtures.
// baseline.json maps each layer to the end-to-end metric it should move.
var perLayer = []metricDef{
	// World build.
	{Name: "citygen.generate_s", Unit: "s", Better: "lower"},
	{Name: "heatmap.from_photos_s", Unit: "s", Better: "lower"},
	{Name: "pnl.new_model_s", Unit: "s", Better: "lower"},
	{Name: "wigle.sample_s", Unit: "s", Better: "lower"},
	// Knowledge seeding.
	{Name: "core.new_engine_s", Unit: "s", Better: "lower"},
	{Name: "wigle.nearest_ssids_s", Unit: "s", Better: "lower"},
	{Name: "core.engines_per_op", Unit: "count", Better: "lower"},
	{Name: "core.seed_share", Unit: "ratio", Better: "lower"},
	// Scenario phases.
	{Name: "scenario.prestart_s", Unit: "s", Better: "lower"},
	{Name: "scenario.spawn_s", Unit: "s", Better: "lower"},
	{Name: "scenario.event_loop_s", Unit: "s", Better: "lower"},
	{Name: "scenario.assembly_s", Unit: "s", Better: "lower"},
	{Name: "scenario.prestart_share", Unit: "ratio", Better: "lower"},
	{Name: "scenario.spawn_share", Unit: "ratio", Better: "lower"},
	{Name: "scenario.event_loop_share", Unit: "ratio", Better: "lower"},
	{Name: "scenario.assembly_share", Unit: "ratio", Better: "lower"},
	{Name: "scenario.setup_share", Unit: "ratio", Better: "lower"},
	{Name: "scenario.unaccounted_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead", Unit: "ratio", Better: "lower"},
	// Sim engine.
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.queue_depth_hwm", Unit: "count", Better: "lower"},
	// Medium.
	{Name: "medium.frames_sent", Unit: "count", Better: "lower"},
	{Name: "medium.frames_delivered", Unit: "count", Better: "lower"},
	{Name: "medium.fanout", Unit: "ratio", Better: "lower"},
	{Name: "medium.broadcast_ns", Unit: "ns", Better: "lower"},
	// Attacker and City-Hunter engine.
	{Name: "core.broadcast_replies", Unit: "count", Better: "lower"},
	{Name: "attack.probe_responses_sent", Unit: "count", Better: "lower"},
	{Name: "core.responses_per_reply", Unit: "ratio", Better: "lower"},
	{Name: "core.hits", Unit: "count", Better: "higher"},
	{Name: "core.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.broadcast_reply_ns", Unit: "ns", Better: "lower"},
	{Name: "core.broadcast_reply_repeat_ns", Unit: "ns", Better: "lower"},
	// Linker.
	{Name: "core.tracks", Unit: "count", Better: "lower"},
	{Name: "core.relinks", Unit: "count", Better: "higher"},
	// Level of detail.
	{Name: "lod.promotions", Unit: "count", Better: "lower"},
	{Name: "lod.demotions", Unit: "count", Better: "lower"},
	{Name: "lod.promoted_peak", Unit: "count", Better: "lower"},
	{Name: "scenario.roams", Unit: "count", Better: "higher"},
	// Partitions.
	{Name: "partition.cpu_util", Unit: "ratio", Better: "higher"},
	{Name: "partition.speedup", Unit: "ratio", Better: "higher"},
	// Campaign pool.
	{Name: "campaign.worker_util", Unit: "ratio", Better: "higher"},
	// Runtime.
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_s", Unit: "s", Better: "lower"},
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}
