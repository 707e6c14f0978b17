package layers

import "churnlb/bench/e2e"

// Metric names one per-layer number of BENCHMARK.json.
type Metric struct{ Name, Unit, Better string }

// Metrics lists every per-layer metric a traced run prints, in report
// order: the profile fold, the probes, then the numbers derived from the
// traced workload itself.
func Metrics() []Metric {
	var ms []Metric
	for _, layer := range Names {
		ms = append(ms, Metric{layer + ".cpu_share", "share", "lower"})
	}
	lower := func(unit string, names ...string) {
		for _, n := range names {
			ms = append(ms, Metric{n, unit, "lower"})
		}
	}
	lower("ns",
		"des.calendar_hold_ns_2e5", "des.calendar_hold_ns_2e3", "des.heap_hold_ns_2e4", "des.calendar_rearm_ns",
		"xrand.exp_ns", "xrand.intn_ns",
		"policy.plan_build_ns_per_node", "policy.plan_episode_ns", "policy.lbp2_initial_ns_per_node",
		"policy.route_pod2_ns", "policy.route_jsq_scan_ns_64",
		"metrics.p2_add_ns", "metrics.collector_task_ns",
		"sim.bare_ns_per_task", "serve.telemetry_ns_per_task", "sim.jsq_index_ns_per_task",
		"obs.decision_trace_ns_per_task", "sim.eager_ns_per_task", "sim.default_ns_per_task",
		"scenario.generate_ns_per_node", "mc.rep_overhead_ns")
	ms = append(ms, Metric{"mc.speedup_2w", "x", "higher"})
	lower("ns",
		"cluster.task_frame_codec_ns", "cluster.state_packet_codec_ns",
		"cluster.net_roundtrip_ns", "cluster.chan_roundtrip_ns",
		"daemon.admit_chan_ns_per_task", "cluster.wire_ns_per_task")
	ms = append(ms, Metric{"daemon.gossip_packets_per_s", "1/s", "higher"})
	lower("ms", "daemon.spinup_ms")
	lower("count", "runtime.gc_cycles_per_mtask")
	lower("ns", "runtime.cpu_ns_per_task")
	lower("count", "runtime.allocs_per_task")
	lower("%", "bench.trace_overhead_pct", "bench.noise_pct")
	return ms
}

// RunMetrics derives the per-workload runtime numbers from the traced
// run's two sample series: the untraced one and the profiled one.
func RunMetrics(untraced, traced e2e.Samples) []Value {
	tasks := float64(max(untraced.Tasks, 1))
	uMin, _, uMedian, _, _ := e2e.Quantiles(untraced.NsPerTask)
	tMin, _, _, _, _ := e2e.Quantiles(traced.NsPerTask)
	return []Value{
		{"runtime.gc_cycles_per_mtask", float64(untraced.GCCycles) / tasks * 1e6, "count"},
		{"runtime.cpu_ns_per_task", float64(untraced.CPU.Nanoseconds()) / tasks, "ns"},
		{"runtime.allocs_per_task", float64(untraced.Mallocs) / tasks, "count"},
		{"bench.trace_overhead_pct", (tMin/uMin - 1) * 100, "%"},
		{"bench.noise_pct", (uMedian - uMin) / uMin * 100, "%"},
	}
}
