package main

// layerMetrics lists every per-layer metric the traced run prints, with its
// unit, whatever the workload. A count is a delta over the traced window
// divided by the ops in it; a layer the workload does not reach reads 0.
var layerMetrics = []struct{ name, unit string }{
	// rmi codec and transport, as rungs measured in isolation.
	{"rung.rmi_send_frame_us", "us"},
	{"rung.rmi_send_f64s_us", "us"},
	{"rung.rmi_call_us", "us"},
	{"rung.rmi_allocs_per_call", "count"},
	{"rung.rmi_gob_call_us", "us"},
	{"rmi.msgs_per_op", "count"},
	{"rmi.bytes_per_op", "B"},
	// par NetRMI.
	{"rung.netrmi_call_us", "us"},
	{"netrmi.allocs_per_call", "count"},
	{"netrmi.issue_us", "us"},
	{"netrmi.wait_us", "us"},
	// par netfault.
	{"fault.reconnects", "count"},
	{"fault.replays", "count"},
	{"fault.failovers", "count"},
	// par scheduler.
	{"sched.steals_per_job", "count"},
	{"sched.stolen_per_job", "count"},
	{"sched.splits_per_job", "count"},
	{"sched.failed_scans_per_job", "count"},
	// par topology and the rmi forward lane.
	{"topo.peer_hops_per_frame", "count"},
	{"topo.counter_lag_hops", "count"},
	{"topo.stranded", "count"},
	{"topo.redelivered", "count"},
	{"node.n0.requests_per_op", "count"},
	{"node.n1.requests_per_op", "count"},
	{"node.request_skew", "ratio"},
	// apps/imagepipe Service.
	{"service.submit_blocked_ms", "ms"},
	{"service.retried", "count"},
	{"service.duplicates", "count"},
	// sieve core.
	{"farm.seq_core_ms", "ms"},
	{"farm.speedup", "ratio"},
	{"farm.job_overhead_ms", "ms"},
	// aspect weaver.
	{"rung.woven_call_ns", "ns"},
	{"rung.woven_allocs_per_call", "count"},
	{"rung.direct_call_ns", "ns"},
	// sim and cluster.
	{"sim.host_ms_per_virtual_s", "ms/s"},
	{"sim.virtual_ms", "virtual_ms"},
	// process.
	{"proc.cpu_us_per_op", "us"},
	{"proc.allocs_per_op", "count"},
	{"proc.gc_per_kop", "count"},
	{"proc.heap_peak_mb", "MB"},
	// the machine: vCPU time the hypervisor gave to other guests, the
	// noise every wall-clock figure of this run carries.
	{"host.steal_pct", "%"},
	// the tracing itself.
	{"trace.overhead_ops_pct", "%"},
	{"trace.overhead_p50_pct", "%"},
	{"trace.ops", "count"},
}

// defaultLayer returns every per-layer metric at 0.
func defaultLayer() map[string]float64 {
	m := make(map[string]float64, len(layerMetrics))
	for _, lm := range layerMetrics {
		m[lm.name] = 0
	}
	return m
}

func layerUnit(name string) string {
	for _, lm := range layerMetrics {
		if lm.name == name {
			return lm.unit
		}
	}
	return "count"
}
