package main

// layerDef fixes one per-layer metric. Layers are the repository's
// packages. fromClient marks the [H] metrics, read from the daemon's
// HTTP surface during an untraced pass; the rest come from the
// in-process traced pass. exact marks counts that must repeat exactly
// for equal seeds.
type layerDef struct {
	Name       string
	Unit       string
	Better     string
	fromClient bool
	exact      bool
}

// perLayer is the BENCHMARK.json per_layer list, in report order. A
// metric whose layer a workload does not exercise reads 0 there.
var perLayer = []layerDef{
	{Name: "client.post_ms_p50", Unit: "ms", Better: "lower", fromClient: true},
	{Name: "client.detect_ms_p50", Unit: "ms", Better: "lower", fromClient: true},
	{Name: "client.polls_per_solve", Unit: "count", Better: "lower", fromClient: true},
	{Name: "client.solve_ms_tail", Unit: "ms", Better: "lower", fromClient: true},
	{Name: "client.tail_percentile", Unit: "%", Better: "higher", fromClient: true},
	{Name: "runs.queue_wait_ms_p50", Unit: "ms", Better: "lower", fromClient: true},
	{Name: "runs.exec_ms_p50", Unit: "ms", Better: "lower", fromClient: true},
	{Name: "runs.engine_share", Unit: "ratio", Better: "higher", fromClient: true},
	{Name: "model_ns_mean", Unit: "ns", Better: "lower", fromClient: true, exact: true},
	// The host's speed over the window (calib.go) and the four timed
	// end-to-end metrics before they were scaled by it.
	{Name: "host.speed", Unit: "ratio", Better: "higher", fromClient: true},
	{Name: "host.steal_frac", Unit: "ratio", Better: "lower", fromClient: true},
	{Name: "raw.solve_ms_p50", Unit: "ms", Better: "lower", fromClient: true},
	{Name: "raw.solves_per_s", Unit: "1/s", Better: "higher", fromClient: true},
	{Name: "raw.cpu_ms_per_solve", Unit: "ms", Better: "lower", fromClient: true},
	{Name: "raw.setup_s", Unit: "s", Better: "lower", fromClient: true},

	{Name: "runs.managed_ms", Unit: "ms", Better: "lower"},
	{Name: "runs.journaled_ms", Unit: "ms", Better: "lower"},
	{Name: "runs.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "runs.allocs_per_solve", Unit: "count", Better: "lower"},
	{Name: "runs.bytes_per_solve", Unit: "bytes", Better: "lower"},
	{Name: "runs.decode_request_us", Unit: "us", Better: "lower"},
	{Name: "runs.request_bytes", Unit: "bytes", Better: "lower", exact: true},
	{Name: "runs.encode_outcome_us", Unit: "us", Better: "lower"},
	{Name: "runs.outcome_bytes", Unit: "bytes", Better: "lower"},

	{Name: "journal.append_us_p50", Unit: "us", Better: "lower"},
	{Name: "journal.records_per_solve", Unit: "count", Better: "lower", exact: true},
	{Name: "journal.bytes_per_solve", Unit: "bytes", Better: "lower"},

	{Name: "graph.build_ms", Unit: "ms", Better: "lower"},
	{Name: "ising.build_ms", Unit: "ms", Better: "lower"},
	{Name: "ising.energy_us", Unit: "us", Better: "lower"},

	{Name: "lattice.build_ms", Unit: "ms", Better: "lower"},
	{Name: "lattice.nnz", Unit: "count", Better: "lower", exact: true},
	{Name: "lattice.matvec_us", Unit: "us", Better: "lower"},
	{Name: "lattice.fields_us", Unit: "us", Better: "lower"},
	{Name: "lattice.bytes_per_matvec", Unit: "bytes", Better: "lower", exact: true},
	{Name: "lattice.matvec_gflops", Unit: "GFLOP/s", Better: "higher"},

	{Name: "core.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "core.solve_traced_ms", Unit: "ms", Better: "lower"},
	{Name: "core.allocs_per_solve", Unit: "count", Better: "lower"},
	{Name: "core.bytes_per_solve", Unit: "bytes", Better: "lower"},
	{Name: "core.ns_per_spin_update", Unit: "ns", Better: "lower"},

	{Name: "obs.sink_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.events_per_solve", Unit: "count", Better: "lower", exact: true},
	{Name: "diag.snapshot_us", Unit: "us", Better: "lower"},

	{Name: "multichip.new_system_ms", Unit: "ms", Better: "lower"},
	{Name: "multichip.run_concurrent_ms", Unit: "ms", Better: "lower"},
	{Name: "multichip.run_batch_ms", Unit: "ms", Better: "lower"},
	{Name: "multichip.chip_step_ms", Unit: "ms", Better: "lower"},
	{Name: "multichip.apply_sync_ms", Unit: "ms", Better: "lower"},
	{Name: "multichip.step_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "multichip.epochs", Unit: "count", Better: "lower", exact: true},
	{Name: "multichip.flips", Unit: "count", Better: "lower", exact: true},
	{Name: "multichip.bit_changes", Unit: "count", Better: "lower", exact: true},
	{Name: "multichip.allocs_per_epoch", Unit: "count", Better: "lower"},
	{Name: "multichip.bytes_per_epoch", Unit: "bytes", Better: "lower"},
	{Name: "multichip.host_ms_per_model_ns", Unit: "ms/ns", Better: "lower"},
	{Name: "multichip.parallel_speedup", Unit: "ratio", Better: "higher"},

	{Name: "interconnect.traffic_bytes", Unit: "bytes", Better: "lower", exact: true},
	{Name: "interconnect.stall_ns", Unit: "ns", Better: "lower", exact: true},
	{Name: "interconnect.peak_demand_bytes_per_ns", Unit: "B/ns", Better: "lower", exact: true},

	{Name: "checkpoint.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.bytes", Unit: "bytes", Better: "lower"},

	{Name: "cluster.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.inprocess_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.fabric_tax", Unit: "ratio", Better: "lower"},
	{Name: "cluster.rpcs_per_epoch", Unit: "count", Better: "lower", exact: true},
	{Name: "cluster.wire_bytes_per_epoch", Unit: "bytes", Better: "lower"},
	{Name: "cluster.wire_encode_us", Unit: "us", Better: "lower"},
	{Name: "cluster.worker_step_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.rpc_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.straggler_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.retries", Unit: "count", Better: "lower", exact: true},

	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.unattributed_ms", Unit: "ms", Better: "lower"},
}
