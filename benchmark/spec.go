package main

// metricDef names one metric the benchmark reports. BENCHMARK.json at the
// repository root lists the same names, units and directions (the test
// in this package compares the two); README.md carries the definitions.
type metricDef struct {
	name, unit, better string
}

const (
	lower  = "lower"
	higher = "higher"
)

// workloadNames is the order `go run ./benchmark` runs them in.
func workloadNames() []string {
	return []string{scanEarlyAgg, reduceFineOut, windowStream, serveMixed}
}

// endToEnd are the gated metrics: what a casmrun or casmserve user sees.
// Every workload reports every one of them, and none can be zero.
func endToEnd() []metricDef {
	return []metricDef{
		{"setup_s", "s", lower},
		{"queries_per_s", "1/s", higher},
		{"op_p50_ms", "ms", lower},
		{"alloc_mb_per_op", "MB", lower},
		{"peak_heap_mb", "MB", lower},
	}
}

// perLayer are the ungated metrics, prefixed with the module they
// measure. Metrics a workload does not exercise read 0 there.
func perLayer() []metricDef {
	return []metricDef{
		{"blockstore.scan_ns_per_record", "ns", lower},
		{"blockstore.scan_mb_per_s", "MB/s", higher},
		{"blockstore.ingest_ns_per_record", "ns", lower},
		{"blockstore.block_reads_per_op", "count", lower},
		{"blockstore.bytes_read_per_op", "MB", lower},
		{"blockstore.checksum_failovers", "count", lower},
		{"blockstore.stored_bytes_per_user_byte", "ratio", lower},
		{"blockstore.resultcache_get_us", "us", lower},
		{"blockstore.resultcache_put_us", "us", lower},
		{"blockstore.resultcache_hit_ratio", "ratio", higher},
		{"blockstore.resultcache_evictions", "count", lower},
		{"blockstore.resultcache_mb_materialized", "MB", lower},
		{"recio.decode_ns_per_record", "ns", lower},
		{"recio.encode_ns_per_record", "ns", lower},
		{"distkey.derive_us", "us", lower},
		{"distkey.keygen_ns_per_record", "ns", lower},
		{"distkey.blocks_per_record", "ratio", lower},
		{"transport.send_recv_ns_per_pair", "ns", lower},
		{"transport.mb_per_s", "MB/s", higher},
		{"groupx.hash_ns_per_pair", "ns", lower},
		{"groupx.sort_ns_per_pair", "ns", lower},
		{"sortx.spill_ns_per_item", "ns", lower},
		{"sortx.spill_runs_per_op", "count", lower},
		{"sortx.spill_mb_per_op", "MB", lower},
		{"localeval.eval_ns_per_record", "ns", lower},
		{"localeval.out_rows_per_record", "ratio", lower},
		{"localeval.window_lookups_per_op", "count", lower},
		{"cql.parse_us", "us", lower},
		{"workflow.fingerprint_us", "us", lower},
		{"optimizer.plan_us", "us", lower},
		{"optimizer.decision_hit_ratio", "ratio", higher},
		{"mr.job_wall_ms", "ms", lower},
		{"mr.map_phase_ms", "ms", lower},
		{"mr.map_busy_ms", "ms", lower},
		{"mr.reduce_busy_ms", "ms", lower},
		{"mr.task_queue_ms", "ms", lower},
		{"mr.collect_done_ms", "ms", lower},
		{"mr.first_output_ms", "ms", lower},
		{"mr.straggler_ratio", "ratio", lower},
		{"mr.shuffled_mb_per_op", "MB", lower},
		{"mr.pairs_out_per_record", "ratio", lower},
		{"mr.task_retries", "count", lower},
		{"core.plan_ms", "ms", lower},
		{"core.run_ms", "ms", lower},
		{"core.assemble_ms", "ms", lower},
		{"core.stream_drain_ms", "ms", lower},
		{"core.first_row_p50_ms", "ms", lower},
		{"core.records_per_s_core", "1/s", higher},
		{"core.kernel_coverage", "ratio", higher},
		{"exec.admission_queue_ms", "ms", lower},
		{"exec.tenant_peak_in_flight", "count", lower},
		{"exec.rejected", "count", lower},
		{"serve.http_overhead_ms", "ms", lower},
		{"serve.warm_p50_ms", "ms", lower},
		{"serve.cold_p50_ms", "ms", lower},
		{"serve.stream_first_row_p50_ms", "ms", lower},
		{"serve.response_kb_per_op", "KB", lower},
		{"go.gc_cpu_fraction", "ratio", lower},
		{"go.num_gc_per_op", "count", lower},
		{"bench.op_p90_ms", "ms", lower},
		{"bench.trace_overhead_pct", "%", lower},
		{"bench.failed_share", "ratio", lower},
	}
}
