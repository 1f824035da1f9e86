package main

import (
	"runtime"
	"time"

	"github.com/casm-project/casm/internal/blockstore"
)

// jobSums is what one job's mr.JobStats adds up to. Times are
// milliseconds; the rest are counts.
type jobSums struct {
	wall, mapPhase, firstOutput, collectDone    float64
	mapBusy, reduceBusy, queue, straggler       float64
	records, pairsOut, evalRecords, retries     float64
	shuffled, spillBytes, spillRuns             float64
	groupedInMemory, groupedSpilled, winLookups float64
}

// sumJob adds up the task-level stamps and counters of one operation's
// job. Pooled tasks carry no queue time of their own: a map task's wait is
// its dispatch time minus the run's start, a reduce task's its dispatch
// time minus the moment its shuffle input was complete.
func sumJob(o *opObs) jobSums {
	js := o.stats
	t := jobSums{
		wall: ms(js.Wall), mapPhase: ms(js.MapDone), firstOutput: ms(js.FirstOutput),
		shuffled: float64(js.Shuffled),
	}
	runStart := o.start.Add(o.parse + o.plan)
	wait := func(start time.Time, runnable time.Duration) {
		if d := start.Sub(runStart) - runnable; !start.IsZero() && d > 0 {
			t.queue += ms(d)
		}
	}
	for _, mt := range js.MapTasks {
		t.mapBusy += ms(mt.Wall)
		t.records += float64(mt.Records)
		t.pairsOut += float64(mt.PairsOut)
		t.retries += float64(max(mt.Attempts-1, 0))
		wait(mt.Start, 0)
	}
	var slowest float64
	for _, rt := range js.ReduceTasks {
		t.reduceBusy += ms(rt.Wall)
		slowest = max(slowest, ms(rt.Wall))
		t.collectDone = max(t.collectDone, ms(rt.CollectDone))
		t.evalRecords += float64(rt.EvalRecords)
		t.retries += float64(max(rt.Attempts-1, 0))
		t.spillRuns += float64(rt.SpillRuns)
		t.winLookups += float64(rt.WindowLookups)
		if spill := rt.SpillBytes + rt.GroupSpillBytes; spill > 0 {
			t.spillBytes += float64(spill)
			t.groupedSpilled += float64(rt.SortItems)
		} else {
			t.groupedInMemory += float64(rt.SortItems)
		}
		wait(rt.Start, rt.CollectDone)
	}
	if t.reduceBusy > 0 {
		t.straggler = slowest * float64(len(js.ReduceTasks)) / t.reduceBusy
	}
	return t
}

// layerMetrics fills m with the per-layer metrics that come from the
// traced window: medians over its operations of span durations and of
// the sums of the statistics each job returned, counts per operation,
// and the service's and store's own counters. The kernel metrics are
// already in m; kernel_coverage combines the two.
func layerMetrics(inst *instance, untraced, traced *window, tr *tracer, before blockstore.Stats, m map[string]float64) {
	ops := traced.ops
	if len(ops) == 0 {
		return
	}
	n := float64(len(ops))
	records := float64(len(inst.records))
	opMS := func(o *opObs) float64 { return ms(o.latency) }

	total, self := tr.durations()
	assemble := append(self["core.run"], self["core.stream"]...)
	m["core.plan_ms"] = median(total["core.plan"])
	m["core.run_ms"] = median(total["core.run"])
	m["core.stream_drain_ms"] = median(total["core.stream"])
	m["core.assemble_ms"] = median(assemble)
	m["core.records_per_s_core"] = records * n / traced.wall.Seconds() / float64(runtime.GOMAXPROCS(0))
	firstRow := median(collect(ops, func(o *opObs) bool { return o.firstRow > 0 }, func(o *opObs) float64 { return ms(o.firstRow) }))

	var jobs []jobSums
	for i := range ops {
		if o := &ops[i]; o.stats != nil && o.stats.Wall > 0 {
			jobs = append(jobs, sumJob(o))
		}
	}
	var sum jobSums // only the fields used below are added up
	med := func(f func(*jobSums) float64) float64 {
		xs := make([]float64, len(jobs))
		for i := range jobs {
			xs[i] = f(&jobs[i])
		}
		return median(xs)
	}
	for _, j := range jobs {
		sum.mapBusy += j.mapBusy
		sum.reduceBusy += j.reduceBusy
		sum.records += j.records
		sum.pairsOut += j.pairsOut
		sum.evalRecords += j.evalRecords
		sum.retries += j.retries
		sum.shuffled += j.shuffled
		sum.spillBytes += j.spillBytes
		sum.spillRuns += j.spillRuns
		sum.groupedInMemory += j.groupedInMemory
		sum.groupedSpilled += j.groupedSpilled
		sum.winLookups += j.winLookups
	}
	m["mr.job_wall_ms"] = med(func(j *jobSums) float64 { return j.wall })
	m["mr.map_phase_ms"] = med(func(j *jobSums) float64 { return j.mapPhase })
	m["mr.first_output_ms"] = med(func(j *jobSums) float64 { return j.firstOutput })
	m["mr.collect_done_ms"] = med(func(j *jobSums) float64 { return j.collectDone })
	m["mr.map_busy_ms"] = med(func(j *jobSums) float64 { return j.mapBusy })
	m["mr.reduce_busy_ms"] = med(func(j *jobSums) float64 { return j.reduceBusy })
	m["mr.task_queue_ms"] = med(func(j *jobSums) float64 { return j.queue })
	m["mr.straggler_ratio"] = med(func(j *jobSums) float64 { return j.straggler })
	m["mr.shuffled_mb_per_op"] = sum.shuffled / (1 << 20) / n
	m["mr.task_retries"] = sum.retries
	if sum.records > 0 {
		m["mr.pairs_out_per_record"] = sum.pairsOut / sum.records
	}
	m["sortx.spill_mb_per_op"] = sum.spillBytes / (1 << 20) / n
	m["sortx.spill_runs_per_op"] = sum.spillRuns / n
	m["localeval.window_lookups_per_op"] = sum.winLookups / n
	var rows, failed, respBytes float64
	for i := range ops {
		rows += float64(ops[i].rows)
		respBytes += float64(ops[i].respBytes)
		if ops[i].failed {
			failed++
		}
	}
	m["localeval.out_rows_per_record"] = rows / n / records
	m["bench.failed_share"] = failed / n

	// kernel_coverage: the units of work the jobs reported, priced at the
	// kernels' time per unit, as a share of the time the tasks and the
	// output assembly were busy. The rest is glue, GC and scheduling.
	busy := sum.mapBusy + sum.reduceBusy
	for _, a := range assemble {
		busy += a
	}
	explainedNS := sum.records*(m["blockstore.scan_ns_per_record"]+m["recio.decode_ns_per_record"]+m["distkey.keygen_ns_per_record"]) +
		sum.pairsOut*m["transport.send_recv_ns_per_pair"] +
		sum.groupedInMemory*m["groupx.hash_ns_per_pair"] + sum.groupedSpilled*m["sortx.spill_ns_per_item"] +
		sum.evalRecords*m["localeval.eval_ns_per_record"]
	if busy > 0 {
		m["core.kernel_coverage"] = explainedNS / 1e6 / busy
	}

	m["go.gc_cpu_fraction"] = traced.gcCPU
	m["go.num_gc_per_op"] = float64(traced.numGC) / n
	// The tail is ungated (see README.md, "Bounds"); it comes from the
	// untraced half, like every latency a user would see.
	m["bench.op_p90_ms"] = quantile(collect(untraced.ops, nil, opMS), 0.9)
	if base := typicalLatency(untraced.ops); base > 0 {
		m["bench.trace_overhead_pct"] = (typicalLatency(ops) - base) / base * 100
	}
	if inst.store != nil {
		after := inst.store.Stats()
		m["blockstore.block_reads_per_op"] = float64(after.BlockReads-before.BlockReads) / n
		m["blockstore.bytes_read_per_op"] = float64(after.BytesRead-before.BytesRead) / (1 << 20) / n
		m["blockstore.checksum_failovers"] = float64(after.ChecksumFailovers)
	}
	if inst.service == nil {
		m["core.first_row_p50_ms"] = firstRow
		return
	}

	// serve_mixed: the responses' own timing fields and the service's
	// counters. Its jobs run behind HTTP and return no mr.JobStats, so
	// the mr.* and core.* trace metrics read 0 here.
	byClass := func(class string) float64 {
		return median(collect(ops, func(o *opObs) bool { return o.kind == class }, opMS))
	}
	m["serve.warm_p50_ms"] = byClass(classWarm)
	m["serve.cold_p50_ms"] = byClass(classCold)
	m["serve.stream_first_row_p50_ms"] = firstRow
	m["serve.response_kb_per_op"] = respBytes / 1024 / n
	m["serve.http_overhead_ms"] = median(collect(ops, func(o *opObs) bool { return !o.failed },
		func(o *opObs) float64 { return ms(o.latency) - o.queueMS - o.wallMS }))
	m["exec.admission_queue_ms"] = median(collect(ops, nil, func(o *opObs) float64 { return o.queueMS }))
	for _, o := range append(untraced.ops[:len(untraced.ops):len(untraced.ops)], ops...) {
		if o.rejected {
			m["exec.rejected"]++
		}
	}
	st := inst.service()
	for _, peak := range st.Admission.TenantPeak {
		m["exec.tenant_peak_in_flight"] = max(m["exec.tenant_peak_in_flight"], float64(peak))
	}
	if lookups := st.PlanCacheHits + st.PlanCacheMisses; lookups > 0 {
		m["optimizer.decision_hit_ratio"] = float64(st.PlanCacheHits) / float64(lookups)
	}
	if rc := st.ResultCache; rc != nil {
		if probes := rc.Hits + rc.Misses; probes > 0 {
			m["blockstore.resultcache_hit_ratio"] = float64(rc.Hits) / float64(probes)
		}
		m["blockstore.resultcache_evictions"] = float64(rc.Evictions)
		m["blockstore.resultcache_mb_materialized"] = float64(rc.BytesMaterialized) / (1 << 20)
	}
}
