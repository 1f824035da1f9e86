package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"

	"github.com/casm-project/casm/internal/costmodel"
	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/distkey"
	"github.com/casm-project/casm/internal/localeval"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/recio"
	"github.com/casm-project/casm/internal/workflow"
)

// Multi-query shared-scan batching: compatible workflows over one dataset
// run as a single mr job that scans the input once and evaluates every
// query against it, instead of one full scan per query (the batching trick
// of "Computing Marginals Using MapReduce", applied to composite measure
// workflows). Each query keeps its own plan — its own distribution key and
// clustering factor — because sharing happens below the plan, at two
// levels:
//
//   - The scan is always shared: the mapper decodes each record once for
//     the whole batch.
//   - The shuffle is shared per geometry group. Queries whose plans agree
//     on block geometry (equal distribution key and clustering factor)
//     redistribute records identically, so one emitted pair — tagged with
//     a uvarint group ordinal plus the block key — serves all of them,
//     and the reducer builds the record group once and evaluates every
//     member query against it. Queries with distinct geometries emit
//     separately, sharing only the scan.
//
// Each reduce group evaluates exactly as it would in that query's own
// job. Demultiplexing on the uvarint-query-tagged output keys then yields
// per-query results byte-identical to sequential execution.
//
// Queries that cannot share — stage-stopped runs, or runs the engine would
// execute with map-side early aggregation (the combiner keys on bare block
// keys and its payloads are per-workflow) — fall back to their own
// sequential jobs within the same batch call.

// BatchJobInfo describes one job a batch ran.
type BatchJobInfo struct {
	// Queries are indices into the batch's workflow slice, in input order.
	Queries []int
	// Shared reports whether the job's single input scan served more than
	// one query.
	Shared bool
	// Groups partitions a shared job's Queries by block geometry: queries
	// in one group also shared the shuffle and the reducer-side group
	// builds, not just the scan. Nil for unshared jobs.
	Groups [][]int
	// Stats are the job's substrate counters (shared by every query in
	// the job; see SharedScanQueries per map task).
	Stats mr.JobStats
	// Estimate is the job's simulated response time, sampling passes
	// included.
	Estimate costmodel.Estimate
}

// BatchResult is a completed batch evaluation.
type BatchResult struct {
	// Results holds one Result per input workflow, in input order.
	// Queries that ran in a shared job carry the shared job's Stats and
	// Estimate (the scan cost is joint — it cannot be attributed to one
	// of them).
	Results []*Result
	// Jobs lists the jobs the batch ran: at most one shared job plus one
	// sequential job per unshareable query.
	Jobs []BatchJobInfo
}

// SharedScanQueries returns how many queries the batch served from shared
// scans (0 when every query ran alone).
func (b *BatchResult) SharedScanQueries() int {
	n := 0
	for _, j := range b.Jobs {
		if j.Shared {
			n += len(j.Queries)
		}
	}
	return n
}

// EvaluateBatch evaluates the workflows over the dataset under
// context.Background(); see EvaluateBatchContext.
func (e *Engine) EvaluateBatch(ws []*workflow.Workflow, ds *Dataset) (*BatchResult, error) {
	return e.EvaluateBatchContext(context.Background(), ws, ds)
}

// EvaluateBatchContext plans every workflow (the decision cache, when
// configured, deduplicates planning across structurally identical queries),
// groups the shareable ones into one shared-scan job, runs the rest
// sequentially, and returns per-query results byte-identical to what
// len(ws) separate EvaluateContext calls would produce. Cancelling ctx
// tears down whichever job is in flight.
func (e *Engine) EvaluateBatchContext(ctx context.Context, ws []*workflow.Workflow, ds *Dataset) (*BatchResult, error) {
	if len(ws) == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	// Count the dataset once for the whole batch instead of once per
	// query (a local copy so the caller's Dataset is left alone).
	d := *ds
	var err error
	if d.NumRecords, err = cardinality(ctx, ds); err != nil {
		return nil, err
	}

	out := &BatchResult{Results: make([]*Result, len(ws))}
	var shared, alone []int
	evs := make([]*localeval.Evaluator, len(ws))
	for i, w := range ws {
		ev, err := localeval.New(w)
		if err != nil {
			return nil, fmt.Errorf("core: batch query %d: %w", i, err)
		}
		evs[i] = ev
		early := false
		switch e.cfg.EarlyAggregation {
		case EarlyAggOn:
			early = true
		case EarlyAggAuto:
			early = ev.SupportsEarlyAggregation() == nil
		}
		if e.cfg.Stage == StageFull && !early {
			shared = append(shared, i)
		} else {
			alone = append(alone, i)
		}
	}
	// A single shareable query gains nothing from the tagged-key plumbing;
	// run it as its own job too.
	if len(shared) == 1 {
		alone = append(alone, shared[0])
		sort.Ints(alone)
		shared = nil
	}

	if len(shared) > 1 {
		if err := e.runShared(ctx, ws, evs, &d, shared, out); err != nil {
			return nil, err
		}
	}
	for _, i := range alone {
		outcome, err := e.PlanContext(ctx, ws[i], &d)
		if err != nil {
			return nil, fmt.Errorf("core: batch query %d: %w", i, err)
		}
		res, err := e.RunWithPlanContext(ctx, ws[i], &d, outcome)
		if err != nil {
			return nil, fmt.Errorf("core: batch query %d: %w", i, err)
		}
		for t := range res.Stats.MapTasks {
			res.Stats.MapTasks[t].SharedScanQueries = 1
		}
		out.Results[i] = res
		out.Jobs = append(out.Jobs, BatchJobInfo{
			Queries: []int{i}, Stats: res.Stats, Estimate: res.Estimate,
		})
	}
	return out, nil
}

// batchQuery is one query's state inside a shared job.
type batchQuery struct {
	idx     int // index into the batch's workflow slice
	w       *workflow.Workflow
	outcome PlanOutcome
	ev      *localeval.Evaluator
	tag     []byte // uvarint job-local ordinal, the output-key prefix
}

// emitGroup is a set of shared-job queries whose plans agree on block
// geometry: one emitted pair per (record, block) serves every member.
type emitGroup struct {
	tag     []byte // uvarint group ordinal, the shuffle-key prefix
	key     distkey.Key
	cf      int64
	bm      *distkey.BlockMapper
	members []int // indices into the job's query slice
}

// runShared plans and executes the shared-scan job for the given queries,
// filling their slots in out.
func (e *Engine) runShared(ctx context.Context, ws []*workflow.Workflow, evs []*localeval.Evaluator, ds *Dataset, idxs []int, out *BatchResult) error {
	s := ds.Schema
	arity := s.NumAttrs()
	combined := e.cfg.SortMode == CombinedKeySort

	queries := make([]*batchQuery, len(idxs))
	planCacheHits := int64(0)
	var sampleSeconds float64
	for qi, i := range idxs {
		outcome, err := e.PlanContext(ctx, ws[i], ds)
		if err != nil {
			return fmt.Errorf("core: batch query %d: %w", i, err)
		}
		if outcome.DecisionCached {
			planCacheHits++
		}
		sampleSeconds += outcome.SampleSeconds
		queries[qi] = &batchQuery{
			idx: i, w: ws[i], outcome: outcome, ev: evs[i],
			tag: binary.AppendUvarint(nil, uint64(qi)),
		}
	}
	// Geometry grouping: queries whose plans agree on distribution key and
	// clustering factor shuffle through one emit group, so the pair fan-out
	// (and the reducers' group builds) scale with distinct geometries, not
	// with queries.
	var groups []*emitGroup
	for qi, q := range queries {
		shared := false
		for _, g := range groups {
			if g.cf == q.outcome.Plan.ClusteringFactor && g.key.Equal(q.outcome.Plan.Key) {
				g.members = append(g.members, qi)
				shared = true
				break
			}
		}
		if shared {
			continue
		}
		bm, err := distkey.NewBlockMapper(s, q.outcome.Plan.Key, q.outcome.Plan.ClusteringFactor)
		if err != nil {
			return fmt.Errorf("core: batch query %d: plan not executable: %w", q.idx, err)
		}
		groups = append(groups, &emitGroup{
			tag: binary.AppendUvarint(nil, uint64(len(groups))),
			key: q.outcome.Plan.Key, cf: q.outcome.Plan.ClusteringFactor,
			bm: bm, members: []int{qi},
		})
	}

	newMapLocal := func(st *mr.TaskStats) any {
		ml := &batchMapLocal{
			dks:  make([]*distkey.Session, len(groups)),
			keys: make([]map[string][]byte, len(groups)),
			rec:  make(cube.Record, arity),
		}
		for gi, g := range groups {
			ml.dks[gi] = g.bm.NewSession()
			ml.keys[gi] = make(map[string][]byte)
		}
		return ml
	}
	newReduceLocal := func(st *mr.TaskStats) any {
		rl := &batchReduceLocal{
			gs:  make([]*batchGroupReduce, len(groups)),
			rec: make(cube.Record, arity),
		}
		for gi, g := range groups {
			gr := &batchGroupReduce{dk: g.bm.NewSession()}
			for _, qi := range g.members {
				q := queries[qi]
				gr.members = append(gr.members, &batchMemberReduce{
					ev: q.ev.NewSession(), out: newOwnedOutput(q.tag, len(q.w.Measures())),
				})
			}
			rl.gs[gi] = gr
		}
		return rl
	}

	mapFn := func(mctx *mr.MapCtx, raw []byte) error {
		ml := mctx.Local.(*batchMapLocal)
		if err := recio.DecodeRecordInto(raw, ml.rec); err != nil {
			return err
		}
		// One decode, one emit per geometry group: this loop is the shared
		// scan and the shared shuffle. Each emitted value aliases the same
		// raw record storage, so fan-out costs tagged keys, not copies.
		for gi, g := range groups {
			sess := ml.dks[gi]
			for _, block := range sess.Blocks(ml.rec) {
				var key []byte
				if combined {
					key = ml.arena.concat(g.tag, block, raw)
				} else {
					key = ml.taggedBlock(gi, g.tag, block)
				}
				if err := mctx.Emit(key, raw); err != nil {
					return err
				}
			}
		}
		var hits int64
		for _, sess := range ml.dks {
			hits += sess.Hits
		}
		mctx.Stats.KeyCacheHits = hits
		return nil
	}

	reduceFn := func(rctx *mr.ReduceCtx, groupKey []byte, values *mr.GroupIter) error {
		rl := rctx.Local.(*batchReduceLocal)
		gi64, n := binary.Uvarint(groupKey)
		if n <= 0 || gi64 >= uint64(len(groups)) {
			return fmt.Errorf("core: shared group key with bad group tag")
		}
		gr := rl.gs[gi64]
		blockKey := groupKey[n:]
		// Build the record group once and evaluate every member against
		// it. A lone member loads straight into its block arena; multiple
		// members decode each payload once and copy the decoded row.
		if len(gr.members) == 1 {
			if err := loadGroup(values, gr.members[0].ev); err != nil {
				return err
			}
		} else {
			for {
				p, ok, err := values.Next()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				if err := recio.DecodeRecordInto(p.Value, rl.rec); err != nil {
					return err
				}
				for _, m := range gr.members {
					m.ev.AppendRecord(rl.rec)
				}
			}
		}
		for _, m := range gr.members {
			results, est, err := m.ev.EvaluateBlock(localeval.Options{SkipSort: combined})
			if err != nil {
				return err
			}
			rctx.Stats.EvalRecords += est.ScannedRecords
			rctx.Stats.GroupSortItems += est.SortedItems
			rctx.Stats.WindowLookups += est.WindowLookups
			// Same ownership filter as the single-query job, against the
			// group's shared block geometry (the tag is stripped above).
			m.out.emit(rctx, gr.dk, blockKey, results, nil, nil)
		}
		var hits, arena, pool int64
		for _, g := range rl.gs {
			hits += g.dk.Hits
			for _, m := range g.members {
				arena += m.ev.ArenaBytes
				pool += m.ev.PoolHits
			}
		}
		rctx.Stats.KeyCacheHits = hits
		rctx.Stats.EvalArenaBytes = arena
		rctx.Stats.AggPoolHits = pool
		return nil
	}

	job := mr.Job{Name: "casm-batch", Input: ds.Input, Map: mapFn, Reduce: reduceFn, Config: e.mrConfig()}
	job.Config.NewMapLocal = newMapLocal
	job.Config.NewReduceLocal = newReduceLocal
	if combined {
		// Group identity is the tag + block-key prefix of the combined
		// shuffle key, still a zero-alloc sub-slice (and, as in the
		// single-query job, what selects sorted grouping).
		job.Config.GroupBy = func(key []byte) []byte {
			_, n := binary.Uvarint(key)
			if n <= 0 {
				return key
			}
			return key[:n+blockPrefixLen(key[n:], arity)]
		}
	}
	pipe, err := mr.RunPipe(ctx, job)
	if err != nil {
		return err
	}
	defer pipe.Close()

	// Demultiplex the tagged output stream into per-query results; the
	// interned-measure probe is keyed by the full tagged key bytes.
	for _, q := range queries {
		out.Results[q.idx] = &Result{
			Measures:      make(map[string][]MeasureRecord, len(q.w.Measures())),
			Plan:          q.outcome.Plan,
			SampledPlan:   q.outcome.Sampled,
			SampleSeconds: q.outcome.SampleSeconds,
			PlanCached:    q.outcome.DecisionCached,
		}
	}
	asm := assembler{arity: arity}
	err = asm.drain(pipe, func(key []byte) (*asmSlot, error) {
		qi64, n := binary.Uvarint(key)
		if n <= 0 || qi64 >= uint64(len(queries)) {
			return nil, fmt.Errorf("core: output with bad query tag")
		}
		q := queries[qi64]
		m, ok := q.w.Measure(string(key[n:]))
		if !ok {
			return nil, fmt.Errorf("core: output for unknown measure %q", key[n:])
		}
		return asm.slot(out.Results[q.idx].Measures, m), nil
	})
	if err != nil {
		return err
	}
	// Canonical per-measure order, independent of reducer-completion
	// interleaving — the sequential path's assembler and order.
	if err := asm.finish(ctx, e.cfg.Executor); err != nil {
		return err
	}

	js := pipe.Stats()
	// Sharing accounting: every map task's one scan served all Q queries,
	// so Q-1 rescans of its input bytes never happened. The decision-cache
	// tally rides on the first task, like the single-query path.
	for t := range js.MapTasks {
		js.MapTasks[t].SharedScanQueries = int64(len(queries))
		js.MapTasks[t].SharedScanBytesSaved = int64(len(queries)-1) * js.MapTasks[t].BytesRead
	}
	if planCacheHits > 0 && len(js.MapTasks) > 0 {
		js.MapTasks[0].PlanCacheHits = planCacheHits
	}
	est := EstimateFromStats(e.cfg.Cluster, js)
	est.ReduceSeconds += sampleSeconds

	qidx := make([]int, len(queries))
	for qi, q := range queries {
		qidx[qi] = q.idx
		res := out.Results[q.idx]
		res.Stats = js
		res.Estimate = est
	}
	ginfo := make([][]int, len(groups))
	for gi, g := range groups {
		for _, qi := range g.members {
			ginfo[gi] = append(ginfo[gi], queries[qi].idx)
		}
	}
	out.Jobs = append(out.Jobs, BatchJobInfo{
		Queries: qidx, Shared: true, Groups: ginfo, Stats: js, Estimate: est,
	})
	return nil
}

// batchMapLocal is one shared-job map task's reusable state: a distkey
// session per geometry group, one shared record decode buffer, an intern
// table per group for tagged block keys, and the combined-key arena.
type batchMapLocal struct {
	dks   []*distkey.Session
	rec   cube.Record
	keys  []map[string][]byte // per group: bare block key bytes → stable tagged key
	arena keyArena
}

// taggedBlock interns tag+block once per distinct block per task; the
// returned slice is stable for the job's duration, satisfying Emit's
// retention rule at (amortized) zero allocations per pair.
func (ml *batchMapLocal) taggedBlock(gi int, tag, block []byte) []byte {
	if k, ok := ml.keys[gi][string(block)]; ok {
		return k
	}
	k := append(append(make([]byte, 0, len(tag)+len(block)), tag...), block...)
	ml.keys[gi][string(block)] = k
	return k
}

// batchMemberReduce is one member query's slice of a shared reduce
// task's state; out carries the query's uvarint output-key prefix.
type batchMemberReduce struct {
	ev  *localeval.Session
	out *ownedOutput
}

// batchGroupReduce is one geometry group's slice of a shared reduce
// task's state: one distkey session (the geometry is shared, so one
// ownership probe cache serves every member) plus per-member evaluation.
type batchGroupReduce struct {
	dk      *distkey.Session
	members []*batchMemberReduce
}

// batchReduceLocal is one shared-job reduce task's reusable state.
type batchReduceLocal struct {
	gs  []*batchGroupReduce
	rec cube.Record
}
