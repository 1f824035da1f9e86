package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"

	"github.com/casm-project/casm/internal/costmodel"
	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/distkey"
	"github.com/casm-project/casm/internal/localeval"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/optimizer"
	"github.com/casm-project/casm/internal/stats"
	"github.com/casm-project/casm/internal/transport"
	"github.com/casm-project/casm/internal/workflow"
)

// PlanOutcome carries the plan chosen for a run and how it was found.
type PlanOutcome struct {
	Plan          optimizer.Plan
	Sampled       bool
	SampleSeconds float64
	// DecisionCached indicates the complete decision came from
	// Config.DecisionCache; no planning work ran at all.
	DecisionCached bool
}

// PlanContext chooses the execution plan for the workflow over the
// dataset, applying the decision cache, the cost-model optimizer, a
// forced clustering factor, and (optionally) sampling-based skew
// handling, in that order. Planning runs inline on the caller's
// goroutine; ctx bounds the dataset scans (cardinality counting, skew
// sampling) it may perform.
func (e *Engine) PlanContext(ctx context.Context, w *workflow.Workflow, ds *Dataset) (PlanOutcome, error) {
	if err := ctx.Err(); err != nil {
		return PlanOutcome{}, err
	}
	n, err := cardinality(ctx, ds)
	if err != nil {
		return PlanOutcome{}, err
	}
	optCfg := optimizer.Config{
		NumReducers:         e.cfg.NumReducers,
		TotalRecords:        n,
		MinBlocksPerReducer: e.cfg.MinBlocksPerReducer,
	}

	// The decision cache short-circuits everything below it: a hit hands
	// back the complete prior decision (including a sampling-based one)
	// keyed by the canonical workflow fingerprint, the dataset identity,
	// and every knob that can change the outcome. A forced cf bypasses
	// it — the caller insisting the optimizer's decision not be used,
	// cached or otherwise.
	decide := e.cfg.DecisionCache != nil && e.cfg.ForceCF == 0
	var decisionKey string
	if decide {
		fp, err := workflow.Fingerprint(w)
		if err != nil {
			return PlanOutcome{}, err
		}
		decisionKey = optimizer.DecisionKey(fp, ds.Tag, n, optCfg,
			int(e.cfg.SkewMode), e.cfg.SampleSize, e.cfg.Seed)
		if plan, sampled, ok := e.cfg.DecisionCache.Get(decisionKey); ok {
			return PlanOutcome{Plan: plan, Sampled: sampled, DecisionCached: true}, nil
		}
	}

	plan, err := optimizer.Optimize(w, optCfg)
	if err != nil {
		return PlanOutcome{}, err
	}

	if e.cfg.ForceCF > 0 {
		if !plan.Key.IsOverlapping() && e.cfg.ForceCF != 1 {
			return PlanOutcome{}, fmt.Errorf("core: ForceCF %d needs an overlapping key", e.cfg.ForceCF)
		}
		plan.ClusteringFactor = e.cfg.ForceCF
		plan.PredictedWorkload = optimizer.PredictWorkload(ds.Schema, plan.Key, e.cfg.ForceCF, optCfg)
	}

	out := PlanOutcome{Plan: plan}
	if e.cfg.SkewMode == SkewSampling && e.cfg.ForceCF == 0 {
		if err := ctx.Err(); err != nil {
			return PlanOutcome{}, err
		}
		sample, bytesRead, err := sampleDataset(ctx, ds, e.cfg.SampleSize, e.cfg.Seed)
		if err != nil {
			return PlanOutcome{}, err
		}
		choice, err := optimizer.ChooseBySampling(ds.Schema, plan, sample, e.cfg.NumReducers, nil)
		if err != nil {
			return PlanOutcome{}, err
		}
		out.Plan = choice.Plan
		out.Sampled = true
		m := costmodel.DefaultCluster().Machine
		out.SampleSeconds = float64(bytesRead)/(m.DiskMBps*(1<<20)) +
			float64(len(plan.Candidates)*len(sample))*m.MapSecPerRecord + 2*m.TaskOverheadSec
	}
	if decide {
		e.cfg.DecisionCache.Put(decisionKey, out.Plan, out.Sampled)
	}
	return out, nil
}

// sampleDataset reservoir-samples up to n records from a handful of
// evenly spaced splits, the way the paper's mappers sample the data they
// acquire before the simulated dispatch.
func sampleDataset(ctx context.Context, ds *Dataset, n int, seed int64) ([]cube.Record, int64, error) {
	splits, err := ds.Input.Splits()
	if err != nil {
		return nil, 0, err
	}
	stride := max(len(splits)/8, 1)
	var picked []mr.Split
	var bytesRead int64
	for i := 0; i < len(splits); i += stride {
		picked = append(picked, splits[i])
		bytesRead += splits[i].SizeBytes()
	}
	res := stats.NewReservoir[cube.Record](n, seed)
	err = scanDataset(ctx, picked, func(b mr.Batch) error {
		if err := ds.Schema.ValidateColumns(b.Cols); err != nil {
			return err
		}
		for i := 0; i < b.N; i++ {
			if slot := res.Slot(); slot != nil {
				*slot = make(cube.Record, len(b.Cols))
				for c, col := range b.Cols {
					(*slot)[c] = col[i]
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return res.Sample(), bytesRead, nil
}

// Run plans and executes the workflow over the dataset under
// context.Background(); it is the compatibility wrapper around
// EvaluateContext for callers without a cancellation story.
func (e *Engine) Run(w *workflow.Workflow, ds *Dataset) (*Result, error) {
	return e.EvaluateContext(context.Background(), w, ds)
}

// EvaluateContext plans and executes the workflow over the dataset. The
// job's map/reduce tasks run on the engine's shared executor pool, so any
// number of concurrent EvaluateContext calls (on one engine or a
// Service's) multiplex over one bounded set of workers.
// Cancelling ctx tears the in-flight job down — shuffle senders unblock,
// spill and merge loops abort, temporary state is released — and the
// call returns an error satisfying errors.Is(err, context.Canceled).
func (e *Engine) EvaluateContext(ctx context.Context, w *workflow.Workflow, ds *Dataset) (*Result, error) {
	outcome, err := e.PlanContext(ctx, w, ds)
	if err != nil {
		return nil, err
	}
	return e.RunWithPlanContext(ctx, w, ds, outcome)
}

// RunWithPlanContext executes the workflow under an explicit plan
// outcome; see EvaluateContext for the execution and cancellation
// contract. It is a job of one query.
func (e *Engine) RunWithPlanContext(ctx context.Context, w *workflow.Workflow, ds *Dataset, outcome PlanOutcome) (*Result, error) {
	q, err := newJobQuery(w, outcome)
	if err != nil {
		return nil, err
	}
	results, err := e.runJob(ctx, ds, []*jobQuery{q})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// header is the one producer of a ResultHeader: the plan outcome plus
// whether the job combined on the map side.
func (o PlanOutcome) header(early bool) ResultHeader {
	return ResultHeader{
		Plan:            o.Plan,
		SampledPlan:     o.Sampled,
		EarlyAggregated: early,
		SampleSeconds:   o.SampleSeconds,
		PlanCached:      o.DecisionCached,
	}
}

// earlyFor returns a query's combining plan — the engine asks for one, every
// measure derives from mergeable partial states, and every basic grain's
// regions fit in 64 bits (so do the blocks of a key generalizing them) —
// or nil: the job ships records.
func (e *Engine) earlyFor(q *jobQuery) *earlyAggPlan {
	if e.cfg.EarlyAggregation != EarlyAggAuto || q.ev.SupportsEarlyAggregation() != nil {
		return nil
	}
	return newEarlyAggPlan(q.w.Schema(), q.w.Basics())
}

// jobQuery is one query of an evaluation job.
type jobQuery struct {
	w       *workflow.Workflow
	outcome PlanOutcome
	ev      *localeval.Evaluator
	// tag prefixes the query's output keys: its uvarint ordinal in a
	// multi-query job, empty in a job of one (set by startJob).
	tag []byte
}

func newJobQuery(w *workflow.Workflow, outcome PlanOutcome) (*jobQuery, error) {
	ev, err := localeval.New(w)
	if err != nil {
		return nil, err
	}
	return &jobQuery{w: w, outcome: outcome, ev: ev}, nil
}

// geometryGroups partitions a job's queries by block geometry — equal
// distribution key and clustering factor — in order of first appearance,
// each group listing indices into queries. Queries of one group
// redistribute records identically, so one emitted pair per (record,
// block) serves every member and the reducer builds the record group once:
// the pair fan-out (and the reducers' group builds) scale with distinct
// geometries, not with queries.
func geometryGroups(queries []*jobQuery) [][]int {
	var groups [][]int
	for qi, q := range queries {
		p := q.outcome.Plan
		gi := slices.IndexFunc(groups, func(g []int) bool {
			first := queries[g[0]].outcome.Plan
			return first.ClusteringFactor == p.ClusteringFactor && first.Key.Equal(p.Key)
		})
		if gi < 0 {
			gi = len(groups)
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], qi)
	}
	return groups
}

// jobGroup is a geometry group of a job's queries (see geometryGroups)
// with its block mapper.
type jobGroup struct {
	// tag prefixes the group's shuffle keys: its uvarint ordinal in a
	// multi-query job, empty in a job of one.
	tag     []byte
	bm      *distkey.BlockMapper
	members []int // indices into the job's query slice
}

// jobStart is a launched evaluation job: the streaming output pipe plus
// the facts consumers need to decode, label and account it.
type jobStart struct {
	eng     *Engine
	pipe    *mr.Pipe
	queries []*jobQuery
	groups  []*jobGroup
	early   bool
	arity   int
	// reuse is the run's result-reuse session (nil when reuse does not
	// apply). The job fills it per block; only a consumer that drains the
	// job to completion may commit its manifest.
	reuse *resultReuse
}

// startJob builds the one MapReduce job that answers the given queries
// over the dataset and starts it, returning the streaming output. The
// caller owns the pipe and must Close it on every path: runJob drains it
// into materialized Results; EvaluateStream hands it to the caller row by
// row.
//
// Every map task decodes each record once for the whole job and emits one
// pair per (geometry group, block); every reduce group evaluates each
// member query exactly as that query's own job would. A job of one query
// is the degenerate case, not a separate path: its only group carries an
// empty tag, so shuffle keys and output keys are the bare single-query
// bytes and the priced counters are those of a hand-written single-query
// job. Only a job of one may combine on the map side (the combiner's
// payloads are per-workflow) or use the result cache; planBatch
// partitions accordingly.
func (e *Engine) startJob(ctx context.Context, ds *Dataset, queries []*jobQuery) (*jobStart, error) {
	s := ds.Schema
	arity := s.NumAttrs()
	tagged := len(queries) > 1
	tag := func(ordinal int) []byte {
		if !tagged {
			return nil
		}
		return binary.AppendUvarint(nil, uint64(ordinal))
	}
	js := &jobStart{eng: e, queries: queries, arity: arity}

	for _, members := range geometryGroups(queries) {
		plan := queries[members[0]].outcome.Plan
		bm, err := distkey.NewBlockMapper(s, plan.Key, plan.ClusteringFactor)
		if err != nil {
			return nil, fmt.Errorf("core: plan not executable: %w", err)
		}
		js.groups = append(js.groups, &jobGroup{tag: tag(len(js.groups)), bm: bm, members: members})
	}
	for qi, q := range queries {
		q.tag = tag(qi)
	}
	groups := js.groups

	var plan *earlyAggPlan
	if !tagged {
		q := queries[0]
		plan = e.earlyFor(q)
		js.early = plan != nil
		js.reuse = e.newResultReuse(q.w, ds, q.outcome.Plan)
	}
	early, ru := js.early, js.reuse

	job := mr.Job{Name: "casm", Input: ds.Input, Config: e.mrConfig()}

	// A shuffled record value holds only the columns some query of the job
	// reads, encoded once per record into the task arena; lays tells each
	// query's sessions where its own columns are.
	var cols []int
	for a := 0; a < arity; a++ {
		if slices.ContainsFunc(queries, func(q *jobQuery) bool { return slices.Contains(q.ev.Columns(), a) }) {
			cols = append(cols, a)
		}
	}
	lays := make([]localeval.Layout, len(queries))
	for qi, q := range queries {
		var err error
		if lays[qi], err = q.ev.Layout(cols); err != nil {
			return nil, err
		}
	}

	// Each map task gets a distkey.Session per geometry group (scratch +
	// block-key intern cache for allocation-free per-record key generation)
	// plus a byte arena for what it emits; each reduce task additionally
	// gets a localeval.Session per query — the arena-backed evaluator state
	// reused across all of the task's groups.
	job.Config.NewMapLocal = func(*mr.MapTaskStats) any {
		ml := &mapLocal{dks: make([]*distkey.Session, len(groups)), walks: make([]blockWalk, len(groups))}
		if tagged {
			ml.keys = make([]map[string][]byte, len(groups))
		}
		for gi, g := range groups {
			ml.dks[gi] = g.bm.NewSession()
			if tagged {
				ml.keys[gi] = make(map[string][]byte)
			}
		}
		return ml
	}
	job.Config.NewReduceLocal = func(*mr.ReduceTaskStats) any {
		rl := &reduceLocal{
			dks:  make([]*distkey.Session, len(groups)),
			evs:  make([]*localeval.Session, len(queries)),
			outs: make([]*ownedOutput, len(queries)),
		}
		for gi, g := range groups {
			rl.dks[gi] = g.bm.NewSession()
		}
		for qi, q := range queries {
			rl.evs[qi] = q.ev.NewSession()
			rl.outs[qi] = newOwnedOutput(q.tag, len(q.w.Measures()))
		}
		return rl
	}

	if early {
		job.Config.NewCombiner = func(st *mr.MapTaskStats) mr.Combiner { return plan.newCombiner(groups[0].bm, st) }
	}

	// The map function: a batch's block ordinals under every geometry
	// group, then one pair per record, group and block — this loop is the
	// shared scan and the shared shuffle. A combining job (one query, one
	// group) folds the batch straight into the combiner table under each
	// block's ordinal and ships partial states, never the record; every
	// other job encodes a record's read columns once into the task arena
	// and ships that value under every key, so fan-out costs keys, not
	// copies.
	job.Map = func(ctx *mr.MapCtx, b mr.Batch) error {
		// A value outside its attribute's domain would index past a mapped
		// hierarchy's tables, or evaluate regions no schema level has.
		if err := s.ValidateColumns(b.Cols); err != nil {
			return err
		}
		ml := ctx.Local.(*mapLocal)
		if early {
			blocks, rows := ml.dks[0].Walk(b.Cols)
			return ctx.Fold(b, blocks, rows)
		}
		for gi, dk := range ml.dks {
			w := &ml.walks[gi]
			w.ords, w.rows = dk.Walk(b.Cols)
			w.next = 0
		}
		for row := int32(0); row < int32(b.N); row++ {
			value := ml.arena.record(b.Cols, int(row), cols)
			for gi, g := range groups {
				w := &ml.walks[gi]
				for ; w.next < len(w.rows) && w.rows[w.next] == row; w.next++ {
					key := ml.dks[gi].Key(w.ords[w.next]) // interned: encoded once per distinct block per task
					if tagged {
						key = ml.taggedBlock(gi, g.tag, key)
					}
					if err := ctx.Emit(key, value); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}

	job.Reduce = func(ctx *mr.ReduceCtx, groupKey []byte, values *mr.GroupIter) error {
		rl := ctx.Local.(*reduceLocal)
		gi, blockKey := 0, groupKey
		if tagged {
			g, n := binary.Uvarint(groupKey)
			if n <= 0 || g >= uint64(len(groups)) {
				return fmt.Errorf("core: shuffle group key with bad group tag")
			}
			gi, blockKey = int(g), groupKey[n:]
		}
		dk, members := rl.dks[gi], groups[gi].members
		// Result-cache probe: a hit serves the block's owned rows straight
		// from the cache (the shuffled records are drained unread, their
		// evaluation skipped); a miss evaluates normally and captures the
		// emitted rows for the cache on the way out.
		var canon map[string]int
		if ru != nil {
			rl.cacheKey = append(append(rl.cacheKey[:0], ru.prefix...), blockKey...)
			if rows, ok := ru.rc.Get(rl.cacheKey); ok {
				ctx.Stats.ResultCacheHits++
				ctx.Stats.ResultCacheBytes += int64(len(rows))
				if err := values.Drain(); err != nil {
					return err
				}
				ru.note(rl.cacheKey)
				return ru.emitCached(ctx, rl.outs[0], rows)
			}
			ctx.Stats.ResultCacheMisses++
			canon = ru.canonIdx
			rl.capture = rl.capture[:0]
		}
		// Build the record group once and evaluate every member against it.
		// Partial states merge into the one member's slots; records load
		// straight into each member's block arena.
		var pairs int64
		var err error
		if early {
			pairs, err = collectPartials(values, rl.evs[members[0]])
		} else {
			err = loadGroup(ctx, values, rl.evs, lays, members)
		}
		if err != nil {
			return err
		}
		for _, qi := range members {
			es := rl.evs[qi]
			var results []localeval.Result
			var est localeval.Stats
			if early {
				results, est, err = es.EvaluatePartials()
				ctx.Stats.EvalRecords += pairs
				// Merging the partial states requires grouping them by
				// (measure, region); Hadoop does this by sorting, so the cost
				// model prices it like the in-group sort it replaces.
				ctx.Stats.GroupSortItems += pairs
			} else {
				results, est, err = es.EvaluateBlock(localeval.Options{})
				ctx.Stats.EvalRecords += est.ScannedRecords
			}
			if err != nil {
				return err
			}
			ctx.Stats.GroupSortItems += est.SortedItems
			ctx.Stats.WindowLookups += est.WindowLookups
			// Results alias the evaluator session's arenas and are only valid
			// inside this group — emitting copies what survives the filter.
			if !rl.outs[qi].emit(ctx, dk, blockKey, results, canon, &rl.capture) {
				// Unmappable measure name: drop the fill and poison the
				// manifest rather than cache an incomplete block.
				canon = nil
				ru.markIncomplete()
			}
		}
		if canon != nil {
			ru.rc.Put(rl.cacheKey, append([]byte(nil), rl.capture...))
			ru.note(rl.cacheKey)
		}
		var arena int64
		for _, es := range rl.evs {
			arena += es.ArenaBytes
		}
		ctx.Stats.EvalArenaBytes = arena
		return nil
	}

	pipe, err := mr.RunPipe(ctx, job)
	if err != nil {
		return nil, err
	}
	js.pipe = pipe
	return js, nil
}

// stats returns the job's counters and simulated response time, sampling
// passes included; valid once the pipe has ended. Every map task's one
// scan served all Q queries, so Q-1 rescans of its input bytes never
// happened; the plans the job did not recompute are tallied on the first
// map task so the jobwide sum reads right.
func (js *jobStart) stats() (mr.JobStats, costmodel.Estimate) {
	st := js.pipe.Stats()
	var planHits int64
	var sampleSeconds float64
	for _, q := range js.queries {
		if q.outcome.DecisionCached {
			planHits++
		}
		sampleSeconds += q.outcome.SampleSeconds
	}
	n := int64(len(js.queries))
	for t := range st.MapTasks {
		st.MapTasks[t].SharedScanQueries = n
	}
	if len(st.MapTasks) > 0 {
		st.MapTasks[0].PlanCacheHits = planHits
	}
	return st, js.eng.estimate(st, sampleSeconds)
}

// runJob answers the queries with one job: start it, drain its output into
// one Result per query (in query order), and sort each measure into
// canonical order. A job of one first tries the committed manifest of a
// previous identical run — no job, no input bytes scanned.
//
// The job's output is streamed: batches of measure records are decoded
// into the results as reduce tasks emit them, concurrently with the rest
// of the reduce phase, instead of materializing one all-reducers []Pair
// first. The emitted Value buffers become garbage batch by batch and the
// batch slices recycle through the transport pool, so peak memory holds
// the decoded result, not the decoded result plus its full wire form.
func (e *Engine) runJob(ctx context.Context, ds *Dataset, queries []*jobQuery) ([]*Result, error) {
	if len(queries) == 1 {
		q := queries[0]
		if ru := e.newResultReuse(q.w, ds, q.outcome.Plan); ru != nil {
			if out, ok := e.resultFromCache(ctx, q, ds, ru); ok {
				return []*Result{out}, nil
			}
		}
	}
	js, err := e.startJob(ctx, ds, queries)
	if err != nil {
		return nil, err
	}
	defer js.pipe.Close() // tears the job down on assembly-error paths

	results := make([]*Result, len(queries))
	for qi, q := range queries {
		results[qi] = &Result{
			ResultHeader: q.outcome.header(js.early),
			Measures:     make(map[string][]MeasureRecord, len(q.w.Measures())),
		}
	}
	asm := assembler{arity: js.arity}
	err = asm.drain(js.pipe, func(key []byte) (*asmSlot, error) {
		qi, m, err := js.resolve(key)
		if err != nil {
			return nil, err
		}
		return asm.slot(results[qi].Measures, m), nil
	})
	if err != nil {
		return nil, err
	}
	// Batches arrive in reduce-completion order; the assembler's sort makes
	// the canonical result bytes independent of that interleaving.
	if err := asm.finish(ctx, e.cfg.executor); err != nil {
		return nil, err
	}
	st, est := js.stats()
	for _, res := range results {
		// The scan cost is joint — it cannot be attributed to one query.
		res.Stats, res.Estimate = st, est
	}
	// The run drained every reduce group, so its touched-entry set is the
	// complete answer: publish the manifest for whole-query reuse.
	if js.reuse != nil {
		js.reuse.commit()
	}
	return results, nil
}

// resolve demultiplexes one output key into its query and measure.
func (js *jobStart) resolve(key []byte) (int, *workflow.Measure, error) {
	qi := 0
	if len(js.queries) > 1 {
		q, n := binary.Uvarint(key)
		if n <= 0 || q >= uint64(len(js.queries)) {
			return 0, nil, fmt.Errorf("core: output with bad query tag")
		}
		qi, key = int(q), key[n:]
	}
	m, ok := js.queries[qi].w.Measure(string(key))
	if !ok {
		return 0, nil, fmt.Errorf("core: output for unknown measure %q", key)
	}
	return qi, m, nil
}

// mrConfig is the substrate configuration every job of this engine
// shares; each job adds its own hooks (combiner, task locals).
func (e *Engine) mrConfig() mr.Config {
	return mr.Config{
		NumReducers:     e.cfg.NumReducers,
		Executor:        e.cfg.executor,
		MorselBytes:     e.cfg.MorselBytes,
		LocalAggBudget:  e.cfg.LocalAggBudget,
		SortMemoryItems: e.cfg.SortMemoryItems,
		TempDir:         e.cfg.TempDir,
	}
}

// estimate is the simulated response time of a run with the given
// counters on the paper's cluster, plus its sampling passes.
func (e *Engine) estimate(st mr.JobStats, sampleSeconds float64) costmodel.Estimate {
	est := EstimateFromStats(costmodel.DefaultCluster(), st)
	est.ReduceSeconds += sampleSeconds
	return est
}

// EstimateFromStats converts substrate counters into a simulated response
// time on the given cluster. Only the tasks' priced counters reach the
// cost model; it cannot see mr.MapObserved or mr.ReduceObserved.
func EstimateFromStats(c costmodel.Cluster, js mr.JobStats) costmodel.Estimate {
	mw := make([]costmodel.MapWork, len(js.MapTasks))
	for i := range js.MapTasks {
		mw[i] = js.MapTasks[i].MapWork
	}
	rw := make([]costmodel.ReduceWork, len(js.ReduceTasks))
	for i := range js.ReduceTasks {
		rw[i] = js.ReduceTasks[i].ReduceWork
	}
	return costmodel.EstimateJob(c, mw, rw)
}

// EstimateStages prices the run's counters cut after each stage as Figure
// 4(d)'s bars: Map-Only has no reduce wave, Sort+Eval is EstimateFromStats.
func EstimateStages(c costmodel.Cluster, js mr.JobStats) (bars [costmodel.NumStages]costmodel.Estimate) {
	cut := mr.JobStats{MapTasks: js.MapTasks}
	bars[costmodel.StageMapOnly] = EstimateFromStats(c, cut)
	cut.ReduceTasks = slices.Clone(js.ReduceTasks)
	for s := costmodel.StageMR; s < costmodel.NumStages; s++ {
		for i, t := range js.ReduceTasks {
			cut.ReduceTasks[i].ReduceWork = t.Cut(s)
		}
		bars[s] = EstimateFromStats(c, cut)
	}
	return bars
}

// CombinedKey rewrites a record-shipping run's counters as the paper's
// combined-key sort (Section III-D, Figure 4(d)'s last bar) would have
// priced them: the shuffle key also carries the record, so every pair's
// value bytes are shipped twice (Shuffled too), and the framework's sort
// already ordered each group, so no group re-sorts. Every other priced
// counter is equal. ok is false for a run that spilled (the combined
// key's sort would have spilled longer keys) or combined on the map side
// (the combined key never applied there).
func CombinedKey(js mr.JobStats) (cf mr.JobStats, ok bool) {
	if slices.ContainsFunc(js.MapTasks, func(t mr.MapTaskStats) bool { return t.CombineInputs > 0 }) ||
		slices.ContainsFunc(js.ReduceTasks, func(t mr.ReduceTaskStats) bool { return t.SpillRuns > 0 }) {
		return mr.JobStats{}, false
	}
	cf = js
	cf.MapTasks, cf.ReduceTasks = slices.Clone(js.MapTasks), slices.Clone(js.ReduceTasks)
	for i := range cf.MapTasks {
		cf.MapTasks[i].BytesOut += cf.MapTasks[i].ValueBytesOut
		cf.Shuffled += cf.MapTasks[i].ValueBytesOut
	}
	for i := range cf.ReduceTasks {
		t := &cf.ReduceTasks[i]
		t.BytesIn += t.ValueBytesIn
		t.GroupSortItems = 0
	}
	return cf, true
}

// mapLocal is one map task's reusable state (mr.Config.NewMapLocal): a
// distkey session per geometry group and the arena of the bytes it emits.
type mapLocal struct {
	dks   []*distkey.Session
	walks []blockWalk // per group: the current batch's blocks
	// keys interns, per group of a multi-query job, bare block key bytes →
	// stable tagged key; nil in a job of one, whose keys carry no tag.
	keys  []map[string][]byte
	arena keyArena
}

// blockWalk is a geometry group's distkey.Session.Walk of the current
// batch, and the first of its pairs not yet emitted.
type blockWalk struct {
	ords []uint64
	rows []int32
	next int
}

// taggedBlock interns tag+block once per distinct block per task; the
// returned slice is stable for the job's duration, satisfying Emit's
// retention rule at (amortized) zero allocations per pair.
func (ml *mapLocal) taggedBlock(gi int, tag, block []byte) []byte {
	if k, ok := ml.keys[gi][string(block)]; ok {
		return k
	}
	k := append(append(make([]byte, 0, len(tag)+len(block)), tag...), block...)
	ml.keys[gi][string(block)] = k
	return k
}

// keyArena gives the bytes a task builds and emits a stable home:
// projected record values on the map side, packed measure records on the
// reduce side. Emit retains them, so they cannot live in scratch; the
// arena amortizes their storage to one allocation per chunk instead of
// one per pair.
type keyArena struct {
	chunk []byte
	// next is the next chunk's capacity: chunks grow geometrically from
	// keyChunkMin to keyChunkMax, so the many tasks that emit only a few
	// bytes (sliding windows off, small splits) don't each pin a fixed
	// 64KiB.
	next int
}

const (
	keyChunkMin = 256
	keyChunkMax = 1 << 16
)

// reserve makes the current chunk hold need more bytes. A full chunk is
// abandoned (kept alive by the emitted slices pointing into it) and a
// fresh one started, so handed-out slices are never moved or logically
// extended by later appends.
func (a *keyArena) reserve(need int) {
	if cap(a.chunk)-len(a.chunk) < need {
		size := max(a.next, keyChunkMin)
		a.next = min(size*2, keyChunkMax)
		a.chunk = make([]byte, 0, max(size, need))
	}
}

// measureRecord appends one output row's packed measure record and
// returns the stable bytes.
func (a *keyArena) measureRecord(coords []int64, v float64) []byte {
	a.reserve(len(coords)*binary.MaxVarintLen64 + 8)
	start := len(a.chunk)
	a.chunk = appendMeasureRecord(a.chunk, coords, v)
	return a.chunk[start:len(a.chunk):len(a.chunk)]
}

// record appends the uvarints of record row's attributes cols, read from
// a batch's columns — a record value projected to those columns — and
// returns the stable bytes.
func (a *keyArena) record(batch [][]int64, row int, cols []int) []byte {
	a.reserve(len(cols) * binary.MaxVarintLen64)
	start := len(a.chunk)
	for _, c := range cols {
		a.chunk = binary.AppendUvarint(a.chunk, uint64(batch[c][row]))
	}
	return a.chunk[start:len(a.chunk):len(a.chunk)]
}

// ownedOutput is the tail of one query's reduce call: the ownership
// filter, the output-record encoding, and the emit under a per-task
// interned key.
type ownedOutput struct {
	tag []byte // output-key prefix: a multi-query job's query ordinal, else empty
	// names interns one stable []byte per measure name for EmitStable, and
	// rows is the task's arena of emitted records: the framework retains
	// keys and values uncopied, so neither may be scratch.
	names map[string][]byte
	rows  keyArena
}

func newOwnedOutput(tag []byte, measures int) *ownedOutput {
	return &ownedOutput{tag: tag, names: make(map[string][]byte, measures)}
}

// key returns the measure's stable output key, interned per task so every
// record of a measure shares one key slice.
func (o *ownedOutput) key(measure string) []byte {
	kb, ok := o.names[measure]
	if !ok {
		kb = append(append(make([]byte, 0, len(o.tag)+len(measure)), o.tag...), measure...)
		o.names[measure] = kb
	}
	return kb
}

// emit applies the ownership filter (Section III-B.2) to one block's
// results: only the block owning a result's region may output it;
// duplicated and partial results in overlapping neighbours are dropped.
// The check encodes each owner into scratch and allocates nothing.
// Survivors are encoded once, into the task's arena (the value is handed
// off to the output). With a non-nil canon every emitted row is also
// appended to *capture in cached-row form; emit reports false when a
// measure was missing from canon, leaving the capture incomplete.
func (o *ownedOutput) emit(ctx *mr.ReduceCtx, dk *distkey.Session, blockKey []byte, results []localeval.Result, canon map[string]int, capture *[]byte) bool {
	complete, name, key := true, "", []byte(nil)
	for _, r := range results {
		if !dk.Owns(r.Region, blockKey) {
			continue
		}
		if r.Measure != name { // results come measure by measure
			name, key = r.Measure, o.key(r.Measure)
		}
		row := o.rows.measureRecord(r.Region.Coord, r.Value)
		ctx.EmitStable(key, row)
		if canon != nil {
			if idx, ok := canon[r.Measure]; ok {
				*capture = appendCachedRow(*capture, idx, row)
			} else {
				canon, complete = nil, false
			}
		}
	}
	return complete
}

// reduceLocal is one reduce task's reusable state
// (mr.Config.NewReduceLocal), shared across all of the task's groups: a
// distkey session per geometry group (the ownership check's scratch, shared
// by every member), and an arena-backed evaluator session and output tail
// per query.
type reduceLocal struct {
	dks  []*distkey.Session
	evs  []*localeval.Session
	outs []*ownedOutput
	// cacheKey and capture are the result-reuse scratch: the probe key of
	// the current group and the cached-row encoding of its emitted output
	// (both copied before the cache retains them).
	cacheKey []byte
	capture  []byte
}

// loadGroup streams a group's record values straight into the columnar
// arena of every member query's evaluator session — one flat decode per
// record and member, no per-record slice allocations — each arena sized
// beforehand for the task's largest group when the collector knows it.
func loadGroup(ctx *mr.ReduceCtx, values *mr.GroupIter, evs []*localeval.Session, lays []localeval.Layout, members []int) error {
	for _, qi := range members {
		evs[qi].Reserve(ctx.MaxGroupPairs)
	}
	for {
		p, ok, err := values.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		for _, qi := range members {
			if err := evs[qi].AppendRaw(p.Value, lays[qi]); err != nil {
				return err
			}
		}
	}
}

// collectPartials merges a group's partial states (an mr.GroupIter's
// values) straight into the evaluator session's slots, returning the
// number of payloads.
func collectPartials(values interface {
	Next() (transport.Pair, bool, error)
}, es *localeval.Session) (int64, error) {
	var pairs int64
	for {
		p, ok, err := values.Next()
		if err != nil || !ok {
			return pairs, err
		}
		pairs++
		idx, ck, state, err := splitPartial(p.Value)
		if err != nil {
			return pairs, err
		}
		if err := es.MergePartial(idx, ck, state); err != nil {
			return pairs, err
		}
	}
}
