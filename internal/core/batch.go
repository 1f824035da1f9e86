package core

import (
	"context"
	"fmt"

	"github.com/casm-project/casm/internal/costmodel"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/workflow"
)

// Multi-query shared-scan batching: compatible workflows over one dataset
// run as a single job that scans the input once and evaluates every query
// against it, instead of one full scan per query (the batching trick of
// "Computing Marginals Using MapReduce", applied to composite measure
// workflows). Each query keeps its own plan; the scan is always shared,
// the shuffle per geometry group — startJob builds that job, for one query
// or many, and this file only decides which queries go into which job.

// BatchJobInfo describes one job of a batch, run or only planned.
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
	// the job; see SharedScanQueries per map task), zero for a job only
	// planned.
	Stats mr.JobStats
	// Estimate is the job's simulated response time, sampling passes
	// included; zero for a job only planned.
	Estimate costmodel.Estimate
}

// BatchResult is a completed batch evaluation.
type BatchResult struct {
	// Results holds one Result per input workflow, in input order.
	// Queries that ran in a shared job carry the shared job's Stats and
	// Estimate (the scan cost is joint — it cannot be attributed to one
	// of them).
	Results []*Result
	// Jobs lists the jobs the batch ran, ordered by their first query: one
	// job for all shareable queries plus a job of one per unshareable
	// query.
	Jobs []BatchJobInfo
}

// batchPlan is a planned batch: every query with its plan, and the jobs
// they partition into.
type batchPlan struct {
	ds      Dataset // the caller's, its cardinality counted once for the batch
	queries []*jobQuery
	jobs    []BatchJobInfo // Stats and Estimate zero until the job runs
}

// PlanBatchContext is EvaluateBatchContext up to the point where a job
// would start: it plans every workflow — decision cache, forced clustering
// factor, minimum blocks per reducer and the sampling pass included — and
// partitions them into the jobs EvaluateBatchContext runs, with each shared
// job's geometry groups. It returns each query's header as its job would
// report it, and the jobs with Stats and Estimate zero. Nothing runs.
func (e *Engine) PlanBatchContext(ctx context.Context, ws []*workflow.Workflow, ds *Dataset) ([]ResultHeader, []BatchJobInfo, error) {
	bp, err := e.planBatch(ctx, ws, ds)
	if err != nil {
		return nil, nil, err
	}
	headers := make([]ResultHeader, len(ws))
	for i, q := range bp.queries {
		headers[i] = q.outcome.header(e.earlyFor(q) != nil)
	}
	return headers, bp.jobs, nil
}

// planBatch plans every workflow once (the decision cache, when configured,
// deduplicates planning across structurally identical queries) and puts
// the shareable ones in one job and every other query in a job of one.
// Early-aggregated queries cannot share a job (see startJob); jobs are
// ordered by their first query.
func (e *Engine) planBatch(ctx context.Context, ws []*workflow.Workflow, ds *Dataset) (*batchPlan, error) {
	if len(ws) == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	bp := &batchPlan{ds: *ds, queries: make([]*jobQuery, len(ws))}
	var err error
	if bp.ds.NumRecords, err = cardinality(ctx, ds); err != nil {
		return nil, err
	}
	shared := -1
	for i, w := range ws {
		outcome, err := e.PlanContext(ctx, w, &bp.ds)
		if err == nil {
			bp.queries[i], err = newJobQuery(w, outcome)
		}
		if err != nil {
			return nil, fmt.Errorf("core: batch query %d: %w", i, err)
		}
		switch {
		case e.earlyFor(bp.queries[i]) != nil:
			bp.jobs = append(bp.jobs, BatchJobInfo{Queries: []int{i}})
		case shared < 0:
			shared = len(bp.jobs)
			bp.jobs = append(bp.jobs, BatchJobInfo{Queries: []int{i}})
		default:
			bp.jobs[shared].Queries = append(bp.jobs[shared].Queries, i)
		}
	}
	for j := range bp.jobs {
		job := &bp.jobs[j]
		if job.Shared = len(job.Queries) > 1; !job.Shared {
			continue
		}
		for _, g := range geometryGroups(bp.jobQueries(job)) {
			for k, qi := range g {
				g[k] = job.Queries[qi]
			}
			job.Groups = append(job.Groups, g)
		}
	}
	return bp, nil
}

// jobQueries returns the job's queries, in the job's order.
func (bp *batchPlan) jobQueries(job *BatchJobInfo) []*jobQuery {
	qs := make([]*jobQuery, len(job.Queries))
	for k, i := range job.Queries {
		qs[k] = bp.queries[i]
	}
	return qs
}

// EvaluateBatchContext plans the workflows as PlanBatchContext does and
// runs each job exactly as EvaluateContext runs its own — a single query is
// a batch of one. Per-query results are byte-identical to what len(ws)
// separate EvaluateContext calls would produce. Cancelling ctx tears down
// whichever job is in flight.
func (e *Engine) EvaluateBatchContext(ctx context.Context, ws []*workflow.Workflow, ds *Dataset) (*BatchResult, error) {
	bp, err := e.planBatch(ctx, ws, ds)
	if err != nil {
		return nil, err
	}
	out := &BatchResult{Results: make([]*Result, len(ws)), Jobs: bp.jobs}
	for j := range out.Jobs {
		job := &out.Jobs[j]
		results, err := e.runJob(ctx, &bp.ds, bp.jobQueries(job))
		if err != nil {
			return nil, fmt.Errorf("core: batch queries %v: %w", job.Queries, err)
		}
		for k, i := range job.Queries {
			out.Results[i] = results[k]
		}
		job.Stats, job.Estimate = results[0].Stats, results[0].Estimate
	}
	return out, nil
}
