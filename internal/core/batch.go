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
	// Jobs lists the jobs the batch ran, ordered by their first query: one
	// job for all shareable queries plus a job of one per unshareable
	// query.
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

// EvaluateBatchContext plans every workflow once (the decision cache, when
// configured, deduplicates planning across structurally identical
// queries), puts the shareable ones in one job and every other query in a
// job of one, and runs each job exactly as EvaluateContext runs its own —
// a single query is a batch of one. Per-query results are byte-identical
// to what len(ws) separate EvaluateContext calls would produce.
// Cancelling ctx tears down whichever job is in flight.
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

	// Partition: stage-stopped and early-aggregated queries cannot share a
	// job (see startJob); jobs are ordered by their first query.
	queries := make([]*jobQuery, len(ws))
	var parts [][]int
	shared := -1
	for i, w := range ws {
		outcome, err := e.PlanContext(ctx, w, &d)
		if err == nil {
			queries[i], err = newJobQuery(w, outcome)
		}
		if err != nil {
			return nil, fmt.Errorf("core: batch query %d: %w", i, err)
		}
		switch {
		case e.cfg.Stage != StageFull || e.earlyFor(queries[i].ev):
			parts = append(parts, []int{i})
		case shared < 0:
			shared = len(parts)
			parts = append(parts, []int{i})
		default:
			parts[shared] = append(parts[shared], i)
		}
	}

	out := &BatchResult{Results: make([]*Result, len(ws))}
	for _, part := range parts {
		qs := make([]*jobQuery, len(part))
		for k, i := range part {
			qs[k] = queries[i]
		}
		results, groups, err := e.runJob(ctx, &d, qs)
		if err != nil {
			return nil, fmt.Errorf("core: batch queries %v: %w", part, err)
		}
		for k, i := range part {
			out.Results[i] = results[k]
		}
		info := BatchJobInfo{
			Queries: part, Shared: len(part) > 1,
			Stats: results[0].Stats, Estimate: results[0].Estimate,
		}
		if info.Shared {
			info.Groups = make([][]int, len(groups))
			for gi, g := range groups {
				for _, k := range g.members {
					info.Groups[gi] = append(info.Groups[gi], part[k])
				}
			}
		}
		out.Jobs = append(out.Jobs, info)
	}
	return out, nil
}
