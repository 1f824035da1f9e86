package core

import (
	"context"

	"github.com/casm-project/casm/internal/costmodel"
	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/workflow"
)

// ResultRow is one streamed <measure, region, value> output row.
type ResultRow struct {
	Measure string
	Region  cube.Region
	Value   float64
}

// ResultStream is the streaming form of an evaluation: an
// mr.Iter[ResultRow] yielding result rows as the job's reduce tasks
// emit them, concurrently with the rest of the run, instead of one
// Result assembled after the job completes. Rows arrive in
// reduce-completion order, NOT the per-measure region order of
// Result.Measures — a sink needing the canonical order must sort (or use
// EvaluateContext, which does).
//
// The stream is single-use and single-goroutine: consume with Next until
// ok=false, check the error, Close; or Close early to cancel the
// in-flight job (tasks abort, spill state is reclaimed). Stats and
// Estimate are valid only after the stream has ended.
//
// Ownership: a row's Region.Coord aliases the chunk of rows the reduce
// task filled and is only guaranteed valid until the following Next
// call; Measure is an interned string, safe to retain.
type ResultStream struct {
	// The plan facts, valid immediately.
	ResultHeader

	js    *jobStart
	cur   *rowChunk
	i     int
	rows  int64
	ended bool // Next reached the end of the stream without error
}

// EvaluateStream plans the workflow and starts its evaluation, returning
// the streaming result. The engine, executor sharing, and cancellation
// contract match EvaluateContext; only the output handoff differs — rows
// flow to the caller while the job still runs (a reducer whose shuffle
// stream has ended starts emitting while its siblings still collect) and
// peak memory never holds the whole result.
func (e *Engine) EvaluateStream(ctx context.Context, w *workflow.Workflow, ds *Dataset) (*ResultStream, error) {
	outcome, err := e.PlanContext(ctx, w, ds)
	if err != nil {
		return nil, err
	}
	q, err := newJobQuery(w, outcome)
	if err != nil {
		return nil, err
	}
	js, err := e.startJob(ctx, ds, []*jobQuery{q})
	if err != nil {
		return nil, err
	}
	return &ResultStream{ResultHeader: outcome.header(js.early), js: js}, nil
}

// Next returns the next result row; ok=false ends the stream (err, if
// any, is the job's). See ResultStream for ownership.
func (s *ResultStream) Next() (ResultRow, bool, error) {
	for s.cur == nil || s.i == len(s.cur.vals) {
		if s.cur != nil { // the caller is done with its last row
			giveRowChunk(s.cur)
		}
		c, ok, err := s.js.pipe.Next()
		if err != nil || !ok {
			s.ended = err == nil
			return ResultRow{}, false, err
		}
		s.cur, s.i = c, 0
	}
	c, i := s.cur, s.i
	s.i++
	s.rows++
	m := s.js.queries[c.q].w.Measures()[c.m]
	return ResultRow{
		Measure: m.Name,
		Region:  cube.Region{Grain: m.Grain, Coord: c.row(i, s.js.arity)},
		Value:   c.vals[i],
	}, true, nil
}

// Close tears the job down if it is still running and releases the
// stream; idempotent (see mr.Pipe.Close for the early-close contract).
func (s *ResultStream) Close() error { return s.js.pipe.Close() }

// Rows reports how many rows the stream has yielded so far.
func (s *ResultStream) Rows() int64 { return s.rows }

// Stats returns the job's counters; valid once the stream has ended.
func (s *ResultStream) Stats() mr.JobStats {
	st, _ := s.js.stats()
	return st
}

// Estimate returns the simulated response time on the engine's cluster,
// including any sampling overhead; valid once the stream has ended.
func (s *ResultStream) Estimate() costmodel.Estimate {
	_, est := s.js.stats()
	return est
}
