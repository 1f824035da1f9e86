package exec

import (
	"context"
	"sync"
	"time"
)

// Options parameterize a task group.
type Options struct {
	// Limit bounds the group's concurrently running pooled tasks
	// (< 1 = only the executor's worker count bounds it). Service tasks
	// are not counted: they run on dedicated goroutines.
	Limit int
	// OnError, when non-nil, is called exactly once, at the group's
	// first real (non-cancellation) task error. Jobs use it to cancel
	// their context so sibling tasks abort promptly.
	OnError func()
}

// Group is one job stage's set of tasks: submit with Go/GoService, then
// Wait. All tasks receive the group's context. A Group is not reusable
// after Wait returns.
type Group struct {
	e    *Executor
	ctx  context.Context
	errs ErrorCollector
	wg   sync.WaitGroup

	// Scheduler state, guarded by e.mu.
	queue   []task
	running int
	limit   int
	inRing  bool
}

// NewGroup returns a group submitting to the executor under ctx.
func (e *Executor) NewGroup(ctx context.Context, opts Options) *Group {
	g := &Group{e: e, ctx: ctx, limit: opts.Limit}
	g.errs.OnError = opts.OnError
	return g
}

// Timing records when the scheduler dispatched a task (Start, stamped
// before any task work runs — the gap to job submission is the queueing
// delay) and how long the task ran (Wall). Queue is the explicit
// admission wait for work that passed through an Admission controller
// (whole jobs at the service layer); for pooled tasks the scheduler
// leaves it zero, their queueing delay being the submission→Start gap.
// All three are observability-only: the cost model prices none of them.
type Timing struct {
	Queue time.Duration
	Start time.Time
	Wall  time.Duration
}

// Go submits one pooled task. label prefixes any error the task returns
// (and identifies it in ErrorCollector output); tm, when non-nil, is
// scheduler-stamped with the task's dispatch time and run duration. fn
// must honor ctx: return promptly (with ctx.Err()) once it is cancelled.
func (g *Group) Go(label string, tm *Timing, fn func(ctx context.Context) error) {
	g.wg.Add(1)
	g.e.enqueue(g, task{label: label, fn: g.timed(tm, fn)})
}

// GoService runs one service task on a dedicated goroutine, outside the
// pool's worker budget and the group's Limit, but still tracked by Wait
// and error-collected. Use it for drain loops that must make progress
// while pooled tasks run (e.g. shuffle collectors, which would deadlock
// against map-side backpressure if they had to wait for a pool slot).
func (g *Group) GoService(label string, fn func(ctx context.Context) error) {
	g.wg.Add(1)
	go g.run(task{label: label, fn: fn})
}

// run executes one task, records its outcome, and only then releases the
// group's WaitGroup, so Wait never returns ahead of a task's error.
// Pooled tasks are run by executor workers, service tasks by their own
// goroutine.
func (g *Group) run(t task) {
	defer g.wg.Done()
	g.errs.Add(t.label, t.fn(g.ctx))
}

// timed wraps fn to stamp tm at dispatch and completion.
func (g *Group) timed(tm *Timing, fn func(ctx context.Context) error) func(ctx context.Context) error {
	return func(ctx context.Context) error {
		if tm != nil {
			tm.Start = time.Now()
			defer func() { tm.Wall = time.Since(tm.Start) }()
		}
		return fn(ctx)
	}
}

// Wait blocks until every submitted task has finished and returns the
// group's aggregate error: real task errors joined via errors.Join, each
// prefixed with its task label; or the context's cancellation error when
// cancellation is all that went wrong; or nil.
func (g *Group) Wait() error {
	g.wg.Wait()
	return g.errs.Err()
}
