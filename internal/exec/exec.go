// Package exec is the engine's task-scheduler runtime: a bounded worker
// pool (Executor) shared by every concurrently running job, with per-job
// task groups carrying a context end to end. It replaces the substrate's
// original per-job goroutine spawning — one mr.Run used to start its own
// map, reduce and collector goroutines, so N concurrent queries meant N
// uncoordinated pools. With exec, all
// jobs multiplex over one process-wide pool:
//
//   - admission is FIFO within a group and round-robin across groups, so
//     a long job cannot starve a short one (FIFO-fair);
//   - each group bounds its own in-flight tasks (the per-job
//     MapParallelism knob keeps its meaning on a shared pool);
//   - every task receives the group's context and must return promptly
//     once it is cancelled; task errors are aggregated with errors.Join
//     and prefixed with the task's label, while pure cancellation is
//     classified separately so callers can errors.Is(err,
//     context.Canceled) (see ErrorCollector).
//
// Long-lived drain loops that must not compete with compute tasks for
// workers — e.g. the shuffle collectors, which have to consume the
// transport while map tasks are still sending — run as service tasks
// (Group.GoService) on dedicated goroutines that the group still tracks
// and error-collects.
//
// exec is the only place in internal/mr and internal/core where
// goroutines are born; a lint test (internal/lint) bans naked go
// statements in those packages.
package exec

import (
	"context"
	"runtime"
	"sync"
)

// task is one queued unit of work.
type task struct {
	label string
	fn    func(ctx context.Context) error
}

// Executor is a bounded worker pool. The zero value is not usable; use
// New or Default. An Executor may be shared by any number of concurrent
// jobs and outlives all of them.
type Executor struct {
	mu     sync.Mutex
	cond   *sync.Cond
	ring   []*Group // groups with queued tasks, serviced round-robin
	next   int
	closed bool

	workers int
}

// New returns an executor running at most workers tasks concurrently
// (< 1 defaults to GOMAXPROCS). The workers are started immediately and
// live until Close.
func New(workers int) *Executor {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Executor{workers: workers}
	e.cond = sync.NewCond(&e.mu)
	for i := 0; i < workers; i++ {
		go e.worker()
	}
	return e
}

// Workers reports the pool's concurrency bound.
func (e *Executor) Workers() int { return e.workers }

var (
	defaultOnce sync.Once
	defaultExec *Executor
)

// Default returns the process-wide executor (GOMAXPROCS workers),
// creating it on first use. It is never closed; jobs that do not
// configure their own executor share it.
func Default() *Executor {
	defaultOnce.Do(func() { defaultExec = New(0) })
	return defaultExec
}

// Close stops the pool's workers once their current tasks finish. Queued
// tasks that have not started are abandoned (their groups' Wait would
// block forever), so Close must only be called after every group using
// the executor has completed. The process-wide Default executor is never
// closed.
func (e *Executor) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.cond.Broadcast()
}

// worker is one pool goroutine: pick a runnable task, run it, repeat.
func (e *Executor) worker() {
	for {
		e.mu.Lock()
		var g *Group
		var t task
		for {
			if e.closed {
				e.mu.Unlock()
				return
			}
			g, t = e.pickLocked()
			if g != nil {
				break
			}
			e.cond.Wait()
		}
		e.mu.Unlock()
		g.run(t)
		e.mu.Lock()
		g.running--
		// A finished task may unblock its own group (limit) or nothing;
		// one waiter is enough either way.
		e.mu.Unlock()
		e.cond.Signal()
	}
}

// pickLocked scans the ring round-robin for a group that has a queued
// task and headroom under its limit, pops that group's oldest task, and
// returns it. Groups whose queue empties leave the ring; e.next advances
// so consecutive picks rotate across jobs (the FIFO-fair admission).
func (e *Executor) pickLocked() (*Group, task) {
	for i := 0; i < len(e.ring); i++ {
		idx := (e.next + i) % len(e.ring)
		g := e.ring[idx]
		if g.limit > 0 && g.running >= g.limit {
			continue
		}
		t := g.queue[0]
		g.queue[0] = task{}
		g.queue = g.queue[1:]
		g.running++
		if len(g.queue) == 0 {
			e.ring = append(e.ring[:idx:idx], e.ring[idx+1:]...)
			g.inRing = false
			e.next = idx % max(len(e.ring), 1)
		} else {
			e.next = (idx + 1) % len(e.ring)
		}
		return g, t
	}
	return nil, task{}
}

// enqueue adds a task to the group's queue and makes the group visible
// to the workers.
func (e *Executor) enqueue(g *Group, t task) {
	e.mu.Lock()
	if !g.inRing {
		e.ring = append(e.ring, g)
		g.inRing = true
	}
	g.queue = append(g.queue, t)
	e.mu.Unlock()
	e.cond.Signal()
}
