package mr

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/casm-project/casm/internal/exec"
	"github.com/casm-project/casm/internal/groupx"
	"github.com/casm-project/casm/internal/transport"
)

// cancelCheckStride is how many pairs the shuffle drain processes between
// cancellation polls (a map task polls once per batch). The poll is a
// non-blocking read of the cached Done channel — ctx.Err() would take the
// context mutex, which is contended when every task of a job shares one
// context — but even that is kept off the per-pair path; a stride of 1024
// bounds post-cancel latency to microseconds of extra work.
const cancelCheckStride = 1024

// outputBatchPairs is how many output pairs a reduce task buffers before
// handing them to the job's output stream as one batch: large enough to
// amortize the channel operation, small enough that the first results
// reach the consumer while the reduce phase is still running.
const outputBatchPairs = 256

// Run executes the job to completion under context.Background(); it is
// the compatibility wrapper around RunContext for callers without a
// cancellation story.
func Run(job Job) (*Result, error) { return RunContext(context.Background(), job) }

// RunContext executes the job to completion on cfg.Executor's shared
// worker pool and returns its output and counters. It is the
// materializing wrapper around RunPipe: the streamed output batches are
// assembled into Result.Output in per-reducer order (reducer 0's records
// first, each reducer's in emit order), the order the barrier
// implementation produced. Cancelling ctx tears the pipeline down
// promptly — blocked shuffle sends unblock, spill and merge loops abort,
// collectors drain the transport and release their spill runs — and
// RunContext returns an error satisfying errors.Is(err,
// context.Canceled). When tasks fail, every real failure is reported
// (errors.Join), each prefixed with its task identity; the first real
// failure also cancels the job's context so sibling tasks abort instead
// of running a doomed job to completion.
func RunContext(ctx context.Context, job Job) (*Result, error) {
	p, err := RunPipe(ctx, job)
	if err != nil {
		return nil, err
	}
	outputs := make([][]transport.Pair, p.numReducers)
	for {
		r, pairs, ok, err := p.NextBatch()
		if err != nil {
			p.Close()
			return nil, err
		}
		if !ok {
			break
		}
		outputs[r] = append(outputs[r], pairs...)
		transport.RecycleBatch(pairs)
	}
	if err := p.Close(); err != nil {
		return nil, err
	}
	result := &Result{Stats: p.Stats()}
	for _, out := range outputs {
		result.Output = append(result.Output, out...)
	}
	return result, nil
}

// ErrClosed is returned by Next/NextBatch on a pipe that was torn down by
// an early Close before its stream ended naturally — the read is a caller
// bug (reading a stream it already abandoned), distinct from the benign
// ok=false end of a fully consumed stream. Close itself stays idempotent
// and returns nil on repeat calls.
var ErrClosed = errors.New("mr: pipe is closed")

// outBatch is one run of output pairs flushed by reduce task r.
type outBatch struct {
	r     int
	pairs []transport.Pair
}

// Pipe is a running job's streaming output: a single-use iterator over
// the output pairs, yielding each reduce task's records as soon as that
// task emits them — concurrently with the rest of the reduce phase —
// instead of after the whole job completes. It implements
// Iter[transport.Pair] (Next + idempotent Close; see Iter for the full
// single-use contract). Pipe is single-goroutine.
//
// Lifecycle: consume with Next (or NextBatch) until ok=false, then check
// the error and call Close; or Close early to abandon the stream, which
// cancels the job and tears it down exactly like cancelling the context
// passed to RunPipe (tasks abort, spill runs are reclaimed, no
// goroutines remain). Stats is valid after the stream has ended or Close
// has returned.
//
// Ownership: yielded pairs carry the reduce functions' emitted key/value
// bytes uncopied and stay valid indefinitely (they are not reused); the
// []Pair batch slices from NextBatch are handed off to the caller, who
// may pass them to transport.RecycleBatch once the pairs are consumed.
type Pipe struct {
	out         chan outBatch
	cancel      context.CancelFunc
	coordDone   chan struct{}
	numReducers int

	// Set by the coordinator before coordDone closes.
	err   error
	stats JobStats

	// firstOut is the atomically stamped time of the first output batch
	// handoff, in nanoseconds since the job started (+1 so a stamped
	// zero-duration is distinguishable from "no output").
	firstOut atomic.Int64

	cur      []transport.Pair
	i        int
	finished bool
	closed   bool
}

// NextBatch returns the next output batch and the reduce task that
// emitted it. ok=false ends the stream; the returned error, if any, is
// the job's (joined task failures, or the cancellation error). The batch
// slice is handed off to the caller (see Pipe ownership).
func (p *Pipe) NextBatch() (r int, pairs []transport.Pair, ok bool, err error) {
	if p.finished {
		return 0, nil, false, nil
	}
	if p.closed {
		return 0, nil, false, ErrClosed
	}
	b, ok := <-p.out
	if !ok {
		p.finished = true
		<-p.coordDone
		return 0, nil, false, p.err
	}
	return b.r, b.pairs, true, nil
}

// Next yields the stream's pairs one at a time (Iter). Use either
// Next or NextBatch on a given Pipe, not both.
func (p *Pipe) Next() (transport.Pair, bool, error) {
	for p.i >= len(p.cur) {
		_, pairs, ok, err := p.NextBatch()
		if err != nil || !ok {
			return transport.Pair{}, false, err
		}
		p.cur, p.i = pairs, 0
	}
	pr := p.cur[p.i]
	p.i++
	return pr, true, nil
}

// Close tears the job down if it is still running (cancelling its
// context), waits for every task to finish, and releases the stream.
// Idempotent. A deliberate early Close is not an error: the resulting
// context.Canceled is swallowed; real task failures that happened before
// the cancellation are returned.
func (p *Pipe) Close() error {
	if p.closed {
		return nil
	}
	p.closed = true
	p.cancel()
	for range p.out { // unblock producers until the coordinator closes the stream
	}
	<-p.coordDone
	if p.err != nil && !isCancel(p.err) {
		if p.finished {
			return nil // Next already surfaced it
		}
		return p.err
	}
	return nil
}

func isCancel(err error) bool {
	return err == context.Canceled || err == context.DeadlineExceeded || contextIs(err)
}

func contextIs(err error) bool {
	type unwrapper interface{ Unwrap() []error }
	switch e := err.(type) {
	case interface{ Unwrap() error }:
		return isCancel(e.Unwrap())
	case unwrapper:
		for _, u := range e.Unwrap() {
			if !isCancel(u) {
				return false
			}
		}
		return len(e.Unwrap()) > 0
	}
	return false
}

// Stats returns the job's counters. Valid once the stream has ended
// (Next/NextBatch returned ok=false) or Close has returned.
func (p *Pipe) Stats() JobStats { return p.stats }

// RunPipe starts the job on cfg.Executor's shared worker pool and
// returns its streaming output. Validation, split enumeration, and
// morsel carving run synchronously (so configuration errors surface
// here); everything else — map phase, shuffle, per-reducer collection,
// reduce phase — runs under a coordinator service task, and output pairs
// flow to the returned Pipe as reduce tasks emit them.
//
// The reduce phase is pipelined per reducer: each reducer's shuffle
// drain feeds its grouping collector incrementally, and its reduce task
// is scheduled the moment its OWN stream closes, rather than behind a
// global all-collectors barrier. A reducer whose senders finish early
// therefore starts — and its first output rows reach the consumer —
// while other reducers are still collecting (or, with a transport that
// closes per-reducer streams early, while map tasks still run).
func RunPipe(ctx context.Context, job Job) (*Pipe, error) {
	cfg, err := job.Config.withDefaults()
	if err != nil {
		return nil, err
	}
	if job.Input == nil || job.Map == nil || job.Reduce == nil {
		return nil, fmt.Errorf("mr: job needs Input, Map and Reduce")
	}
	splits, err := job.Input.Splits()
	if err != nil {
		return nil, fmt.Errorf("mr: splits: %w", err)
	}
	// Morsel mode carves splits before any task starts: the dispatch set
	// must be complete up front (StealDeques treats empty as exhausted),
	// and carve errors should fail the job at planning, not mid-pipeline.
	var morselItems []Split
	var morselOwners []int
	if cfg.MorselBytes > 0 {
		morselItems, morselOwners, err = carveMorsels(splits, cfg.MorselBytes)
		if err != nil {
			return nil, err
		}
	}
	tr, err := cfg.newTransport(cfg.NumReducers)
	if err != nil {
		return nil, fmt.Errorf("mr: transport: %w", err)
	}

	// jobCtx governs every task of this job; cancelJob is the teardown
	// trigger shared by external cancellation, internal failure, and
	// Pipe.Close.
	jobCtx, cancelJob := context.WithCancel(ctx)
	p := &Pipe{
		out:         make(chan outBatch, cfg.NumReducers),
		cancel:      cancelJob,
		coordDone:   make(chan struct{}),
		numReducers: cfg.NumReducers,
	}
	// The coordinator is a service task (dedicated goroutine — it blocks
	// on stage waits) owning the whole job lifecycle; its errors surface
	// through the Pipe, not a group Wait.
	coord := cfg.Executor.NewGroup(jobCtx, exec.Options{})
	coord.GoService("mr: job coordinator", func(tctx context.Context) error {
		defer close(p.coordDone)
		defer cancelJob()
		p.stats, p.err = runJob(tctx, job, cfg, splits, morselItems, morselOwners, tr, cancelJob, p)
		close(p.out)
		return nil
	})
	return p, nil
}

// runJob executes the job's stages under the coordinator. It returns
// whatever stats were gathered even on failure (callers discard them as
// needed).
func runJob(jobCtx context.Context, job Job, cfg Config, splits []Split, morselItems []Split, morselOwners []int, tr transport.Transport, cancelJob context.CancelFunc, p *Pipe) (JobStats, error) {
	start := time.Now()
	ex := cfg.Executor
	defer tr.Close()

	// Reducer collectors: drain the shuffle into per-reducer hash
	// collectors concurrently with the map phase. They are service tasks —
	// dedicated goroutines outside the executor's worker budget — because
	// a collector parked in the queue behind map tasks would deadlock the
	// pool on transport backpressure.
	reduceStats := make([]ReduceTaskStats, cfg.NumReducers)
	collectors := make([]groupx.Collector, cfg.NumReducers)
	defer func() {
		// Teardown runs on every exit path: release collector resources
		// (buffered pairs and the spill-run descriptor — the file is
		// unlinked at creation, so closing the descriptor reclaims the disk
		// space). Close is idempotent, so the success path, where the
		// reduce tasks already drained the collectors, is a no-op.
		for _, c := range collectors {
			c.Close()
		}
	}()
	// reduceGroup exists before the collectors because they schedule onto
	// it: the collect service task for reducer r submits reduce task r the
	// moment its drain completes (per-reducer readiness — the pipelined
	// reduce), so a reducer never waits behind other reducers' shuffle
	// streams.
	reduceGroup := ex.NewGroup(jobCtx, exec.Options{Limit: runtime.GOMAXPROCS(0), OnError: cancelJob})
	collectGroup := ex.NewGroup(jobCtx, exec.Options{OnError: cancelJob})
	for r := 0; r < cfg.NumReducers; r++ {
		r := r
		reduceStats[r].Task = fmt.Sprintf("reduce-%d", r)
		collectors[r] = groupx.NewHashContext(jobCtx, cfg.TempDir, cfg.SortMemoryItems)
		collectGroup.GoService(fmt.Sprintf("mr: collect reduce-%d", r), func(tctx context.Context) error {
			if err := drainShuffle(tctx, tr, r, collectors[r], &reduceStats[r], cancelJob); err != nil {
				return err
			}
			reduceStats[r].CollectDone = time.Since(start)
			// This reducer's stream is complete: hand its collector to a
			// reduce task now, without waiting for sibling drains.
			reduceGroup.Go(fmt.Sprintf("mr: reduce task %d", r), &reduceStats[r].Timing, func(tctx context.Context) error {
				w := &outputWriter{ctx: tctx, ch: p.out, r: r, start: start, first: &p.firstOut}
				return runReduceTask(tctx, job, collectors[r], &reduceStats[r], cfg, w)
			})
			return nil
		})
	}

	// Map phase: pooled tasks, bounded per job by mapParallelism. In
	// fixed-split mode each split is one task; in morsel mode the tasks
	// are long-lived workers self-scheduling over the carved morsels via
	// work-stealing deques (see morsel.go), so a map "task" in the stats
	// is then one worker's whole tour of the input. Either way a task is
	// one mapPipeline fed by a different scan.
	var mapStats []MapTaskStats
	mapGroup := ex.NewGroup(jobCtx, exec.Options{Limit: cfg.mapParallelism, OnError: cancelJob})
	if cfg.MorselBytes > 0 {
		workers := cfg.mapParallelism
		if workers > len(morselItems) {
			workers = len(morselItems)
		}
		if workers < 1 {
			workers = 1
		}
		d := newMorselDispatcher(workers, morselItems, morselOwners)
		mapStats = make([]MapTaskStats, workers)
		for w := 0; w < workers; w++ {
			w := w
			mapStats[w].Task = fmt.Sprintf("map-worker-%d", w)
			mapGroup.Go(fmt.Sprintf("mr: map worker %d", w), &mapStats[w].Timing, func(tctx context.Context) error {
				return runMapTask(tctx, job, &mapStats[w], cfg, tr, func(p *mapPipeline) error {
					return p.scanMorsels(tctx, w, d)
				})
			})
		}
	} else {
		mapStats = make([]MapTaskStats, len(splits))
		for i, sp := range splits {
			i, sp := i, sp
			mapStats[i].Task = sp.Label()
			mapGroup.Go("mr: map task "+sp.Label(), &mapStats[i].Timing, func(tctx context.Context) error {
				return runMapTask(tctx, job, &mapStats[i], cfg, tr, func(p *mapPipeline) error {
					return p.scan(tctx, sp)
				})
			})
		}
	}

	var jobErrs exec.ErrorCollector
	jobErrs.Add("", mapGroup.Wait())
	mapDone := time.Since(start)
	// CloseSend must run even when the job is cancelled or the map phase
	// failed: it closes the receive side, which is what lets the
	// collectors' drain loops terminate.
	jobErrs.Add("mr: close shuffle", tr.CloseSend(jobCtx))
	jobErrs.Add("", collectGroup.Wait())
	// Reduce tasks were scheduled per reducer as drains completed; wait for
	// them unconditionally (on failure they abort against the cancelled
	// context) so no task outlives the job.
	jobErrs.Add("", reduceGroup.Wait())

	stats := JobStats{MapDone: mapDone, MapTasks: mapStats, ReduceTasks: reduceStats, Shuffled: tr.BytesSent()}
	if ns := p.firstOut.Load(); ns > 0 {
		stats.FirstOutput = time.Duration(ns - 1)
	}
	stats.Wall = time.Since(start)
	return stats, jobErrs.Err()
}

// outputWriter buffers one reduce task's emitted pairs and flushes them
// to the job's output stream in outputBatchPairs-sized batches. The send
// selects against the job context so an emitting reduce task unblocks
// when the job is cancelled (including by Pipe.Close). Errors latch: the
// first failed flush stops the writer and is returned by the reduce
// task.
type outputWriter struct {
	ctx   context.Context
	ch    chan<- outBatch
	r     int
	start time.Time
	first *atomic.Int64
	buf   []transport.Pair
	err   error
}

func (w *outputWriter) emit(key, value []byte) {
	if w.err != nil {
		return
	}
	if w.buf == nil {
		w.buf = transport.GetBatch(outputBatchPairs)
	}
	w.buf = append(w.buf, transport.Pair{Key: key, Value: value})
	if len(w.buf) >= outputBatchPairs {
		w.flush()
	}
}

func (w *outputWriter) flush() {
	if w.err != nil || len(w.buf) == 0 {
		return
	}
	b := outBatch{r: w.r, pairs: w.buf}
	w.buf = nil
	select {
	case w.ch <- b:
		if w.first.Load() == 0 {
			w.first.CompareAndSwap(0, int64(time.Since(w.start))+1)
		}
	case <-w.ctx.Done():
		w.err = w.ctx.Err()
	}
}

// drainShuffle moves one reducer's shuffle stream into its collector. It
// always drains the stream to exhaustion — stopping early would park
// senders on a full transport forever — but stops *collecting* at the
// first Add error or once the job is cancelled, and cancels the job on an
// Add failure so map tasks stop producing into a doomed shuffle.
// Consumed batch slices are recycled into the transport batch pool (the
// pairs' key/value bytes live on; the slice itself is dead once its
// pairs are in the collector).
func drainShuffle(ctx context.Context, tr transport.Transport, r int, coll groupx.Collector, st *ReduceTaskStats, cancelJob context.CancelFunc) error {
	done := ctx.Done()
	var addErr error
	for batch := range tr.Receive(r) {
		for _, p := range batch {
			st.PairsIn++
			st.BytesIn += p.Size()
			st.ValueBytesIn += int64(len(p.Value))
			if addErr != nil {
				continue
			}
			if st.PairsIn&(cancelCheckStride-1) == 0 {
				select {
				case <-done:
					addErr = ctx.Err()
					continue
				default:
				}
			}
			if err := coll.Add(p); err != nil {
				addErr = err
				cancelJob()
			}
		}
		transport.RecycleBatch(batch)
	}
	return addErr
}

// runMapTask executes one map task — one split in fixed-split mode, one
// morsel worker's whole tour in morsel mode (scan says which). Its error,
// from the split's Open, a record's decode, the map function or the
// shuffle, fails the job; nothing is retried.
func runMapTask(ctx context.Context, job Job, st *MapTaskStats, cfg Config, tr transport.Transport, scan func(*mapPipeline) error) error {
	if err := ctx.Err(); err != nil { // dispatched after the job died: open nothing
		return err
	}
	st.Attempts = 1
	p := newMapPipeline(ctx, job, st, cfg, tr)
	if err := scan(p); err != nil {
		return err
	}
	return p.flush()
}

// mapPipeline is one map task's data path, built once per task and
// flushed once: map function → optional combiner table → per-reducer
// batch writer → shuffle. It outlives any single record iterator, so the
// same value serves a fixed-split task (one scan) and a morsel worker
// (one scan per morsel pulled).
type mapPipeline struct {
	mapFn MapFunc
	st    *MapTaskStats
	cfg   Config
	// bw accumulates pairs per reducer and ships them as framed batches,
	// so channel operations and frame round-trips drop by the batch
	// factor.
	bw   *transport.BatchWriter
	comb Combiner
	mctx MapCtx
}

func newMapPipeline(ctx context.Context, job Job, st *MapTaskStats, cfg Config, tr transport.Transport) *mapPipeline {
	p := &mapPipeline{mapFn: job.Map, st: st, cfg: cfg, bw: transport.NewBatchWriter(ctx, tr, cfg.NumReducers, cfg.shuffleBatchPairs)}
	p.mctx = MapCtx{Stats: st, p: p}
	if cfg.NewCombiner != nil {
		p.comb = cfg.NewCombiner(st)
	}
	if cfg.NewMapLocal != nil {
		p.mctx.Local = cfg.NewMapLocal(st)
	}
	return p
}

// send ships one pair toward its reducer.
func (p *mapPipeline) send(key, value []byte) error {
	p.st.PairsOut++
	p.st.BytesOut += int64(len(key) + len(value))
	p.st.ValueBytesOut += int64(len(value))
	return p.bw.Send(HashPartition(key, p.cfg.NumReducers), transport.Pair{Key: key, Value: value})
}

// fold folds (key, record) pairs into the task's combiner table (phase 1
// of the two-phase aggregation) and, whenever a pair brings the table to
// LocalAggBudget distinct states, spills it — in Flush's sorted-key order
// — into the shuffle toward the reducers' global grouping collectors
// (phase 2), then goes on with the next pair.
func (p *mapPipeline) fold(b Batch, blocks []uint64, rows []int32) error {
	if p.comb == nil {
		return fmt.Errorf("mr: Fold needs a combiner")
	}
	for len(blocks) > 0 {
		n, hits, err := p.comb.Fold(b, blocks, rows, p.cfg.LocalAggBudget)
		p.st.CombineInputs += int64(n)
		p.st.LocalAggHits += int64(hits)
		if err != nil {
			return err
		}
		blocks, rows = blocks[n:], rows[n:]
		if p.comb.Len() >= p.cfg.LocalAggBudget {
			p.st.LocalAggSpills++
			if err := p.comb.Flush(p.send); err != nil {
				return err
			}
		}
	}
	return nil
}

// scan pulls one split's batches through the map function, closing the
// iterator on every path (record iterators are single-use and may hold
// resources — a store split's block buffers, for instance). Cancellation
// is polled once per batch.
func (p *mapPipeline) scan(ctx context.Context, sp Split) error {
	it, err := sp.Open()
	if err != nil {
		return err
	}
	defer it.Close()
	st := p.st
	st.BytesRead += sp.SizeBytes()
	done := ctx.Done()
	for {
		b, ok, err := it.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		select {
		case <-done:
			return ctx.Err()
		default:
		}
		st.Records += int64(b.N)
		if err := p.mapFn(&p.mctx, b); err != nil {
			return err
		}
	}
	return it.Close()
}

// flush drains the combiner table and the batch writer at task end.
func (p *mapPipeline) flush() error {
	if p.comb != nil {
		if err := p.comb.Flush(p.send); err != nil {
			return err
		}
	}
	if err := p.bw.Flush(); err != nil {
		return err
	}
	p.st.BatchesSent += p.bw.Batches()
	return nil
}

func runReduceTask(ctx context.Context, job Job, coll groupx.Collector, st *ReduceTaskStats, cfg Config, w *outputWriter) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	st.Attempts = 1
	it, err := coll.Iterate()
	if err != nil {
		return err
	}
	defer it.Close()
	gs := coll.Stats()
	fillGroupStats(st, gs)

	rctx := &ReduceCtx{
		Stats:         st,
		TempDir:       cfg.TempDir,
		MaxGroupPairs: int(gs.MaxGroup),
		// ReduceCtx.Emit already copied the key and hands off ownership
		// of the value; the writer batches pairs onto the output stream.
		emit: w.emit,
	}
	if cfg.NewReduceLocal != nil {
		rctx.Local = cfg.NewReduceLocal(st)
	}
	// groupBuf holds the current group's identity, copied out of the
	// first pair's key. The copy is mandatory: a spilled pair's key
	// aliases its run cursor's key buffer, which the iterator overwrites
	// with the next frame's key as it moves past the group's last pair —
	// an aliasing group slice would hold the next group's key when the
	// boundary comparison reads it.
	//
	// Per-pair cancellation rides on it.Next (the collector polls the
	// same context in its merge loop); the per-group poll here covers the
	// in-memory iteration, which does not poll.
	done := ctx.Done()
	var groupBuf []byte
	cur, ok, err := it.Next()
	if err != nil {
		return err
	}
	gi := new(GroupIter) // one per task, reset for each group
	for ok {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
		groupBuf = append(groupBuf[:0], cur.Key...)
		*gi = GroupIter{it: it, group: groupBuf, cur: cur, curValid: true}
		if err := job.Reduce(rctx, groupBuf, gi); err != nil {
			return err
		}
		if err := gi.Drain(); err != nil {
			return err
		}
		cur, ok = gi.cur, gi.curValid
	}
	// Merge-path buffer reuses accumulate while iterating; refresh the
	// counters now that the stream is drained.
	fillGroupStats(st, coll.Stats())
	w.flush()
	return w.err
}

// fillGroupStats maps a collector's counters onto the task's. Grouped
// items land in SortItems — the cost model prices reducer grouping as
// the sort the paper's Hadoop always does; HashGroups and SpillRuns
// record what the hash collector actually did.
func fillGroupStats(st *ReduceTaskStats, gs groupx.Stats) {
	st.SortItems = gs.Items
	st.SpillBytes = gs.SpilledBytes
	st.SpillRuns = int64(gs.Runs)
	st.HashGroups = gs.Groups
}

// GroupIter yields the pairs of one group in arrival order.
type GroupIter struct {
	it    groupx.Iterator
	group []byte
	// cur, while curValid, is the group's first pair before the group is
	// read, and the next group's first after it ends. Only those two are
	// stored: the pairs between pass straight through Next, which keeps
	// pointer writes (and GC write barriers) off the per-pair path.
	cur      transport.Pair
	curValid bool
	done     bool
}

// Next returns the next pair of the group; ok=false at the group's end.
//
// Ownership: the pair's Key and Value are only guaranteed valid until
// the following Next call (spilled pairs alias the collector's reused read
// buffers). Reduce functions that retain either across Next must copy
// it.
func (g *GroupIter) Next() (transport.Pair, bool, error) {
	if g.done {
		return transport.Pair{}, false, nil
	}
	if g.curValid {
		g.curValid = false
		return g.cur, true, nil
	}
	p, ok, err := g.it.Next()
	if err != nil {
		return transport.Pair{}, false, err
	}
	if !ok {
		g.done = true
		return transport.Pair{}, false, nil
	}
	if !bytes.Equal(p.Key, g.group) {
		g.cur, g.curValid, g.done = p, true, true // the next group's first pair; keep it
		return transport.Pair{}, false, nil
	}
	return p, true, nil
}

// Drain consumes any unread remainder of the group; reduce functions that
// only need the group key (e.g. a result-cache hit) call it
// explicitly, and the framework calls it after every reduce invocation.
func (g *GroupIter) Drain() error {
	for {
		_, ok, err := g.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}
