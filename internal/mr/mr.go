// Package mr is a from-scratch MapReduce-style execution framework, the
// substrate the paper runs on (it used Hadoop; "the algorithm can be
// implemented in any OLAP system which supports scatter-and-gather
// evaluation paradigm"). It provides:
//
//   - input splits (block-store blocks or in-memory row slabs), each
//     handing its records out as batches of decoded columns, fanned out
//     to a pool of concurrent map tasks;
//   - optional map-side combining (the paper's early aggregation);
//   - a hash-partitioned, batch-framed shuffle over in-memory channels;
//   - reducer-side grouping by the full shuffle key in a hash table that
//     spills to sorted runs past its budget;
//   - per-task counters that feed the cost model.
//
// A task's error fails the job, labelled with the task; no task is
// re-executed.
//
// The record data plane is byte-keyed end to end: keys travel as []byte
// from MapCtx.Emit through the shuffle, the reducer's grouping collector,
// and GroupIter without ever materializing a Go string, so the hot path
// allocates nothing per pair. The string-keyed compatibility shims that
// eased the migration (EmitString and friends) are gone.
//
// A job's output is its own item type O (Job[O]): the engine's job emits
// chunks of integer result rows, byte-level jobs transport.Pair.
//
// Execution is streaming: RunPipe starts the job and returns a Pipe —
// a single-use iterator over the output items that yields each reduce
// task's items as it emits them, concurrently with the rest of the
// reduce phase (per-reducer readiness replaces the global
// collect→reduce barrier). RunContext is the materializing wrapper
// (drain the Pipe into one Result slice); Run the context.Background()
// wrapper on top of that. The goroutines doing the work come from a
// shared exec.Executor (Config.Executor), so any number of concurrent
// jobs multiplex over one bounded pool. The context cancels the whole
// pipeline: senders unblock, collectors drain and close, spill runs are
// reclaimed, and the job's error satisfies errors.Is(err,
// context.Canceled).
package mr

import (
	"fmt"
	"runtime"
	"time"

	"github.com/casm-project/casm/internal/blockstore"
	"github.com/casm-project/casm/internal/costmodel"
	"github.com/casm-project/casm/internal/exec"
	"github.com/casm-project/casm/internal/transport"
)

// MapTaskStats is one map task's record: identity, scheduler timing, the
// priced counters (costmodel.MapWork, the cost model's sole input from the
// map side) and the unpriced observations. Counter names are promoted, so
// callers read and bump t.Records or t.BatchesSent without caring which
// group a counter is in. A record carries only its own side's counters: a
// job's records are kept with its JobStats for as long as any caller holds
// them, so every field here is paid once per task of every retained job.
type MapTaskStats struct {
	Task string
	// Attempts is 1: a failed task fails its job, never re-runs.
	Attempts int

	// Timing is the scheduler-stamped task lifecycle: Start is when the
	// executor dispatched the task (so Start minus the job's start is
	// the queueing delay the shared pool imposed) and Wall how long it
	// ran. Never priced, never serialized by the figures pipeline.
	exec.Timing

	costmodel.MapWork
	MapObserved
}

// ReduceTaskStats is one reduce task's record: MapTaskStats' shape over
// costmodel.ReduceWork, plus when the task became runnable.
type ReduceTaskStats struct {
	Task string
	// Attempts is 1: a failed task fails its job, never re-runs.
	Attempts int
	exec.Timing

	costmodel.ReduceWork
	ReduceObserved

	// CollectDone is when this reducer's shuffle drain completed,
	// relative to the job's start — the moment its reduce task became
	// runnable under per-reducer readiness. Never priced either.
	CollectDone time.Duration
}

// MapObserved and ReduceObserved hold every per-task counter the cost
// model cannot see: simulated seconds are a function of the embedded
// costmodel structs alone, so a new counter is one line here and nothing
// else.
type MapObserved struct {
	BatchesSent   int64 // shuffle batches shipped (≤ PairsOut; = PairsOut unbatched)
	ValueBytesOut int64 // of BytesOut, the pairs' values
	CombineMerges int64 // pairs merged in place into an existing partial state
	LocalAggHits  int64 // emitted pairs fully absorbed by an existing partial state of the task's combiner table
	// LocalAggSpills counts combiner-table overflows flushed into the
	// shuffle before the task's input was exhausted (Config.LocalAggBudget).
	LocalAggSpills int64

	// Morsel-mode counters (zero in fixed-split mode). A map "task" is
	// then one morsel worker, not one split; see Config.MorselBytes.
	MorselsDispatched int64 // morsels this worker pulled and processed
	MorselSteals      int64 // of those, morsels stolen from another worker's deque

	// Cross-query sharing counters (zero outside batched/cached runs).
	PlanCacheHits     int64 // plans this job reused from the keyed decision cache instead of re-planning
	SharedScanQueries int64 // queries served by this task's single input scan (1 for an unshared job)
}

// SharedScanBytesSaved is the input bytes the task did NOT re-read thanks
// to sharing its scan: (SharedScanQueries-1) * BytesRead.
func (t *MapTaskStats) SharedScanBytesSaved() int64 {
	return max(t.SharedScanQueries-1, 0) * t.BytesRead
}

// ReduceObserved is MapObserved for a reduce task.
type ReduceObserved struct {
	SpillRuns      int64 // sorted runs the grouping collector spilled, one per hash-table flush
	ValueBytesIn   int64 // of BytesIn, the pairs' values
	HashGroups     int64 // distinct groups resident in the hash collector
	EvalArenaBytes int64 // high-water footprint of the evaluator session's arenas
	WindowLookups  int64 // sibling-window probes during sliding-measure evaluation

	// Materialized result-cache counters (zero without a result cache).
	ResultCacheHits   int64 // groups whose output was served from the cache instead of evaluated
	ResultCacheMisses int64 // groups evaluated and then materialized into the cache
	ResultCacheBytes  int64 // cached result bytes served in place of evaluation
}

// JobStats aggregates a run's counters.
type JobStats struct {
	MapTasks    []MapTaskStats
	ReduceTasks []ReduceTaskStats
	Shuffled    int64
	Wall        time.Duration

	// Stage timestamps, relative to the job's start. Observability for
	// the pipelined data plane — the cost model prices neither, and the
	// figures pipeline never serializes them (simulated seconds stay a
	// pure function of the priced counters).
	//
	// MapDone is when the last map task finished; FirstOutput when the
	// first output batch reached the job's result stream (zero if the job
	// produced no output). FirstOutput < MapDone demonstrates pipelining:
	// output flowed while map tasks were still running.
	MapDone     time.Duration
	FirstOutput time.Duration
}

// TotalOutputRecords sums the reducers' emitted records.
func (s JobStats) TotalOutputRecords() int64 {
	var n int64
	for _, t := range s.ReduceTasks {
		n += t.OutputRecords
	}
	return n
}

// Iter is the streaming data plane's iterator: a pull-based, SINGLE-USE,
// explicitly closed stream of values. Record sources, the job's output
// Pipe and the engine's result stream all have this shape, so stages
// compose without materializing between them and peak memory is bounded
// by what is in flight, not by the dataset. Obtain it, consume it with
// Next until ok=false (or an error), Close it, and never touch it again:
//
//   - After Next has returned ok=false or a non-nil error the stream is
//     exhausted: every subsequent Next must keep returning ok=false (it
//     must not panic, restart, or invent values).
//   - Close releases the stream's resources (descriptors, buffers,
//     goroutine-backed stages) and is IDEMPOTENT — calling it again is a
//     no-op returning the first call's error. Close may be called before
//     exhaustion; the stream then tears down early and every later Next
//     returns ok=false. Every Iter must be Closed, including on error
//     paths — defer it.Close() at acquisition.
//   - Ownership: unless an implementation documents otherwise, the value
//     returned by Next is only guaranteed valid until the following Next
//     or Close call (sources that decode into reused buffers hand out
//     aliases). Callers that retain a value must copy what it references.
//   - Iterators are single-goroutine; wrap externally to share.
//
// A repo lint (internal/lint) enforces the single-use discipline at the
// call sites the compiler cannot: no internal caller re-uses an iterator
// after consuming or closing it.
type Iter[T any] interface {
	Next() (v T, ok bool, err error)
	Close() error
}

// Batch is a run of a split's records, column-major: Cols[c][i] is
// record i's value of attribute c, and every column holds N values. A
// split hands out at most a block decoder's batch (1 024 records) at a
// time.
type Batch = blockstore.Batch

// Split is one independently processable chunk of input. SizeBytes is
// what the split's records occupy as recio records (a uvarint per
// attribute), plus each record's uvarint frame length for a store block:
// the bytes a map task is charged for reading. Open yields the split's
// records in order, a Batch per Next; a batch's columns are only valid
// until the following Next (or Close), and the map function must not
// modify them. The framework closes every iterator it opens, including on
// error paths, so sources may tie resources (block buffers) to the
// iterator's lifetime.
type Split interface {
	Label() string
	SizeBytes() int64
	Open() (Iter[Batch], error)
}

// Input enumerates a job's splits.
type Input interface {
	Splits() ([]Split, error)
}

// MorselSplit is implemented by splits that can be carved into small
// independently openable sub-ranges ("morsels") for morsel-driven map
// execution (Config.MorselBytes). Morsels partition the split's records:
// concatenating the morsels' record streams in order yields exactly the
// split's stream. Each morsel is itself a Split (its SizeBytes feeds
// work-stealing accounting, its Label debugging); morsels may alias the
// parent split's storage, which must stay valid while any morsel is in
// use. Splits that do not implement the interface run as one indivisible
// morsel — morsel mode degrades to fixed-split granularity for them
// instead of failing.
type MorselSplit interface {
	Split
	// Morsels carves the split into runs of whole records, each targeting
	// targetBytes of record data (the tail may be smaller; one oversized
	// record still forms a morsel).
	Morsels(targetBytes int) ([]Split, error)
}

// MapCtx is passed to the map function.
type MapCtx struct {
	// Stats are the task's counters; map functions may bump EvalRecords
	// etc. for engine-specific accounting.
	Stats *MapTaskStats
	// Local is per-task user state created by Config.NewMapLocal (nil
	// otherwise): scratch buffers, key arenas — anything a map function
	// needs to carry across records without sharing it between
	// concurrently running tasks.
	Local any
	p     *mapPipeline
}

// Fold folds records of b into the job's combiner (Config.NewCombiner):
// record rows[k] under key blocks[k], an integer the combiner turns into
// bytes only when it flushes, pair by pair in slice order (a record
// appears once per key it goes to). The slices and b only need to stay
// valid for the call: the combiner folds each pair into its partial state
// immediately.
func (c *MapCtx) Fold(b Batch, blocks []uint64, rows []int32) error {
	return c.p.fold(b, blocks, rows)
}

// Emit sends one key/value pair into the shuffle, past any combiner.
//
// Ownership: the framework does NOT copy key or value — they are buffered
// in shuffle batches and retained until the job completes, so both must
// reference memory that stays valid and unmodified for the job's duration
// (interned or arena-backed keys and freshly allocated slices qualify; a
// scratch buffer the mapper rewrites does not).
func (c *MapCtx) Emit(key, value []byte) error { return c.p.send(key, value) }

// MapFunc processes one batch of input records.
type MapFunc func(ctx *MapCtx, b Batch) error

// Combiner is the streaming form of map-side early aggregation
// (morsel-style thread-local pre-aggregation): one instance serves one
// map task, absorbing the (key, record) pairs MapCtx.Fold hands it into
// per-key partial states and emitting them on flush. Implementations are
// single-goroutine.
type Combiner interface {
	// Fold folds the pairs (blocks[k], record rows[k] of b) into their
	// keys' partial states, in order, and stops right after the pair that
	// brings Len to budget. It returns how many pairs it folded and how
	// many of those added no partial state. Its arguments are only valid
	// during the call.
	Fold(b Batch, blocks []uint64, rows []int32, budget int) (folded, hits int, err error)
	// Flush emits every buffered partial state, each under its key's
	// bytes, in ascending byte order of those keys (keeping shuffle send
	// order deterministic), and resets the combiner.
	// Emitted keys and values are handed off to the framework (see
	// MapCtx.Emit's ownership rule: they must stay valid for the job's
	// duration).
	Flush(emit func(key, value []byte) error) error
	// Len reports the number of buffered partial states, the framework's
	// flush trigger.
	Len() int
}

// CombinerFactory creates one Combiner per map task. The factory may bump
// the task's CombineMerges counter from inside the combiner.
type CombinerFactory func(st *MapTaskStats) Combiner

// ReduceCtx is passed to the reduce function of a job whose output
// items are of type O.
type ReduceCtx[O any] struct {
	Stats *ReduceTaskStats
	// Local is per-task user state created by Config.NewReduceLocal (nil
	// otherwise); see MapCtx.Local.
	Local any
	// MaxGroupPairs is the pair count of the largest group this task will
	// reduce: what a reducer that buffers a group sizes its buffer by.
	MaxGroupPairs int
	emit          func(v O, records int)
}

// Emit hands one output item, carrying records output records, to the
// job's output: OutputRecords counts the records, not the items, and the
// framework batches items by the records they carry. The item is handed
// off uncopied, along with everything it references: the reducer must
// not reuse or mutate any of it afterwards.
func (c *ReduceCtx[O]) Emit(v O, records int) {
	c.Stats.OutputRecords += int64(records)
	c.emit(v, records)
}

// ReduceFunc processes one group: the pairs of one shuffle key, groups in
// ascending key order and values in arrival order. groupKey is only valid
// for the duration of the call — retain a copy if needed.
type ReduceFunc[O any] func(ctx *ReduceCtx[O], groupKey []byte, values *GroupIter) error

// Config tunes a job run.
type Config struct {
	// NumReducers is the number of reduce tasks (required, ≥ 1).
	NumReducers int
	// Executor is the shared task-scheduler pool the job's map and
	// reduce tasks run on (default: the process-wide exec.Default()).
	// Concurrent jobs configured with the same executor multiplex over
	// its bounded workers with FIFO-fair admission instead of each
	// spawning their own goroutines.
	Executor *exec.Executor
	// NewCombiner enables map-side early aggregation with a streaming
	// combiner when non-nil.
	NewCombiner CombinerFactory
	// MorselBytes, when > 0, switches the map phase from one task per
	// split to morsel-driven execution: every split that supports it (see
	// MorselSplit) is carved into contiguous ~MorselBytes runs of records,
	// dealt round-robin onto per-worker deques, and processed by
	// min(GOMAXPROCS, Executor.Workers()) workers that steal from each
	// other's deques once their own drain — so a hot split is finished by
	// many workers instead of riding out one straggler. Each worker owns
	// one map pipeline (combiner table, Local state, batch writer) for its
	// whole tour, and map-task counters are per worker rather than per
	// split. 0 keeps the fixed-split map phase.
	MorselBytes int
	// LocalAggBudget caps the distinct partial states a map task's
	// combiner table holds before it is spilled — flushed, in
	// deterministic sorted-key order, into the shuffle toward the global
	// grouping collectors (the Leis et al. two-phase shape: local hash
	// table, overflow to global partitions). Default 65536.
	LocalAggBudget int
	// SortMemoryItems bounds the pairs the reducer's hash collector
	// buffers before spilling them as a sorted run (default 1<<20; set
	// small to force spills).
	SortMemoryItems int
	// TempDir hosts spill files (default OS temp).
	TempDir string
	// NewMapLocal, when non-nil, is called once per map task and its
	// result exposed as MapCtx.Local. A Local with a Release method has it
	// called when the task ends, on every path.
	NewMapLocal func(st *MapTaskStats) any
	// NewReduceLocal, when non-nil, is called once per reduce task and
	// its result exposed as ReduceCtx.Local, released as NewMapLocal's is.
	NewReduceLocal func(st *ReduceTaskStats) any

	// Test seams, left zero by the engine. mapParallelism bounds the
	// job's concurrent map tasks, and so its morsel workers (default
	// GOMAXPROCS, or the executor's workers if fewer). newTransport builds
	// the shuffle (default the channel transport); pipe_test.go fakes one
	// whose per-reducer streams end early. shuffleBatchPairs is how many
	// pairs a map task buffers per reducer before shipping them as one
	// batch (default transport.DefaultBatchPairs).
	mapParallelism    int
	newTransport      func(numReducers int) (transport.Transport, error)
	shuffleBatchPairs int
}

func (c Config) withDefaults() (Config, error) {
	if c.NumReducers < 1 {
		return c, fmt.Errorf("mr: NumReducers %d < 1", c.NumReducers)
	}
	if c.Executor == nil {
		c.Executor = exec.Default()
	}
	if c.mapParallelism < 1 {
		// Map tasks beyond the pool's workers could only queue.
		c.mapParallelism = min(runtime.GOMAXPROCS(0), c.Executor.Workers())
	}
	if c.newTransport == nil {
		c.newTransport = func(n int) (transport.Transport, error) { return transport.NewChannel(n, 0) }
	}
	if c.shuffleBatchPairs < 1 {
		c.shuffleBatchPairs = transport.DefaultBatchPairs
	}
	if c.LocalAggBudget < 1 {
		c.LocalAggBudget = 1 << 16
	}
	if c.SortMemoryItems < 1 {
		c.SortMemoryItems = 1 << 20
	}
	return c, nil
}

// HashPartition is the shuffle's FNV-1a partitioner. The hash loop is
// inlined (rather than hash/fnv) so partitioning a key allocates nothing;
// the constants are FNV-1a's 32-bit offset basis and prime, producing
// assignments identical to fnv.New32a over the same bytes.
func HashPartition(key []byte, n int) int {
	h := uint32(2166136261)
	for _, c := range key {
		h ^= uint32(c)
		h *= 16777619
	}
	return int(h % uint32(n))
}

// Job couples input, user functions, and configuration. O is the type
// of the job's output items.
type Job[O any] struct {
	Name   string
	Input  Input
	Map    MapFunc
	Reduce ReduceFunc[O]
	// Finish, when non-nil, runs once at the end of each reduce task,
	// after its last group: a reducer that fills output items across
	// groups emits what it still holds.
	Finish func(ctx *ReduceCtx[O]) error
	Config Config
}

// Result is a completed job's output.
type Result[O any] struct {
	Output []O
	Stats  JobStats
}
