// Package mr is a from-scratch MapReduce-style execution framework, the
// substrate the paper runs on (it used Hadoop; "the algorithm can be
// implemented in any OLAP system which supports scatter-and-gather
// evaluation paradigm"). It provides:
//
//   - input splits (DFS blocks or in-memory slices) fanned out to a pool
//     of concurrent map tasks;
//   - optional map-side combining (the paper's early aggregation);
//   - a hash-partitioned, batch-framed shuffle over in-memory channels;
//   - reducer-side grouping — a hash table for plain keys, the external
//     sorter when a configured group identity (Config.GroupBy) lets a
//     composite sort key carry a secondary order (the Section III-D
//     combined-key optimization);
//   - per-task counters that feed the cost model, and fault injection
//     with bounded task retry.
//
// The record data plane is byte-keyed end to end: keys travel as []byte
// from MapCtx.Emit through the shuffle, the reducer's grouping collector,
// and GroupIter without ever materializing a Go string, so the hot path
// allocates nothing per pair. The string-keyed compatibility shims that
// eased the migration (EmitString and friends) are gone.
//
// Execution is streaming: RunPipe starts the job and returns a Pipe —
// a single-use iterator over the output pairs that yields each reduce
// task's records as it emits them, concurrently with the rest of the
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
	Task     string
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
	Task     string
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
	PlanCacheHits        int64 // plans this job reused from the keyed decision cache instead of re-planning
	SharedScanQueries    int64 // queries served by this task's single input scan (1 for an unshared job)
	SharedScanBytesSaved int64 // input bytes NOT re-read thanks to sharing: (SharedScanQueries-1) * BytesRead
}

// ReduceObserved is MapObserved for a reduce task.
type ReduceObserved struct {
	SpillRuns      int64 // sorted runs the grouping collector spilled
	HashGroups     int64 // distinct groups resident in the hash collector (0 on the sorted path)
	GroupSpills    int64 // hash-table flushes into the sorted-run fallback
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

// RecordIter yields the raw records of one split: a single-use stream of
// record byte-slices, each only valid until the following Next (or
// Close). The framework closes every iterator it opens, including on
// error paths, so sources may tie resources (block buffers, descriptors)
// to the iterator's lifetime.
type RecordIter = Iter[[]byte]

// Split is one independently processable chunk of input.
type Split interface {
	Label() string
	SizeBytes() int64
	Open() (RecordIter, error)
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

// RowIter yields one split's records already decoded, one fixed-arity
// row per Next; a row is only valid until the following Next (or Close).
type RowIter = Iter[[]int64]

// RowSplit is implemented by splits whose storage decodes to rows more
// cheaply than to record bytes (a columnar store block). It is a
// capability, not a mode: a job that supplies Job.MapRows over an input
// whose every split has it is scanned through OpenRows — the same records
// in the same order as Open, counted the same — and every other pairing
// of job and input uses Open.
type RowSplit interface {
	Split
	OpenRows() (RowIter, error)
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
	Local   any
	emit    func(key, value []byte) error
	emitRow func(key []byte, row []int64) error
}

// EmitRow folds one decoded record into the job's combiner under key,
// where Emit would hand the combiner the record's bytes to decode again;
// it is counted like an Emit of that record. key and row only need to
// stay valid for the call. The job's combiner must be a RowCombiner.
func (c *MapCtx) EmitRow(key []byte, row []int64) error { return c.emitRow(key, row) }

// Emit sends one key/value pair into the shuffle.
//
// Ownership: without a combiner the framework does NOT copy key or value
// — they are buffered in shuffle batches and retained until the job
// completes, so both must reference memory that stays valid and
// unmodified for the job's duration (input-split block bytes, interned
// or arena-backed keys, and freshly allocated slices all qualify; a
// scratch buffer the mapper rewrites does not). With a combiner, key and
// value only need to stay valid for the duration of the Emit call — the
// combiner copies the key on first sight and folds the value into its
// partial state immediately.
func (c *MapCtx) Emit(key, value []byte) error { return c.emit(key, value) }

// MapFunc processes one input record.
type MapFunc func(ctx *MapCtx, record []byte) error

// RowMapFunc is MapFunc over a decoded record (see RowSplit).
type RowMapFunc func(ctx *MapCtx, row []int64) error

// Combiner is the streaming form of map-side early aggregation
// (morsel-style thread-local pre-aggregation): one instance serves one
// map task, absorbing emitted pairs into per-key partial states and
// emitting them on flush. Implementations are single-goroutine.
type Combiner interface {
	// Add folds one emitted pair into the key's partial state. key and
	// value are only valid during the call; the combiner must copy (or
	// intern) whatever it retains.
	Add(key, value []byte) error
	// Flush emits every buffered partial state in ascending key order
	// (keeping shuffle send order deterministic) and resets the combiner.
	// Emitted keys and values are handed off to the framework (see
	// MapCtx.Emit's no-combiner ownership rule: they must stay valid for
	// the job's duration).
	Flush(emit func(key, value []byte) error) error
	// Len reports the number of buffered partial states, the framework's
	// flush trigger.
	Len() int
}

// RowCombiner is a Combiner that also folds decoded records, the
// receiving end of MapCtx.EmitRow: AddRow(key, row) must leave the
// combiner in the state Add(key, the record's bytes) would.
type RowCombiner interface {
	Combiner
	AddRow(key []byte, row []int64) error
}

// CombinerFactory creates one Combiner per map task. The factory may bump
// the task's CombineMerges counter from inside the combiner.
type CombinerFactory func(st *MapTaskStats) Combiner

// ReduceCtx is passed to the reduce function.
type ReduceCtx struct {
	Stats   *ReduceTaskStats
	TempDir string
	// Local is per-task user state created by Config.NewReduceLocal (nil
	// otherwise); see MapCtx.Local.
	Local any
	// Rows reports that the job's pairs were emitted by Job.MapRows rather
	// than Job.Map.
	Rows bool
	// MaxGroupPairs is the pair count of the largest group this task will
	// reduce, 0 when the grouping collector cannot know it (the sorted
	// path): what a reducer that buffers a group sizes its buffer by.
	MaxGroupPairs int
	emit          func(key, value []byte)
}

// Emit contributes one record to the job output. The framework COPIES
// key (so borrowed group keys and reused name buffers are safe to pass)
// but takes ownership of value without copying: the reducer must not
// reuse or mutate the value slice afterwards.
func (c *ReduceCtx) Emit(key, value []byte) {
	c.Stats.OutputRecords++
	c.emit(append([]byte(nil), key...), value)
}

// EmitStable is Emit without the key copy, for reducers that emit many
// records under few distinct keys: the caller guarantees key stays valid
// and unmodified for the job's duration (an interned or arena-backed key
// qualifies; a reused scratch buffer does not). The framework retains it
// uncopied, so output pairs of the same key share one allocation. Value
// ownership matches Emit: handed off uncopied.
func (c *ReduceCtx) EmitStable(key, value []byte) {
	c.Stats.OutputRecords++
	c.emit(key, value)
}

// ReduceFunc processes one group. Values arrive ordered by the full
// shuffle key (useful with a composite key); the group boundary is
// defined by Config.GroupBy. groupKey is only valid for the duration of
// the call — retain a copy if needed.
type ReduceFunc func(ctx *ReduceCtx, groupKey []byte, values *GroupIter) error

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
	// MapParallelism bounds this job's concurrent map tasks (default
	// GOMAXPROCS); on a shared executor it is the job's admission limit,
	// so one job cannot monopolize the pool. Reduce tasks are bounded by
	// GOMAXPROCS, always.
	MapParallelism int
	// Transport produces the shuffle transport. Production jobs leave it
	// nil (the in-memory channel transport, the only implementation); it
	// is a field so pipe_test.go can substitute a fake whose per-reducer
	// streams end early, proving the collect→reduce barrier is gone.
	Transport transport.Factory
	// ShuffleBatchPairs sets how many pairs each map task buffers per
	// reducer before shipping them as one framed batch (default 256; 1
	// disables batching and sends pair-at-a-time).
	ShuffleBatchPairs int
	// NewCombiner enables map-side early aggregation with a streaming
	// combiner when non-nil.
	NewCombiner CombinerFactory
	// MorselBytes, when > 0, switches the map phase from one task per
	// split to morsel-driven execution: every split that supports it (see
	// MorselSplit) is carved into contiguous ~MorselBytes runs of records,
	// dealt round-robin onto per-worker deques, and processed by
	// MapParallelism workers that steal from each other's deques once
	// their own drain — so a hot split is finished by many workers instead
	// of riding out one straggler. Each worker owns one map pipeline
	// (combiner table, Local state, batch writer) for its whole tour, and
	// map-task counters are per worker rather than per split. FailureInjector fires
	// once per worker before it pulls any morsel (retried up to
	// MaxAttempts, like a fixed-split task start); mid-stream errors are
	// never retried in either mode. 0 keeps the fixed-split map phase.
	MorselBytes int
	// LocalAggBudget caps the distinct partial states a map task's
	// combiner table holds before it is spilled — flushed, in
	// deterministic sorted-key order, into the shuffle toward the global
	// grouping collectors (the Leis et al. two-phase shape: local hash
	// table, overflow to global partitions). Default 65536.
	LocalAggBudget int
	// ShuffleDisabled runs the map phase only (the Figure 4(d) "Map-Only"
	// stage): pairs are counted but not sent, and no reduce phase runs.
	ShuffleDisabled bool
	// SortMemoryItems bounds the reducer's in-memory grouping buffer in
	// items before spilling — the sort buffer on the sorted path, the
	// buffered-pair count of the hash collector on the hash path (default
	// 1<<20; set small to force spills).
	SortMemoryItems int
	// TempDir hosts spill files (default OS temp).
	TempDir string
	// GroupBy extracts the group identity from a shuffle key (default
	// identity). With a composite key "block|sortsuffix" the engine sets
	// this to strip the suffix, realizing the combined-key sort. The
	// returned slice may alias the input key (a prefix sub-slice is the
	// zero-alloc idiom) and must not be retained by the framework beyond
	// the comparison it serves; implementations must not mutate key.
	//
	// GroupBy also decides how reducers group, because it says what the
	// reduce function may rely on. Nil means the group identity IS the
	// full key, so a total order adds nothing: pairs are collected into a
	// per-reducer hash table (spilling to sorted runs past
	// SortMemoryItems), groups arrive in ascending key order and pairs
	// within a group in arrival order. Non-nil means the key's remainder
	// carries a secondary order: the shuffle drains through the external
	// sorter and pairs within a group arrive in full-key order.
	GroupBy func(key []byte) []byte
	// NewMapLocal, when non-nil, is called once per map task (attempt)
	// and its result exposed as MapCtx.Local.
	NewMapLocal func(st *MapTaskStats) any
	// NewReduceLocal, when non-nil, is called once per reduce task and
	// its result exposed as ReduceCtx.Local.
	NewReduceLocal func(st *ReduceTaskStats) any
	// FailureInjector, when non-nil, is called at each task start; a
	// non-nil error fails that attempt (used by fault-tolerance tests).
	FailureInjector func(task string, attempt int) error
	// MaxAttempts bounds task retries (default 3).
	MaxAttempts int
}

func (c Config) withDefaults() (Config, error) {
	if c.NumReducers < 1 {
		return c, fmt.Errorf("mr: NumReducers %d < 1", c.NumReducers)
	}
	if c.Executor == nil {
		c.Executor = exec.Default()
	}
	if c.MapParallelism < 1 {
		c.MapParallelism = runtime.GOMAXPROCS(0)
	}
	if c.Transport == nil {
		c.Transport = transport.ChannelFactory(0)
	}
	if c.ShuffleBatchPairs < 1 {
		c.ShuffleBatchPairs = DefaultShuffleBatchPairs
	}
	if c.LocalAggBudget < 1 {
		c.LocalAggBudget = 1 << 16
	}
	if c.SortMemoryItems < 1 {
		c.SortMemoryItems = 1 << 20
	}
	if c.GroupBy == nil {
		c.GroupBy = func(k []byte) []byte { return k }
	}
	if c.MaxAttempts < 1 {
		c.MaxAttempts = 3
	}
	return c, nil
}

// DefaultShuffleBatchPairs is the default per-reducer shuffle batch size.
// 256 pairs amortize the per-frame channel/framing cost well below the
// per-pair work while keeping at most a few thousand pairs buffered per
// map task.
const DefaultShuffleBatchPairs = 256

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

// Job couples input, user functions, and configuration.
type Job struct {
	Name  string
	Input Input
	Map   MapFunc
	// MapRows, when non-nil, is Map for inputs that hand out decoded rows:
	// when every split (every morsel, in morsel mode) is a RowSplit the
	// job's map tasks call MapRows and never Map, and otherwise Map and
	// never MapRows — one of the two produces the whole shuffle, and
	// ReduceCtx.Rows says which. The pairs it emits for a row must group
	// and reduce to what Map's pairs for that record's bytes do; their
	// values may be encoded differently.
	MapRows RowMapFunc
	Reduce  ReduceFunc
	Config  Config
}

// Result is a completed job's output.
type Result struct {
	Output []transport.Pair
	Stats  JobStats
}
