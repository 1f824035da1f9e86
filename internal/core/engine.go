// Package core is the paper's parallel evaluation engine for composite
// subset measure queries (ICDE'08, Section III): it plans a distribution
// key and clustering factor with the optimizer, redistributes the raw
// records into (possibly overlapping) blocks of cube space with a single
// MapReduce job, evaluates the entire aggregation workflow locally inside
// each block with the [4] sort/scan subroutine, and filters each block's
// output so the final answer is the duplicate-free union of local results
// — no join or combination step is ever needed.
package core

import (
	"context"
	"fmt"

	"github.com/casm-project/casm/internal/blockstore"
	"github.com/casm-project/casm/internal/costmodel"
	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/exec"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/optimizer"
)

// SortMode selects how the in-group sort of the local algorithm is paid
// for (Section III-D / Figure 4(d)).
type SortMode int

const (
	// TwoPassSort ships plain block keys; the reducer re-sorts each
	// group's records before local evaluation (the paper's unmodified-
	// Hadoop default).
	TwoPassSort SortMode = iota
	// CombinedKeySort appends the record's own encoding to the shuffle
	// key so the framework's sort already orders records within blocks,
	// eliminating the second sort.
	CombinedKeySort
)

// EarlyAggMode controls map-side early aggregation (Section III-D).
type EarlyAggMode int

const (
	// EarlyAggOff ships each record's read columns.
	EarlyAggOff EarlyAggMode = iota
	// EarlyAggAuto combines on the map side whenever the workflow supports
	// it; Result.EarlyAggregated reports the plan's decision.
	EarlyAggAuto
)

// SkewMode selects the Section V run-time skew strategy.
type SkewMode int

const (
	// SkewNone trusts the model's plan.
	SkewNone SkewMode = iota
	// SkewSampling samples the input, simulates the dispatch for every
	// candidate plan, and picks the most balanced one.
	SkewSampling
)

// Config tunes the engine.
type Config struct {
	// NumReducers is the number of reduce tasks (the paper's m). Required.
	NumReducers int
	// EarlyAggregation turns the map-side combiner off (default) or on for
	// every workflow that supports it.
	EarlyAggregation EarlyAggMode
	// SortMode selects two-pass vs combined-key sorting (default two-pass,
	// matching the paper's unmodified MapReduce). It also decides how
	// reducers group: two-pass sorting and early aggregation only need
	// pairs grouped by block, so they take the substrate's hash collector;
	// the combined key's secondary order needs its sorted path.
	SortMode SortMode
	// SkewMode selects run-time skew handling (default none).
	SkewMode SkewMode
	// SampleSize bounds the skew-detection sample (default 2000 records).
	SampleSize int
	// MinBlocksPerReducer is the paper's "2Blocks"/"4Blocks" heuristic
	// (0 = off).
	MinBlocksPerReducer int64
	// ForceCF overrides the optimizer's clustering factor for its chosen
	// key (the Figure 4(c) sweep and casmrun -cf use it).
	ForceCF int64
	// SortMemoryItems bounds the reducer's in-memory sort (default 1<<20).
	SortMemoryItems int
	// MorselBytes, when > 0, switches the map phase to morsel-driven
	// execution: splits are carved into ~MorselBytes runs of records and
	// a fixed worker pool self-schedules over them with work-stealing
	// (mr.DefaultMorselBytes is the recommended size). 0 keeps the
	// fixed-split map phase.
	MorselBytes int
	// LocalAggBudget caps each map task's early-aggregation table
	// (distinct partial states before a sorted-key spill into the
	// shuffle). 0 defaults to the substrate's 65536.
	LocalAggBudget int
	// TempDir hosts spill files.
	TempDir string
	// DecisionCache, when non-nil, memoizes complete optimizer decisions
	// under the canonical workflow fingerprint + dataset identity +
	// planning knobs, so a repeated (or structurally identical) query
	// skips candidate enumeration, scoring, and skew sampling entirely.
	// A non-zero ForceCF bypasses it.
	DecisionCache *optimizer.DecisionCache
	// ResultCache, when non-nil, materializes each block's reducer
	// output under (dataset identity × measure fingerprint × block key)
	// and probes it before local evaluation, so repeated or structurally
	// identical workflows skip recomputing blocks they have already
	// answered. A full-query manifest additionally lets an identical
	// repeated query skip the job (and its input scan) entirely.
	// Reuse needs a settled dataset identity: only runs over datasets
	// with a non-empty Tag and known NumRecords participate (a
	// multi-query job always recomputes). Correctness leans on the
	// pinned determinism of per-block results: byte-identical answers
	// across cache states are property-tested.
	ResultCache *blockstore.ResultCache
	// Seed drives sampling.
	Seed int64

	// executor is the shared task-scheduler pool the engine's jobs run on
	// (nil: the process-wide exec.Default()). A Service sets its own, so
	// its concurrent calls multiplex over one bounded worker pool with
	// FIFO-fair admission.
	executor *exec.Executor
}

func (c Config) withDefaults() (Config, error) {
	if c.NumReducers < 1 {
		return c, fmt.Errorf("core: NumReducers %d < 1", c.NumReducers)
	}
	if c.SampleSize < 1 {
		c.SampleSize = 2000
	}
	return c, nil
}

// Engine evaluates workflows under one configuration.
type Engine struct {
	cfg Config
}

// NewEngine validates the configuration and returns an engine.
func NewEngine(cfg Config) (*Engine, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Engine{cfg: c}, nil
}

// Dataset couples a schema with a raw-record input.
type Dataset struct {
	Schema *cube.Schema
	Input  mr.Input
	// NumRecords is the dataset cardinality (the optimizer's N). When 0,
	// the engine counts records with one extra scan.
	NumRecords int64
	// Tag optionally names the dataset for the decision cache (a file
	// path, a snapshot id). Under SkewNone the chosen plan is a pure
	// function of (workflow, N, planning knobs), so an empty Tag is safe;
	// under SkewSampling the sampled records influence the decision, and
	// distinct datasets sharing a schema and cardinality should carry
	// distinct Tags to keep their cached decisions apart.
	Tag string
}

// MeasureRecord is one <region, value> result.
type MeasureRecord struct {
	Region cube.Region
	Value  float64
}

// ResultHeader is what a consumer learns about an evaluation before its
// first row: the plan facts, identical on a materialized Result and on a
// ResultStream (see PlanOutcome.header, their one producer).
type ResultHeader struct {
	// Plan is the executed plan.
	Plan optimizer.Plan
	// SampledPlan indicates the plan came from simulated dispatch.
	SampledPlan bool
	// EarlyAggregated reports the plan's decision: the query's job combines
	// on the map side (Section III-D). A result served whole from the
	// materialized cache ran no job and reports the decision all the same
	// (Result.ResultReused says the job was skipped).
	EarlyAggregated bool
	// SampleSeconds is the simulated cost of the sampling pass (0 when
	// sampling is off); the paper reports ~10 s per dataset.
	SampleSeconds float64
	// PlanCached indicates the whole planning decision came from the
	// keyed decision cache (Config.DecisionCache) — no optimizer work,
	// no sampling pass, was performed for this run.
	PlanCached bool
}

// Result is a completed evaluation.
type Result struct {
	ResultHeader
	// Measures maps measure names to their records. Each measure's
	// records are in canonical order: ascending bytes.Compare of the
	// cube.AppendCoords (varint) encoding of Region.Coord — a total order,
	// one record per region, but not numeric order: 256 (80 02) sorts
	// before 255 (ff 01).
	Measures map[string][]MeasureRecord
	// Stats are the substrate's per-task counters.
	Stats mr.JobStats
	// Estimate is the simulated response time on the configured cluster.
	Estimate costmodel.Estimate
	// ResultReused indicates the whole answer was assembled from the
	// materialized result cache — no job ran, no input bytes were
	// scanned.
	ResultReused bool
}

// TotalRecords returns the total number of measure records.
func (r *Result) TotalRecords() int64 {
	var n int64
	for _, ms := range r.Measures {
		n += int64(len(ms))
	}
	return n
}

// scanDataset hands every batch of the splits, in order, to visit (the
// batch is only valid for the call), closing each iterator on every path
// and polling ctx once per batch (a non-blocking read of ctx.Done(), the
// mr hot-loop idiom).
func scanDataset(ctx context.Context, splits []mr.Split, visit func(b mr.Batch) error) error {
	done := ctx.Done()
	scan := func(sp mr.Split) error {
		it, err := sp.Open()
		if err != nil {
			return err
		}
		defer it.Close()
		for {
			b, ok, err := it.Next()
			if err != nil {
				return err
			}
			if !ok {
				return it.Close()
			}
			select {
			case <-done:
				return ctx.Err()
			default:
			}
			if err := visit(b); err != nil {
				return err
			}
		}
	}
	for _, sp := range splits {
		if err := scan(sp); err != nil {
			return err
		}
	}
	return nil
}

// CountRecords scans the dataset once and returns its cardinality.
// Cancelling ctx aborts the scan with ctx's error.
func CountRecords(ctx context.Context, ds *Dataset) (int64, error) {
	splits, err := ds.Input.Splits()
	if err != nil {
		return 0, err
	}
	var n int64
	err = scanDataset(ctx, splits, func(b mr.Batch) error { n += int64(b.N); return nil })
	return n, err
}

// cardinality returns the optimizer's N for the dataset: NumRecords when
// known, one counting scan otherwise (an empty dataset plans as N = 1).
func cardinality(ctx context.Context, ds *Dataset) (int64, error) {
	if ds.NumRecords != 0 {
		return ds.NumRecords, nil
	}
	n, err := CountRecords(ctx, ds)
	return max(n, 1), err
}

// MemoryDataset wraps in-memory records as a dataset with the given
// number of splits. The records are copied into one flat slab of rows,
// the form every map task reads; a record whose arity is not the schema's
// makes every scan of the dataset fail.
func MemoryDataset(schema *cube.Schema, records []cube.Record, splits int) *Dataset {
	arity := schema.NumAttrs()
	ds := &Dataset{Schema: schema, NumRecords: int64(len(records))}
	rows := make([]int64, 0, len(records)*arity)
	for _, r := range records {
		if len(r) != arity {
			ds.Input = failedInput{fmt.Errorf("core: record of arity %d, schema has %d attributes", len(r), arity)}
			return ds
		}
		rows = append(rows, r...)
	}
	ds.Input = mr.NewMemoryInput(rows, arity, splits)
	return ds
}

// failedInput is an input that cannot be read.
type failedInput struct{ err error }

func (in failedInput) Splits() ([]mr.Split, error) { return nil, in.err }
