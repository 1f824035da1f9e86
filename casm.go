// Package casm is a parallel evaluation engine for composite subset
// measure queries — correlated, hierarchically grouped aggregations over
// multidimensional data, including sliding-window measures — implementing
// Chen, Olston and Ramakrishnan, "Parallel Evaluation of Composite
// Aggregate Queries" (ICDE 2008).
//
// A query is an aggregation workflow: a DAG of measures, each defined
// over a granularity of cube space and derived from raw records (basic
// measures) or from other measures through the self, child/parent,
// parent/child, and sibling relationships. The engine redistributes the
// raw data once into (possibly overlapping) blocks of cube space chosen
// so that every measure can be computed entirely locally inside one
// block; the final answer is the duplicate-free union of the per-block
// results.
//
// Quick start:
//
//	schema := casm.NewSchema(
//		casm.MustAttribute("keyword", casm.Nominal, 10000,
//			casm.Level{Name: "word", Span: 1},
//			casm.Level{Name: "group", Span: 100}),
//		casm.TimeAttribute("time", 7),
//	)
//	q, err := casm.Build(schema).
//		Basic("hits", casm.Agg(casm.Count), "", casm.At("keyword", "word"), casm.At("time", "minute")).
//		Sliding("traffic", casm.Agg(casm.Sum), "hits", casm.Window("time", -9, 0),
//			casm.At("keyword", "word"), casm.At("time", "minute")).
//		Done()
//	eng, err := casm.NewEngine(casm.Config{NumReducers: 8})
//	res, err := eng.Run(q, casm.MemoryDataset(schema, records, 16))
//
// See the examples directory for complete programs.
package casm

import (
	"fmt"

	"github.com/casm-project/casm/internal/blockstore"
	"github.com/casm-project/casm/internal/core"
	"github.com/casm-project/casm/internal/cql"
	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/distkey"
	"github.com/casm-project/casm/internal/exec"
	"github.com/casm-project/casm/internal/measure"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/optimizer"
	"github.com/casm-project/casm/internal/workflow"
)

// --- cube space ---

// Kind classifies an attribute's domain.
type Kind = cube.Kind

// Domain kinds. Only Numeric and Temporal attributes may carry sliding
// windows and distribution-key range annotations.
const (
	Nominal  = cube.Nominal
	Numeric  = cube.Numeric
	Temporal = cube.Temporal
)

// Level is one level of an attribute's domain hierarchy.
type Level = cube.Level

// Attribute is one dimension of cube space with its hierarchy.
type Attribute = cube.Attribute

// Schema is the ordered set of attributes defining cube space.
type Schema = cube.Schema

// Record is one data record: a finest-level value per attribute.
type Record = cube.Record

// Grain names a granularity (one level per attribute).
type Grain = cube.Grain

// GrainSpec selects one attribute's level when building grains.
type GrainSpec = cube.GrainSpec

// Region is a hyper-rectangle of cube space at some grain.
type Region = cube.Region

// NewAttribute builds an attribute; see cube.NewAttribute.
func NewAttribute(name string, kind Kind, card int64, levels ...Level) (*Attribute, error) {
	return cube.NewAttribute(name, kind, card, levels...)
}

// MustAttribute is NewAttribute that panics on error.
func MustAttribute(name string, kind Kind, card int64, levels ...Level) *Attribute {
	return cube.MustAttribute(name, kind, card, levels...)
}

// TimeAttribute builds a temporal attribute with the second < minute <
// hour < day hierarchy covering the given number of days.
func TimeAttribute(name string, days int64) *Attribute {
	return cube.TimeAttribute(name, days)
}

// MappedLevel defines one level of an irregular hierarchy by an explicit
// value→coordinate assignment table.
type MappedLevel = cube.MappedLevel

// NewMappedAttribute builds a nominal attribute whose hierarchy levels
// are given by explicit mapping tables (e.g. SKUs into hand-curated
// categories) instead of fixed spans.
func NewMappedAttribute(name string, card int64, levels ...MappedLevel) (*Attribute, error) {
	return cube.NewMappedAttribute(name, card, levels...)
}

// MustMappedAttribute is NewMappedAttribute that panics on error.
func MustMappedAttribute(name string, card int64, levels ...MappedLevel) *Attribute {
	return cube.MustMappedAttribute(name, card, levels...)
}

// NewSchema builds a schema; it panics on invalid input (schemas are
// static program data). Use cube-level constructors for error returns.
func NewSchema(attrs ...*Attribute) *Schema { return cube.MustSchema(attrs...) }

// At is shorthand for a GrainSpec.
func At(attr, level string) GrainSpec { return GrainSpec{Attr: attr, Level: level} }

// --- measures ---

// AggFunc names an aggregate function.
type AggFunc = measure.Func

// Supported aggregate functions.
const (
	Count    = measure.Count
	Sum      = measure.Sum
	Min      = measure.Min
	Max      = measure.Max
	Avg      = measure.Avg
	Var      = measure.Var
	StdDev   = measure.StdDev
	Median   = measure.Median
	Quantile = measure.Quantile
	// CountDistinct counts distinct input values (holistic).
	CountDistinct = measure.CountDistinct
)

// AggSpec is a fully specified aggregate function.
type AggSpec = measure.Spec

// Agg builds an AggSpec for a parameterless function.
func Agg(f AggFunc) AggSpec { return AggSpec{Func: f} }

// QuantileAgg builds a quantile aggregate with the given rank in (0,1).
func QuantileAgg(rank float64) AggSpec { return AggSpec{Func: Quantile, Arg: rank} }

// Expr combines source measure values in self measures.
type Expr = measure.Expr

// Builtin expressions.
var (
	Ratio = measure.Ratio
	Plus  = measure.Add
	Minus = measure.Sub
	Times = measure.Mul
	Ident = measure.Ident
	Scale = measure.Scale
)

// FuncExpr wraps an arbitrary function as an Expr.
type FuncExpr = measure.FuncExpr

// --- queries ---

// Query is an aggregation workflow: the DAG of measures to evaluate.
type Query = workflow.Workflow

// Measure is one node of a query.
type Measure = workflow.Measure

// RangeAnn is a sibling window annotation (attribute index + offsets).
type RangeAnn = workflow.RangeAnn

// NewQuery returns an empty query over the schema; add measures with the
// AddBasic/AddSelf/AddRollup/AddInherit/AddSliding methods, or use Build
// for a fluent interface.
func NewQuery(schema *Schema) *Query { return workflow.New(schema) }

// ParseQuery compiles CQL text — the library's small query language — into
// a query over the schema. See package internal/cql for the grammar:
//
//	MEASURE m1 = MEDIAN(pages)  AT (keyword:word, time:minute);
//	MEASURE m4 = WINDOW AVG(m3) OVER time(-9, 0) AT (keyword:word, time:minute);
func ParseQuery(schema *Schema, src string) (*Query, error) { return cql.Parse(schema, src) }

// FormatQuery renders a query as CQL text; ParseQuery(FormatQuery(q))
// reconstructs an equivalent query.
func FormatQuery(q *Query) string { return cql.Format(q) }

// --- distribution keys and plans ---

// DistributionKey is a (possibly annotated, hence overlapping)
// distribution key.
type DistributionKey = distkey.Key

// Plan is an optimizer-chosen execution plan.
type Plan = optimizer.Plan

// DecisionCache is a bounded keyed cache of finished plan decisions:
// repeated submissions of an equivalent query over the same dataset skip
// planning (including the sampling pass under SkewSampling) entirely.
// Set one as Config.DecisionCache and share it across engines.
type DecisionCache = optimizer.DecisionCache

// DefaultDecisionCacheSize is the capacity NewDecisionCache(0) uses.
const DefaultDecisionCacheSize = optimizer.DefaultDecisionCacheSize

// NewDecisionCache returns an empty decision cache holding at most
// capacity entries (0 = DefaultDecisionCacheSize), evicting the least
// recently used.
func NewDecisionCache(capacity int) *DecisionCache {
	return optimizer.NewDecisionCache(capacity)
}

// Fingerprint returns the query's canonical workflow fingerprint: a
// digest of the normalized measure DAG and schema, stable under measure
// renaming and reordering. Equal fingerprints mean the queries are
// equivalent for planning and caching purposes.
func Fingerprint(q *Query) (string, error) { return workflow.Fingerprint(q) }

// FingerprintCQL parses CQL text and returns its canonical workflow
// fingerprint, so clients can key caches on query text without keeping
// the parsed workflow around.
func FingerprintCQL(schema *Schema, src string) (string, error) {
	return cql.Fingerprint(schema, src)
}

// DeriveKey returns the minimal feasible distribution key for a query
// (paper Theorems 1–2 and the OpConvert/OpCombine algorithms).
func DeriveKey(q *Query) (DistributionKey, error) {
	k, _, err := distkey.Derive(q)
	return k, err
}

// --- engine ---

// Engine evaluates queries in parallel.
type Engine = core.Engine

// Config tunes the engine; see the field documentation in internal/core.
type Config = core.Config

// Execution knobs re-exported from the engine.
const (
	EarlyAggOff  = core.EarlyAggOff
	EarlyAggAuto = core.EarlyAggAuto

	SkewNone     = core.SkewNone
	SkewSampling = core.SkewSampling
)

// Dataset couples a schema with a record input.
type Dataset = core.Dataset

// Result is a completed evaluation.
type Result = core.Result

// MeasureRecord is one <region, value> output row.
type MeasureRecord = core.MeasureRecord

// BatchResult is a completed multi-query evaluation; see
// Engine.EvaluateBatchContext.
type BatchResult = core.BatchResult

// BatchJobInfo describes one job of a batch, run or planned, and which
// queries shared it.
type BatchJobInfo = core.BatchJobInfo

// Service is the resident, multi-tenant form of the engine: a long-lived
// executor pool, a named dataset registry, and a shared decision cache
// behind per-tenant admission control. See core.Service.
type Service = core.Service

// ServiceConfig parameterizes a Service.
type ServiceConfig = core.ServiceConfig

// ServiceStats is a point-in-time snapshot of a Service.
type ServiceStats = core.ServiceStats

// NewService validates the configuration and returns a resident service.
func NewService(cfg ServiceConfig) (*Service, error) { return core.NewService(cfg) }

// Typed service-lifecycle errors, for mapping to transport status codes.
var (
	// ErrDraining: submitted after Drain began (HTTP 503).
	ErrDraining = exec.ErrDraining
	// ErrQueueFull: the bounded admission queue is full (HTTP 429).
	ErrQueueFull = exec.ErrQueueFull
	// ErrUnknownDataset: the named dataset was never registered (HTTP 404).
	ErrUnknownDataset = core.ErrUnknownDataset
	// ErrStreamClosed: reading a result stream after an early Close.
	ErrStreamClosed = mr.ErrClosed
)

// NewEngine validates the configuration and returns an engine.
func NewEngine(cfg Config) (*Engine, error) { return core.NewEngine(cfg) }

// MemoryDataset wraps in-memory records as a dataset split into the given
// number of map splits.
func MemoryDataset(schema *Schema, records []Record, splits int) *Dataset {
	return core.MemoryDataset(schema, records, splits)
}

// --- distributed storage ---

// Store is the persistent replicated columnar block store: per-node
// append-only segment files, per-column compression, checksummed block
// footers, and torn-tail recovery, so a restarted process reopens its
// datasets without re-ingesting or recounting them.
type Store = blockstore.Store

// StoreConfig parameterizes a Store; Dir is the on-disk root.
type StoreConfig = blockstore.Config

// StoreStats is a store's cumulative health and traffic counters.
type StoreStats = blockstore.Stats

// OpenStore opens (or creates) the persistent block store rooted at
// cfg.Dir, rebuilding its index from the segment files and truncating
// any torn tail left by a crash mid-write.
func OpenStore(cfg StoreConfig) (*Store, error) { return blockstore.Open(cfg) }

// ResultCache is the materialized per-(block, query-fingerprint) result
// cache; hand one to Config.ResultCache and repeated or structurally
// identical queries reuse already-computed block results.
type ResultCache = blockstore.ResultCache

// ResultCacheStats are a ResultCache's cumulative counters.
type ResultCacheStats = blockstore.CacheStats

// NewResultCache returns a result cache bounded to maxBytes of in-memory
// entries (0 = the default budget), persisted write-behind into st; a
// nil st keeps the cache memory-only.
func NewResultCache(st *Store, maxBytes int64) (*ResultCache, error) {
	return blockstore.NewResultCache(st, maxBytes)
}

// WriteRecords stores records as a replicated columnar store file ready
// for parallel scanning, recording the dataset's cardinality and schema
// digest in the store's metadata.
func WriteRecords(st *Store, name string, schema *Schema, records []Record) error {
	return st.WriteRecords(name, schema.NumAttrs(), workflow.SchemaDigest(schema), records)
}

// SaveResults persists an evaluation's measure records as a store file,
// as the paper's jobs write their output back to HDFS.
func SaveResults(st *Store, name string, res *Result, blockSize int) error {
	return core.SaveResults(st, name, res, blockSize)
}

// LoadResults reads a file written by SaveResults, resolving measure
// grains through the query that produced it.
func LoadResults(st *Store, name string, q *Query) (map[string][]MeasureRecord, error) {
	return core.LoadResults(st, name, q)
}

// StoreDataset opens a store file written by WriteRecords as a dataset.
// The cardinality comes from the store's block footers — no counting
// scan — and the dataset is tagged with the file name so plan decisions
// and materialized results key correctly across restarts.
func StoreDataset(schema *Schema, st *Store, file string) (*Dataset, error) {
	info, err := st.FileInfo(file)
	if err != nil {
		return nil, fmt.Errorf("casm: opening %q: %w", file, err)
	}
	if d := workflow.SchemaDigest(schema); info.SchemaDigest != "" && info.SchemaDigest != d {
		return nil, fmt.Errorf("casm: %q was ingested under a different schema", file)
	}
	return &core.Dataset{
		Schema:     schema,
		Input:      mr.NewStoreInput(st, file),
		NumRecords: info.Records,
		Tag:        st.DatasetTag(file),
	}, nil
}

// Explain renders a query, the per-measure and query-wide minimal
// feasible distribution keys, and the optimizer's plan for the given
// dataset size and reducer count.
func Explain(q *Query, totalRecords int64, numReducers int) (string, error) {
	plan, err := optimizer.Optimize(q, optimizer.Config{
		NumReducers:  numReducers,
		TotalRecords: totalRecords,
	})
	if err != nil {
		return "", err
	}
	return ExplainPlan(q, plan)
}

// ExplainPlan is Explain for a plan already chosen, such as the one an
// engine reports for a query it ran or planned: the query, its minimal
// feasible keys, and the plan with the optimizer's candidates and their
// modelled heaviest-reducer loads.
func ExplainPlan(q *Query, plan Plan) (string, error) {
	key, perMeasure, err := distkey.Derive(q)
	if err != nil {
		return "", err
	}
	s := q.Schema()
	out := q.Explain()
	for _, m := range q.Measures() {
		out += fmt.Sprintf("key[%s] = %s\n", m.Name, perMeasure[m.Name].Format(s))
	}
	out += fmt.Sprintf("minimal feasible key: %s\n", key.Format(s))
	return out + plan.Explain(s), nil
}
