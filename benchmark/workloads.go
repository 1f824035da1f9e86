package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	casm "github.com/casm-project/casm"
	"github.com/casm-project/casm/internal/blockstore"
	"github.com/casm-project/casm/internal/core"
	"github.com/casm-project/casm/internal/cql"
	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/workflow"
	"github.com/casm-project/casm/internal/workload"
)

// The workload names are fixed: later issues cite them.
const (
	scanEarlyAgg  = "scan_earlyagg"
	reduceFineOut = "reduce_fineout"
	windowStream  = "window_stream"
	serveMixed    = "serve_mixed"
)

// Load shape shared by every workload (see README.md, "Load shape").
const (
	numReducers    = 8
	storeBlockSize = 256 << 10 // blocks ≫ cores at laptop scale; the 4 MiB default gives one split
	memorySplits   = 32
	warmupOps      = 4
	dataFile       = "data"
	unaryLimit     = 100
)

// sizes are the dataset cardinalities and the grouping budget of
// window_stream. The full sizes put one operation at roughly 40–110 ms
// on a 2-core sandbox, so that a 20 s window holds well over 100 of
// them; the issue's own sizing (1.2M/50k/400k/200k records at 0.25–0.35 s
// per operation) does not fit the driver's cap on total run time. The
// grouping budget shrinks with window_stream's dataset so that it stays
// below one reducer's input.
type sizes struct {
	scan, reduce, window, serve int
	sortMemoryItems             int
}

func sizesFor(quick bool) sizes {
	if quick {
		return sizes{scan: 5000, reduce: 5000, window: 5000, serve: 5000, sortMemoryItems: 256}
	}
	return sizes{scan: 200_000, reduce: 12_000, window: 60_000, serve: 40_000, sortMemoryItems: 4096}
}

// env is what a workload's set-up needs from the command line.
type env struct {
	seed    int64
	quick   bool
	tmp     string // the run's temp root; every store and spill file lives under it
	clients int    // serve_mixed client count
	suite   *workload.Suite
}

// instance is one set-up workload, ready to run operations.
type instance struct {
	records []cube.Record
	store   *blockstore.Store // nil for reduce_fineout
	queries []*query          // the one-shot workloads' cycle; serve_mixed's hot set, stream query and fresh families
	clients int
	cycle   int // operations per client are a multiple of this
	// sortMemoryItems is the engine's grouping budget (0 = default),
	// repeated here for the spill kernel.
	sortMemoryItems int

	// warmup runs the untimed, unchecked operations that end set-up.
	warmup func(ctx context.Context) error
	// op runs client's operation number seq and checks its answer.
	op func(ctx context.Context, client, seq int, tr *tracer) opObs
	// service snapshots resident-service counters (serve_mixed only).
	service func() core.ServiceStats
	// close stops everything the set-up started and waits for it.
	close func(ctx context.Context) error
}

func (e *env) openStore(dir string) (*blockstore.Store, error) {
	return blockstore.Open(blockstore.Config{Dir: dir, BlockSize: storeBlockSize, Seed: e.seed})
}

// storeDataset ingests records into a fresh store under dir and opens
// them as a dataset whose cardinality and identity come from the store.
func (e *env) storeDataset(dir string, records []cube.Record) (*blockstore.Store, *core.Dataset, error) {
	st, err := e.openStore(dir)
	if err != nil {
		return nil, nil, err
	}
	schema := e.suite.Schema
	err = workload.WriteStore(st, dataFile, schema, records)
	var ds *core.Dataset
	if err == nil {
		ds, err = casm.StoreDataset(schema, st, dataFile)
	}
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	return st, ds, nil
}

// window24 is Q5 with a 24-hour window: wider overlap, same grain.
const window24 = `MEASURE w24base = SUM(a2) AT (a1:high, t1:hour);
MEASURE w24win = WINDOW SUM(w24base) OVER t1(-23, 0) AT (a1:high, t1:hour);
`

// dsText renders the suite's early-aggregation study query i (0..2).
func dsText(su *workload.Suite, i int) string {
	wf, err := su.DS(i)
	if err != nil {
		panic(err) // unreachable: i is a constant in 0..2
	}
	return cql.Format(wf)
}

// queriesFor returns a one-shot workload's query cycle as CQL text.
func (e *env) queriesFor(name string) ([]*query, error) {
	su := e.suite
	var texts [][2]string
	switch name {
	case scanEarlyAgg:
		texts = [][2]string{{"ds0", dsText(su, 0)}, {"ds1", dsText(su, 1)}}
	case reduceFineOut:
		texts = [][2]string{{"q1", cql.Format(su.Q1())}, {"ds2", dsText(su, 2)}}
	case windowStream:
		texts = [][2]string{{"q5", cql.Format(su.Q5())}, {"q6", cql.Format(su.Q6())}, {"q5w24", window24}}
	}
	qs := make([]*query, len(texts))
	for i, t := range texts {
		q, err := newQuery(su.Schema, t[0], t[1])
		if err != nil {
			return nil, err
		}
		qs[i] = q
	}
	return qs, nil
}

// setupOneShot builds the three workloads that call the engine directly,
// one caller at a time, as a casmrun user does. No program-level cache is
// configured (no DecisionCache, no ResultCache): every operation is cold.
func setupOneShot(e *env, name string, sz sizes, dir string) (*instance, error) {
	inst := &instance{clients: 1}
	cfg := core.Config{NumReducers: numReducers, TempDir: dir, Seed: e.seed}
	var ds *core.Dataset
	var err error
	switch name {
	case scanEarlyAgg:
		cfg.EarlyAggregation = core.EarlyAggAuto
		inst.records = e.suite.Generate(sz.scan, workload.Uniform, e.seed)
		inst.store, ds, err = e.storeDataset(filepath.Join(dir, "store"), inst.records)
	case reduceFineOut:
		inst.records = e.suite.Generate(sz.reduce, workload.Uniform, e.seed)
		ds = core.MemoryDataset(e.suite.Schema, inst.records, memorySplits)
	case windowStream:
		cfg.SortMemoryItems = sz.sortMemoryItems
		inst.sortMemoryItems = sz.sortMemoryItems
		inst.records = e.suite.Generate(sz.window, workload.SkewedTime, e.seed)
		inst.store, ds, err = e.storeDataset(filepath.Join(dir, "store"), inst.records)
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return nil, err
	}
	inst.close = func(context.Context) error {
		if inst.store != nil {
			return inst.store.Close()
		}
		return nil
	}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		inst.close(context.Background())
		return nil, err
	}
	if inst.queries, err = e.queriesFor(name); err != nil {
		inst.close(context.Background())
		return nil, err
	}
	inst.cycle = len(inst.queries)
	schema := e.suite.Schema
	stream := name == windowStream
	inst.op = func(ctx context.Context, _, seq int, tr *tracer) opObs {
		q := inst.queries[seq%len(inst.queries)]
		o := opObs{kind: q.name, start: time.Now()}
		got, err := func() (answer, error) {
			wf, err := cql.Parse(schema, q.text)
			o.parse = time.Since(o.start)
			if err != nil {
				return nil, err
			}
			if stream {
				return drainStream(ctx, eng, wf, ds, &o)
			}
			outcome, err := eng.PlanContext(ctx, wf, ds)
			o.plan = time.Since(o.start) - o.parse
			if err != nil {
				return nil, err
			}
			res, err := eng.RunWithPlanContext(ctx, wf, ds, outcome)
			o.run = time.Since(o.start) - o.parse - o.plan
			if err != nil {
				return nil, err
			}
			js := res.Stats // a copy: &res.Stats would keep the whole result alive
			o.stats = &js
			return answerOfResult(res), nil
		}()
		// The answer digest of a materialised result is the benchmark's
		// own work: it is computed after the engine returned and is not
		// part of the latency.
		o.latency = o.parse + o.plan + o.run
		if o.stats == nil {
			o.stats = &mr.JobStats{}
		}
		o.err = err
		o.failed = err != nil || q.ref == nil || !got.matches(q.ref)
		o.rows, o.digest = got.rows(), got.id()
		tr.record(&o)
		return o
	}
	inst.warmup = func(ctx context.Context) error {
		for i := 0; i < warmupOps; i++ {
			if o := inst.op(ctx, 0, i, nil); o.err != nil {
				return o.err
			}
		}
		return nil
	}
	return inst, nil
}

// drainStream evaluates through the stream plane into a digesting sink.
// EvaluateStream plans and launches the job before it returns, so its
// duration is what the core.plan span covers here; the drain is core.stream.
func drainStream(ctx context.Context, eng *core.Engine, wf *workflow.Workflow, ds *core.Dataset, o *opObs) (answer, error) {
	rs, err := eng.EvaluateStream(ctx, wf, ds)
	o.plan = time.Since(o.start) - o.parse
	if err != nil {
		return nil, err
	}
	defer rs.Close()
	got := make(answer)
	var scratch []byte
	for {
		row, ok, err := rs.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if o.firstRow == 0 {
			o.firstRow = time.Since(o.start)
		}
		got.add(row.Measure, row.Region.Coord, row.Value, &scratch)
	}
	if err := rs.Close(); err != nil {
		return nil, err
	}
	o.run = time.Since(o.start) - o.parse - o.plan
	js := rs.Stats()
	o.stats = &js
	return got, nil
}

// setup builds a workload under its own directory of the temp root.
func setup(e *env, name string, sz sizes, dir string) (*instance, error) {
	if name == serveMixed {
		return setupServe(e, sz, dir)
	}
	return setupOneShot(e, name, sz, dir)
}
