package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/casm-project/casm/internal/costmodel"
	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/localeval"
	"github.com/casm-project/casm/internal/measure"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/optimizer"
	"github.com/casm-project/casm/internal/workflow"
	"github.com/casm-project/casm/internal/workload"
)

// TestEvaluateBatchMatchesSequentialByteIdentical is the one-job property
// test: for random workflow sets, a batched evaluation must be
// byte-identical, per query, to running each query alone — across both
// sort modes, forced reduce-side spills, and morsel mode on/off.
// stableBits workflows keep rollup folds order-independent, so "identical"
// really is canonical-bytes equality, not float tolerance. Three inputs
// per seed: the random set; a batch of ONE query, whose job must also
// price exactly like the unary run (empty tags: same keys, same bytes);
// and a mixed set under EarlyAggAuto, where the combinable queries run as
// jobs of one and the rest share a job.
func TestEvaluateBatchMatchesSequentialByteIdentical(t *testing.T) {
	su := workload.NewSuite()
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(9000 + seed)))
			nQ := 2 + rng.Intn(3)
			ws := make([]*workflow.Workflow, nQ)
			for i := range ws {
				ws[i] = randomWorkflowOpts(t, su.Schema, rng, true)
			}
			records := su.Generate(400+rng.Intn(800), workload.Uniform, int64(seed))
			ds := MemoryDataset(su.Schema, records, 2+rng.Intn(5))
			reducers := 1 + rng.Intn(6)

			// The mixed set: draw until it holds one combinable query and
			// two that are not.
			var mixed []*workflow.Workflow
			var combines []bool
			for yes, no := 0, 0; yes < 1 || no < 2; {
				w := randomWorkflowOpts(t, su.Schema, rng, true)
				ev, err := localeval.New(w)
				if err != nil {
					t.Fatal(err)
				}
				c := ev.SupportsEarlyAggregation() == nil
				if (c && yes == 1) || (!c && no == 2) {
					continue
				}
				if c {
					yes++
				} else {
					no++
				}
				mixed, combines = append(mixed, w), append(combines, c)
			}

			// check runs the batch and every member alone, compares
			// bytes, and returns both sides.
			check := func(label string, cfg Config, ws []*workflow.Workflow) (*BatchResult, []*Result) {
				eng, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				batch, err := eng.EvaluateBatchContext(context.Background(), ws, ds)
				if err != nil {
					t.Fatalf("%s: batch: %v", label, err)
				}
				seqs := make([]*Result, len(ws))
				for i, w := range ws {
					if seqs[i], err = eng.Run(w, ds); err != nil {
						t.Fatalf("%s: sequential query %d: %v", label, i, err)
					}
					if got, want := canonicalOutput(batch.Results[i]), canonicalOutput(seqs[i]); got != want {
						t.Errorf("%s: query %d: batched output differs byte-wise from sequential\nbatched:\n%s\nsequential:\n%s",
							label, i, got, want)
					}
				}
				return batch, seqs
			}

			for _, sortMode := range []SortMode{TwoPassSort, CombinedKeySort} {
				for _, morselBytes := range []int{0, 512} {
					label := fmt.Sprintf("sort=%d morsel=%d", sortMode, morselBytes)
					cfg := Config{
						NumReducers:     reducers,
						SortMode:        sortMode,
						SortMemoryItems: 2, // force reduce-side spills
						MorselBytes:     morselBytes,
						TempDir:         t.TempDir(),
					}
					check(label, cfg, ws)

					one, seqs := check(label+" batch-of-one", cfg, ws[:1])
					if len(one.Jobs) != 1 || one.Jobs[0].Shared {
						t.Errorf("%s: batch of one ran as %+v", label, one.Jobs)
					}
					if got, want := pricedSums(one.Results[0].Stats, false), pricedSums(seqs[0].Stats, false); got != want {
						t.Errorf("%s: batch of one priced %+v, unary run %+v", label, got, want)
					}

					cfg.EarlyAggregation = EarlyAggAuto
					mix, _ := check(label+" mixed", cfg, mixed)
					sharedJobs := 0
					for _, j := range mix.Jobs {
						if j.Shared {
							sharedJobs++
						}
						for _, i := range j.Queries {
							if combines[i] == j.Shared || mix.Results[i].EarlyAggregated != combines[i] {
								t.Errorf("%s mixed: query %d (combinable=%v) in job %+v, EarlyAggregated=%v",
									label, i, combines[i], j.Queries, mix.Results[i].EarlyAggregated)
							}
						}
					}
					if sharedJobs != 1 {
						t.Errorf("%s mixed: %d shared jobs, want 1", label, sharedJobs)
					}
				}
			}

			// Default sort budget: nothing spills, so every priced counter,
			// the spill byte counts included, must match the unary run.
			one, seqs := check("no-spill batch-of-one", Config{NumReducers: reducers, TempDir: t.TempDir()}, ws[:1])
			if got, want := pricedSums(one.Results[0].Stats, true), pricedSums(seqs[0].Stats, true); got != want {
				t.Errorf("no-spill batch of one priced %+v, unary run %+v", got, want)
			}
		})
	}
}

// pricedSums totals a job's priced counters — everything the cost model
// can see of it. spillBytes = false leaves out the spilled byte counts:
// under a forced-spill budget which pairs are resident at each flush
// follows arrival order, so those move by a few bytes between any two runs
// of the same job (eight unary Q1 runs with SortMemoryItems 2 spilled
// 22255 or 22256 bytes).
func pricedSums(js mr.JobStats, spillBytes bool) (sums struct {
	Map    costmodel.MapWork
	Reduce costmodel.ReduceWork
}) {
	add := func(dst, src any) {
		d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src)
		for f := 0; f < d.NumField(); f++ {
			d.Field(f).SetInt(d.Field(f).Int() + s.Field(f).Int())
		}
	}
	for _, t := range js.MapTasks {
		add(&sums.Map, t.MapWork)
	}
	for _, t := range js.ReduceTasks {
		add(&sums.Reduce, t.ReduceWork)
	}
	if !spillBytes {
		sums.Reduce.SpillBytes, sums.Reduce.GroupSpillBytes = 0, 0
	}
	return sums
}

// TestEvaluateBatchSharedScanCounters pins the sharing accounting: a batch
// of shareable queries runs as ONE shared job whose map tasks each record
// serving every query from a single scan, with bytes-saved proportional to
// the fan-out; against the same queries run one at a time it reads 1/n of
// the input and is priced below their sum. Two workloads: the suite's
// Q1–Q4, and many aggregates over one region set (the marginals scenario),
// whose plans agree on block geometry so the shuffle is shared as well.
func TestEvaluateBatchSharedScanCounters(t *testing.T) {
	su := workload.NewSuite()
	fine := su.Schema.MustGrain(
		cube.GrainSpec{Attr: "a1", Level: "value"},
		cube.GrainSpec{Attr: "t1", Level: "minute"},
	)
	var marginals []*workflow.Workflow
	for _, sp := range []struct {
		f    measure.Func
		attr string
	}{{measure.Sum, "a2"}, {measure.Count, ""}, {measure.Avg, "a4"}, {measure.Max, "a3"}} {
		w := workflow.New(su.Schema)
		if err := w.AddBasic("m", fine, measure.Spec{Func: sp.f}, sp.attr); err != nil {
			t.Fatal(err)
		}
		marginals = append(marginals, w)
	}
	records := su.Generate(3000, workload.Uniform, 1)
	ds := MemoryDataset(su.Schema, records, 6)

	for _, tc := range []struct {
		name        string
		ws          []*workflow.Workflow
		oneGeometry bool
	}{
		{"Q1-Q4", []*workflow.Workflow{mustQ(t, su, 1), mustQ(t, su, 2), mustQ(t, su, 3), mustQ(t, su, 4)}, false},
		{"marginals", marginals, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := len(tc.ws)
			eng, err := NewEngine(Config{NumReducers: 4, TempDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			batch, err := eng.EvaluateBatchContext(context.Background(), tc.ws, ds)
			if err != nil {
				t.Fatal(err)
			}
			if len(batch.Jobs) != 1 || !batch.Jobs[0].Shared {
				t.Fatalf("want one shared job for %d shareable queries, got %d jobs (shared=%v)",
					n, len(batch.Jobs), len(batch.Jobs) > 0 && batch.Jobs[0].Shared)
			}
			if got := len(batch.Jobs[0].Queries); got != n {
				t.Errorf("shared job has %d queries, want %d", got, n)
			}
			if got := len(batch.Jobs[0].Groups); tc.oneGeometry && got != 1 {
				t.Errorf("geometry groups = %d, want 1", got)
			}
			js := batch.Jobs[0].Stats
			if len(js.MapTasks) == 0 {
				t.Fatal("shared job ran no map tasks")
			}
			var batchBytes int64
			for _, mt := range js.MapTasks {
				if mt.SharedScanQueries != int64(n) {
					t.Errorf("map task %s: SharedScanQueries = %d, want %d", mt.Task, mt.SharedScanQueries, n)
				}
				if want := int64(n-1) * mt.BytesRead; mt.SharedScanBytesSaved != want {
					t.Errorf("map task %s: SharedScanBytesSaved = %d, want %d (%dx BytesRead)",
						mt.Task, mt.SharedScanBytesSaved, want, n-1)
				}
				batchBytes += mt.BytesRead
			}

			// Priced without the fixed per-task start-up, which alone would
			// decide one job against n: what is compared is the counted work.
			work := costmodel.DefaultCluster()
			work.Machine.TaskOverheadSec = 0
			var seqBytes int64
			var seqSeconds float64
			for i, w := range tc.ws {
				res, err := eng.EvaluateContext(context.Background(), w, ds)
				if err != nil {
					t.Fatalf("sequential run %d: %v", i, err)
				}
				for _, mt := range res.Stats.MapTasks {
					seqBytes += mt.BytesRead
				}
				seqSeconds += EstimateFromStats(work, res.Stats).Total()
			}
			if want := int64(n) * batchBytes; seqBytes != want {
				t.Errorf("sequential runs read %d bytes, want %d (%d x the batch's %d)", seqBytes, want, n, batchBytes)
			}
			if got := EstimateFromStats(work, js).Total(); got >= seqSeconds {
				t.Errorf("batch's work priced at %.4fs, not below the sequential runs' %.4fs", got, seqSeconds)
			}
		})
	}
}

// TestEvaluateBatchUnshareableFallsBack pins the fallback: queries the
// map side combines cannot share a scan, so every query runs alone and no
// job is marked shared.
func TestEvaluateBatchUnshareableFallsBack(t *testing.T) {
	su := workload.NewSuite()
	ea := earlyAggWorkflows(t, su)
	ws := []*workflow.Workflow{ea["ds0"], ea["ds1"]}
	records := su.Generate(800, workload.Uniform, 1)
	ds := MemoryDataset(su.Schema, records, 3)

	eng, err := NewEngine(Config{NumReducers: 2, EarlyAggregation: EarlyAggAuto, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := eng.EvaluateBatchContext(context.Background(), ws, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Jobs) != 2 {
		t.Fatalf("want 2 sequential jobs, got %d", len(batch.Jobs))
	}
	for i, j := range batch.Jobs {
		if j.Shared || !batch.Results[i].EarlyAggregated {
			t.Errorf("job %v: shared %v, early-aggregated %v; want alone and combined", j.Queries, j.Shared, batch.Results[i].EarlyAggregated)
		}
	}
}

// TestDecisionCacheEngineIntegration pins the hit/invalidation contract at
// the engine level: a repeated query hits, a structurally identical query
// with renamed measures hits, and a changed dataset cardinality or a
// changed measure set misses.
func TestDecisionCacheEngineIntegration(t *testing.T) {
	su := workload.NewSuite()
	records := su.Generate(2000, workload.Uniform, 1)
	ds := MemoryDataset(su.Schema, records, 4)

	dc := optimizer.NewDecisionCache(0)
	eng, err := NewEngine(Config{NumReducers: 4, DecisionCache: dc, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}

	res1, err := eng.Run(mustQ(t, su, 6), ds)
	if err != nil {
		t.Fatal(err)
	}
	if res1.PlanCached {
		t.Error("first run claims a cached plan")
	}
	res2, err := eng.Run(mustQ(t, su, 6), ds)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.PlanCached {
		t.Error("repeated query did not hit the decision cache")
	}
	if !res2.Plan.Key.Equal(res1.Plan.Key) || res2.Plan.ClusteringFactor != res1.Plan.ClusteringFactor {
		t.Errorf("cached plan differs: %v cf=%d vs %v cf=%d",
			res2.Plan.Key, res2.Plan.ClusteringFactor, res1.Plan.Key, res1.Plan.ClusteringFactor)
	}
	var hits int64
	for _, mt := range res2.Stats.MapTasks {
		hits += mt.PlanCacheHits
	}
	if hits != 1 {
		t.Errorf("PlanCacheHits across map tasks = %d, want 1", hits)
	}
	if canonicalOutput(res1) != canonicalOutput(res2) {
		t.Error("cached-plan run output differs from first run")
	}

	// Structurally identical query, different measure names: same
	// fingerprint, so it hits too.
	renamed := renameMeasures(t, mustQ(t, su, 6))
	res3, err := eng.Run(renamed, ds)
	if err != nil {
		t.Fatal(err)
	}
	if !res3.PlanCached {
		t.Error("renamed structurally identical query missed the decision cache")
	}

	// Changed dataset cardinality: different N, different decision key.
	smaller := MemoryDataset(su.Schema, records[:1000], 4)
	res4, err := eng.Run(mustQ(t, su, 6), smaller)
	if err != nil {
		t.Fatal(err)
	}
	if res4.PlanCached {
		t.Error("changed dataset cardinality still hit the decision cache")
	}

	// Changed measure set: different fingerprint.
	res5, err := eng.Run(mustQ(t, su, 2), ds)
	if err != nil {
		t.Fatal(err)
	}
	if res5.PlanCached {
		t.Error("different workflow hit the decision cache")
	}

	// Forced overrides bypass the cache entirely.
	forced, err := NewEngine(Config{NumReducers: 4, DecisionCache: dc, ForceCF: 1, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	res6, err := forced.Run(mustQ(t, su, 6), ds)
	if err != nil {
		t.Fatal(err)
	}
	if res6.PlanCached {
		t.Error("ForceCF run claims a cached plan")
	}
}

// TestEvaluateBatchDeduplicatesPlanning pins the batch × decision-cache
// interaction: structurally identical queries inside one batch plan once
// and hit the cache thereafter, with the tally stamped on the job's stats.
func TestEvaluateBatchDeduplicatesPlanning(t *testing.T) {
	su := workload.NewSuite()
	ws := []*workflow.Workflow{mustQ(t, su, 6), renameMeasures(t, mustQ(t, su, 6)), renameMeasures(t, mustQ(t, su, 6))}
	records := su.Generate(1500, workload.Uniform, 1)
	ds := MemoryDataset(su.Schema, records, 4)

	dc := optimizer.NewDecisionCache(0)
	eng, err := NewEngine(Config{NumReducers: 3, DecisionCache: dc, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := eng.EvaluateBatchContext(context.Background(), ws, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Jobs) != 1 || !batch.Jobs[0].Shared {
		t.Fatalf("want one shared job, got %d", len(batch.Jobs))
	}
	var hits int64
	for _, mt := range batch.Jobs[0].Stats.MapTasks {
		hits += mt.PlanCacheHits
	}
	if hits != 2 {
		t.Errorf("PlanCacheHits = %d, want 2 (three identical queries, one cold plan)", hits)
	}
	if batch.Results[0].PlanCached || !batch.Results[1].PlanCached || !batch.Results[2].PlanCached {
		t.Errorf("PlanCached flags = %v %v %v, want false true true",
			batch.Results[0].PlanCached, batch.Results[1].PlanCached, batch.Results[2].PlanCached)
	}
}

// mustQ fetches one of the suite's paper queries.
func mustQ(t *testing.T, su *workload.Suite, n int) *workflow.Workflow {
	t.Helper()
	w, err := su.Query(n)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// renameMeasures rebuilds a workflow with every measure name prefixed, so
// it is structurally identical but textually distinct.
func renameMeasures(t *testing.T, w *workflow.Workflow) *workflow.Workflow {
	t.Helper()
	out := workflow.New(w.Schema())
	ren := func(name string) string { return "x_" + name }
	for _, m := range w.Measures() {
		var err error
		switch m.Kind {
		case workflow.Basic:
			in := ""
			if m.InputAttr >= 0 {
				in = w.Schema().Attr(m.InputAttr).Name()
			}
			err = out.AddBasic(ren(m.Name), m.Grain, m.Agg, in)
		case workflow.Self:
			srcs := make([]string, len(m.Sources))
			for i, s := range m.Sources {
				srcs[i] = ren(s)
			}
			err = out.AddSelf(ren(m.Name), m.Grain, m.Expr, srcs...)
		case workflow.Rollup:
			err = out.AddRollup(ren(m.Name), m.Grain, m.Agg, ren(m.Sources[0]))
		case workflow.Inherit:
			err = out.AddInherit(ren(m.Name), m.Grain, ren(m.Sources[0]))
		case workflow.Sliding:
			err = out.AddSliding(ren(m.Name), m.Grain, m.Agg, ren(m.Sources[0]), m.Window...)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestPlanBatchIsTheRunsPlan: PlanBatchContext reports, without running a
// job, the headers EvaluateBatchContext's results then carry and the jobs
// it runs — partition and geometry groups — for a mixed batch where the
// combining queries go alone and the rest share a job, and for a batch
// planned from a sample.
func TestPlanBatchIsTheRunsPlan(t *testing.T) {
	su := workload.NewSuite()
	ds0, err := su.DS(0)
	if err != nil {
		t.Fatal(err)
	}
	ws := []*workflow.Workflow{su.Q1(), su.Q5(), ds0, su.Q6(), su.Q6()}
	ds := MemoryDataset(su.Schema, su.Generate(2000, workload.Uniform, 3), 4)
	for _, cfg := range []Config{
		{NumReducers: 4, EarlyAggregation: EarlyAggAuto},
		{NumReducers: 4, SkewMode: SkewSampling, MinBlocksPerReducer: 2},
	} {
		// One engine plans, another runs: each starts with an empty
		// decision cache, so the run plans exactly what the plan did.
		engine := func() *Engine {
			cfg := cfg
			cfg.TempDir, cfg.DecisionCache = t.TempDir(), optimizer.NewDecisionCache(0)
			eng, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}
		headers, jobs, err := engine().PlanBatchContext(context.Background(), ws, ds)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := engine().EvaluateBatchContext(context.Background(), ws, ds)
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range batch.Results {
			if !reflect.DeepEqual(headers[i], res.ResultHeader) {
				t.Errorf("%+v: query %d planned %+v, ran %+v", cfg, i, headers[i], res.ResultHeader)
			}
		}
		if len(jobs) != len(batch.Jobs) {
			t.Fatalf("%+v: planned %d jobs, ran %d", cfg, len(jobs), len(batch.Jobs))
		}
		for j, job := range jobs {
			ran := batch.Jobs[j]
			if !reflect.DeepEqual([]any{job.Queries, job.Shared, job.Groups}, []any{ran.Queries, ran.Shared, ran.Groups}) {
				t.Errorf("%+v: job %d planned %v/%v/%v, ran %v/%v/%v", cfg, j,
					job.Queries, job.Shared, job.Groups, ran.Queries, ran.Shared, ran.Groups)
			}
			if len(job.Stats.MapTasks) != 0 || job.Estimate.Total() != 0 {
				t.Errorf("%+v: planned job %d carries run stats", cfg, j)
			}
		}
		if cfg.EarlyAggregation == EarlyAggAuto && len(jobs) != 4 {
			t.Errorf("early auto: %d jobs, want q1, q5 and ds0 alone and q6,q6 shared", len(jobs))
		}
	}
}
