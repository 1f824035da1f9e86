package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/casm-project/casm/internal/optimizer"
	"github.com/casm-project/casm/internal/transport"
	"github.com/casm-project/casm/internal/workflow"
	"github.com/casm-project/casm/internal/workload"
)

// TestEvaluateBatchMatchesSequentialByteIdentical is the shared-scan
// property test: for random workflow sets, a batched evaluation must be
// byte-identical, per query, to running each query alone — across both
// transports, both sort modes, forced reduce-side spills, and morsel mode
// on/off. stableBits workflows keep rollup folds order-independent, so
// "identical" really is canonical-bytes equality, not float tolerance.
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

			for _, tp := range []struct {
				name    string
				factory transport.Factory
			}{
				{"channel", nil},
				{"tcp", transport.TCPFactory(64)},
			} {
				for _, sortMode := range []SortMode{TwoPassSort, CombinedKeySort} {
					for _, morselBytes := range []int{0, 512} {
						label := fmt.Sprintf("transport=%s sort=%d morsel=%d", tp.name, sortMode, morselBytes)
						cfg := Config{
							NumReducers:     reducers,
							Transport:       tp.factory,
							SortMode:        sortMode,
							SortMemoryItems: 2, // force reduce-side spills
							MorselBytes:     morselBytes,
							TempDir:         t.TempDir(),
						}
						eng, err := NewEngine(cfg)
						if err != nil {
							t.Fatal(err)
						}
						batch, err := eng.EvaluateBatch(ws, ds)
						if err != nil {
							t.Fatalf("%s: batch: %v", label, err)
						}
						for i, w := range ws {
							seq, err := eng.Run(w, ds)
							if err != nil {
								t.Fatalf("%s: sequential query %d: %v", label, i, err)
							}
							if got, want := canonicalOutput(batch.Results[i]), canonicalOutput(seq); got != want {
								t.Errorf("%s: query %d: batched output differs byte-wise from sequential\nbatched:\n%s\nsequential:\n%s",
									label, i, got, want)
							}
						}
					}
				}
			}
		})
	}
}

// TestEvaluateBatchSharedScanCounters pins the sharing accounting: a batch
// of shareable queries runs as ONE shared job whose map tasks each record
// serving every query from a single scan, with bytes-saved proportional to
// the fan-out.
func TestEvaluateBatchSharedScanCounters(t *testing.T) {
	su := workload.NewSuite()
	ws := []*workflow.Workflow{mustQ(t, su, 1), mustQ(t, su, 2), mustQ(t, su, 3), mustQ(t, su, 4)}
	records := su.Generate(3000, workload.Uniform, 1)
	ds := MemoryDataset(su.Schema, records, 6)

	eng, err := NewEngine(Config{NumReducers: 4, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := eng.EvaluateBatch(ws, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Jobs) != 1 || !batch.Jobs[0].Shared {
		t.Fatalf("want one shared job for 4 shareable queries, got %d jobs (shared=%v)",
			len(batch.Jobs), len(batch.Jobs) > 0 && batch.Jobs[0].Shared)
	}
	if got := batch.SharedScanQueries(); got != 4 {
		t.Errorf("SharedScanQueries() = %d, want 4", got)
	}
	js := batch.Jobs[0].Stats
	if len(js.MapTasks) == 0 {
		t.Fatal("shared job ran no map tasks")
	}
	for _, mt := range js.MapTasks {
		if mt.SharedScanQueries != 4 {
			t.Errorf("map task %s: SharedScanQueries = %d, want 4", mt.Task, mt.SharedScanQueries)
		}
		if want := 3 * mt.BytesRead; mt.SharedScanBytesSaved != want {
			t.Errorf("map task %s: SharedScanBytesSaved = %d, want %d (3x BytesRead)",
				mt.Task, mt.SharedScanBytesSaved, want)
		}
	}
}

// TestEvaluateBatchUnshareableFallsBack pins the fallback: stage-stopped
// engines cannot share a scan, so every query runs alone and no job is
// marked shared.
func TestEvaluateBatchUnshareableFallsBack(t *testing.T) {
	su := workload.NewSuite()
	ws := []*workflow.Workflow{mustQ(t, su, 1), mustQ(t, su, 2)}
	records := su.Generate(800, workload.Uniform, 1)
	ds := MemoryDataset(su.Schema, records, 3)

	eng, err := NewEngine(Config{NumReducers: 2, Stage: StageSort, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := eng.EvaluateBatch(ws, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Jobs) != 2 {
		t.Fatalf("want 2 sequential jobs, got %d", len(batch.Jobs))
	}
	for _, j := range batch.Jobs {
		if j.Shared {
			t.Errorf("stage-stopped job %v marked shared", j.Queries)
		}
	}
	if got := batch.SharedScanQueries(); got != 0 {
		t.Errorf("SharedScanQueries() = %d, want 0", got)
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
	batch, err := eng.EvaluateBatch(ws, ds)
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
