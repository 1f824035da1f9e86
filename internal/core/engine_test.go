package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/casm-project/casm/internal/blockstore"
	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/distkey"
	"github.com/casm-project/casm/internal/localeval"
	"github.com/casm-project/casm/internal/measure"
	"github.com/casm-project/casm/internal/workflow"
	"github.com/casm-project/casm/internal/workload"
)

// oracle evaluates the workflow over the whole dataset in one block —
// the reference the parallel engine must match exactly (the paper's rules
// 1 and 2: the union of local results is the final answer, without
// duplicates).
func oracle(t testing.TB, w *workflow.Workflow, records []cube.Record) map[string]map[string]float64 {
	t.Helper()
	ev, err := localeval.New(w)
	if err != nil {
		t.Fatal(err)
	}
	cp := make([]cube.Record, len(records))
	for i, r := range records {
		cp[i] = r.Clone()
	}
	results, _, err := ev.Evaluate(cp, localeval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]map[string]float64{}
	for _, r := range results {
		mm := out[r.Measure]
		if mm == nil {
			mm = map[string]float64{}
			out[r.Measure] = mm
		}
		mm[r.Region.Key()] = r.Value
	}
	return out
}

func flatten(res *Result) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for name, ms := range res.Measures {
		mm := map[string]float64{}
		out[name] = mm
		for _, m := range ms {
			mm[m.Region.Key()] = m.Value
		}
	}
	return out
}

// compare asserts the engine result equals the oracle exactly (same
// measure records, no duplicates, no extras, values within float noise).
func compare(t *testing.T, label string, want, got map[string]map[string]float64) {
	t.Helper()
	for name, wm := range want {
		gm := got[name]
		if len(gm) != len(wm) {
			t.Errorf("%s: measure %s: got %d records, want %d", label, name, len(gm), len(wm))
			continue
		}
		for k, wv := range wm {
			gv, ok := gm[k]
			if !ok {
				t.Errorf("%s: measure %s: missing region", label, name)
				break
			}
			if math.Abs(gv-wv) > 1e-9*math.Max(1, math.Abs(wv)) {
				t.Errorf("%s: measure %s: value %v, want %v", label, name, gv, wv)
				break
			}
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: unexpected measure %s in output", label, name)
		}
	}
}

func runEngine(t *testing.T, cfg Config, w *workflow.Workflow, ds *Dataset) *Result {
	t.Helper()
	cfg.TempDir = t.TempDir()
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(w, ds)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEngineMatchesOracleAllQueries is the central correctness test: for
// every paper query, the parallel result equals the single-block result.
func TestEngineMatchesOracleAllQueries(t *testing.T) {
	su := workload.NewSuite()
	records := su.Generate(4000, workload.Uniform, 42)
	ds := MemoryDataset(su.Schema, records, 8)
	for n := 1; n <= 6; n++ {
		w, err := su.Query(n)
		if err != nil {
			t.Fatal(err)
		}
		want := oracle(t, w, records)
		res := runEngine(t, Config{NumReducers: 7}, w, ds)
		compare(t, su.Schema.FormatGrain(su.Schema.GrainAll())+" Q"+string(rune('0'+n)), want, flatten(res))
		if res.TotalRecords() == 0 {
			t.Errorf("Q%d produced no results", n)
		}
		if res.Estimate.Total() <= 0 {
			t.Errorf("Q%d estimate not positive", n)
		}
	}
}

func TestEngineMatchesOracleSkewedData(t *testing.T) {
	su := workload.NewSuite()
	records := su.Generate(3000, workload.SkewedTime, 7)
	ds := MemoryDataset(su.Schema, records, 6)
	for _, n := range []int{2, 5, 6} {
		w, _ := su.Query(n)
		want := oracle(t, w, records)
		res := runEngine(t, Config{NumReducers: 5}, w, ds)
		compare(t, "skewed", want, flatten(res))
	}
}

func TestEngineClusteringFactorSweep(t *testing.T) {
	// Correctness must hold for every clustering factor, including the
	// degenerate cf=1 (maximum duplication) and very large cf.
	su := workload.NewSuite()
	records := su.Generate(2500, workload.Uniform, 3)
	ds := MemoryDataset(su.Schema, records, 5)
	w := su.Q5()
	want := oracle(t, w, records)
	for _, cf := range []int64{1, 2, 5, 10, 100, 480} {
		res := runEngine(t, Config{NumReducers: 4, ForceCF: cf}, w, ds)
		compare(t, "cf sweep", want, flatten(res))
		if res.Plan.ClusteringFactor != cf {
			t.Errorf("cf = %d, want %d", res.Plan.ClusteringFactor, cf)
		}
	}
}

func TestEngineSortModes(t *testing.T) {
	su := workload.NewSuite()
	records := su.Generate(2000, workload.Uniform, 9)
	ds := MemoryDataset(su.Schema, records, 4)
	w := su.Q6()
	want := oracle(t, w, records)

	two := runEngine(t, Config{NumReducers: 4, SortMode: TwoPassSort}, w, ds)
	comb := runEngine(t, Config{NumReducers: 4, SortMode: CombinedKeySort}, w, ds)
	compare(t, "two-pass", want, flatten(two))
	compare(t, "combined-key", want, flatten(comb))

	var twoSort, combSort int64
	for _, r := range two.Stats.ReduceTasks {
		twoSort += r.GroupSortItems
	}
	for _, r := range comb.Stats.ReduceTasks {
		combSort += r.GroupSortItems
	}
	if twoSort == 0 {
		t.Error("two-pass mode did not count in-group sorting")
	}
	if combSort != 0 {
		t.Errorf("combined-key mode still sorted %d items in groups", combSort)
	}
}

func TestEngineEarlyAggregation(t *testing.T) {
	su := workload.NewSuite()
	records := su.Generate(3000, workload.Uniform, 11)
	ds := MemoryDataset(su.Schema, records, 6)
	for i := 0; i <= 2; i++ {
		w, err := su.DS(i)
		if err != nil {
			t.Fatal(err)
		}
		want := oracle(t, w, records)
		off := runEngine(t, Config{NumReducers: 4, EarlyAggregation: EarlyAggOff}, w, ds)
		on := runEngine(t, Config{NumReducers: 4, EarlyAggregation: EarlyAggAuto}, w, ds)
		compare(t, "earlyagg-off", want, flatten(off))
		compare(t, "earlyagg-on", want, flatten(on))
		if !on.EarlyAggregated || off.EarlyAggregated {
			t.Errorf("DS%d: early aggregation flags wrong: on=%v off=%v", i, on.EarlyAggregated, off.EarlyAggregated)
		}
		// DS0's coarse grouping must shrink the shuffle dramatically.
		if i == 0 && on.Stats.Shuffled >= off.Stats.Shuffled/4 {
			t.Errorf("DS0: combiner shuffled %d bytes vs %d without; expected >4x reduction",
				on.Stats.Shuffled, off.Stats.Shuffled)
		}
		// DS2's fine grouping must shuffle at least as much as raw records.
		if i == 2 && on.Stats.Shuffled < off.Stats.Shuffled {
			t.Logf("DS2: combiner shuffled %d vs %d raw (fine grain: no reduction expected)",
				on.Stats.Shuffled, off.Stats.Shuffled)
		}
	}
}

// TestEarlyAggregationAutoFallsBackOnHolistic: a workflow the combiner
// cannot serve ships raw records, and says so.
func TestEarlyAggregationAutoFallsBackOnHolistic(t *testing.T) {
	su := workload.NewSuite()
	records := su.Generate(500, workload.Uniform, 1)
	ds := MemoryDataset(su.Schema, records, 2)
	w := su.Q6() // q6m1 is a median: holistic
	res := runEngine(t, Config{NumReducers: 2, EarlyAggregation: EarlyAggAuto}, w, ds)
	if res.EarlyAggregated {
		t.Error("auto mode aggregated a holistic workflow")
	}
	compare(t, "auto-fallback", oracle(t, w, records), flatten(res))
}

func TestEngineStages(t *testing.T) {
	su := workload.NewSuite()
	records := su.Generate(1000, workload.Uniform, 13)
	ds := MemoryDataset(su.Schema, records, 2)
	w := su.Q5()

	mapOnly := runEngine(t, Config{NumReducers: 2, Stage: StageMapOnly}, w, ds)
	shuffle := runEngine(t, Config{NumReducers: 2, Stage: StageShuffle}, w, ds)
	sorted := runEngine(t, Config{NumReducers: 2, Stage: StageSort}, w, ds)
	full := runEngine(t, Config{NumReducers: 2, Stage: StageFull}, w, ds)

	if mapOnly.TotalRecords() != 0 || shuffle.TotalRecords() != 0 || sorted.TotalRecords() != 0 {
		t.Error("stage-stopped runs produced output")
	}
	if full.TotalRecords() == 0 {
		t.Error("full run produced no output")
	}
	// Simulated cost must be monotone across stages (Figure 4(d) shape).
	tm, ts, tso, tf := mapOnly.Estimate.Total(), shuffle.Estimate.Total(), sorted.Estimate.Total(), full.Estimate.Total()
	if !(tm < ts && ts < tso && tso <= tf) {
		t.Errorf("stage costs not monotone: map=%.2f mr=%.2f sort=%.2f full=%.2f", tm, ts, tso, tf)
	}
}

func TestEngineSamplingPlanCorrect(t *testing.T) {
	su := workload.NewSuite()
	records := su.Generate(3000, workload.SkewedTime, 21)
	ds := MemoryDataset(su.Schema, records, 6)
	w := su.Q5()
	want := oracle(t, w, records)
	res := runEngine(t, Config{NumReducers: 4, SkewMode: SkewSampling, SampleSize: 500}, w, ds)
	compare(t, "sampling", want, flatten(res))
	if !res.SampledPlan {
		t.Error("plan not marked as sampled")
	}
	if res.SampleSeconds <= 0 {
		t.Error("sampling cost not accounted")
	}
}

func TestEngineMinBlocksHeuristic(t *testing.T) {
	su := workload.NewSuite()
	records := su.Generate(2000, workload.Uniform, 17)
	ds := MemoryDataset(su.Schema, records, 4)
	w := su.Q5()
	want := oracle(t, w, records)
	res := runEngine(t, Config{NumReducers: 4, MinBlocksPerReducer: 2}, w, ds)
	compare(t, "minblocks", want, flatten(res))
	if res.Plan.Key.IsOverlapping() && res.Plan.Blocks < 2*4 {
		t.Errorf("heuristic violated: %d blocks", res.Plan.Blocks)
	}
}

func TestEngineForceKey(t *testing.T) {
	// Forcing the non-overlapping fallback key (annotated attr at ALL)
	// must still yield the exact answer — overlap is an optimization, not
	// a correctness requirement.
	su := workload.NewSuite()
	records := su.Generate(1500, workload.Uniform, 23)
	ds := MemoryDataset(su.Schema, records, 3)
	w := su.Q5()
	minimal, _, err := distkey.Derive(w)
	if err != nil {
		t.Fatal(err)
	}
	t1, _ := su.Schema.AttrIndex("t1")
	rolled := distkey.RollUpAttr(su.Schema, minimal, t1)
	res := runEngine(t, Config{NumReducers: 3, ForceKey: &rolled}, w, ds)
	compare(t, "forced key", oracle(t, w, records), flatten(res))
	if res.Plan.Key.IsOverlapping() {
		t.Error("rolled-up key is overlapping")
	}
}

func TestEngineValidation(t *testing.T) {
	if _, err := NewEngine(Config{}); err == nil {
		t.Error("zero reducers accepted")
	}
	su := workload.NewSuite()
	ds := MemoryDataset(su.Schema, su.Generate(100, workload.Uniform, 1), 1)
	eng, _ := NewEngine(Config{NumReducers: 2, ForceCF: 7})
	if _, err := eng.Run(su.Q1(), ds); err == nil {
		t.Error("ForceCF on non-overlapping plan accepted")
	}
}

func TestCountRecords(t *testing.T) {
	su := workload.NewSuite()
	records := su.Generate(321, workload.Uniform, 2)
	ds := MemoryDataset(su.Schema, records, 4)
	n, err := CountRecords(context.Background(), ds)
	if err != nil || n != 321 {
		t.Fatalf("count = %d, %v", n, err)
	}
	// Engine plans correctly when NumRecords is unknown.
	ds.NumRecords = 0
	res := runEngine(t, Config{NumReducers: 2}, su.Q1(), ds)
	if res.TotalRecords() == 0 {
		t.Error("no results with counted cardinality")
	}
}

func TestBlockPrefix(t *testing.T) {
	coords := []int64{5, 1234567, 0, 88}
	block := cube.EncodeCoords(coords)
	key := []byte(block + "suffix-bytes")
	if got := string(key[:blockPrefixLen(key, 4)]); got != block {
		t.Errorf("blockPrefixLen = %q, want %q", got, block)
	}
	if got := string(block[:blockPrefixLen([]byte(block), 4)]); got != block {
		t.Errorf("exact-length prefix = %q", got)
	}
}

// TestBaselineMatchesEngine: the component-at-a-time plan must produce
// exactly the same answer as the single-job plan, and (the introduction's
// claim) cost substantially more for multi-component queries.
func TestBaselineMatchesEngine(t *testing.T) {
	su := workload.NewSuite()
	records := su.Generate(2500, workload.Uniform, 29)
	ds := MemoryDataset(su.Schema, records, 5)
	for _, n := range []int{1, 2, 3, 4, 5, 6} {
		w, _ := su.Query(n)
		eng, err := NewEngine(Config{NumReducers: 4, TempDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		fast, err := eng.Run(w, ds)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := eng.RunComponentAtATimeContext(context.Background(), w, ds)
		if err != nil {
			t.Fatalf("Q%d baseline: %v", n, err)
		}
		compare(t, "baseline", flatten(fast), flatten(naive))
		if n >= 2 && naive.Estimate.Total() <= fast.Estimate.Total() {
			t.Errorf("Q%d: naive plan (%.1fs) not slower than engine (%.1fs)",
				n, naive.Estimate.Total(), fast.Estimate.Total())
		}
	}
}

// TestEngineMultiAnnotatedKey executes a key with two annotated
// attributes (beyond the paper's single-annotation implementation): two
// sliding measures over different ordered attributes make the minimal key
// doubly annotated; forcing it must still produce the oracle answer.
func TestEngineMultiAnnotatedKey(t *testing.T) {
	su := workload.NewSuite()
	s := su.Schema
	w := workflow.New(s)
	g := s.MustGrain(cube.GrainSpec{Attr: "a1", Level: "low"}, cube.GrainSpec{Attr: "t1", Level: "hour"})
	a1, _ := s.AttrIndex("a1")
	t1, _ := s.AttrIndex("t1")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.AddBasic("b", g, mustSum(), "a2"))
	must(w.AddSliding("wt", g, mustSum(), "b", workflow.RangeAnn{Attr: t1, Low: -3, High: 0}))
	must(w.AddSliding("wv", g, mustSum(), "b", workflow.RangeAnn{Attr: a1, Low: -1, High: 1}))

	minimal, _, err := distkey.Derive(w)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(minimal.AnnotatedAttrs()); got != 2 {
		t.Fatalf("minimal key has %d annotations, want 2: %s", got, minimal.Format(s))
	}
	records := su.Generate(2000, workload.Uniform, 61)
	ds := MemoryDataset(s, records, 4)
	want := oracle(t, w, records)
	for _, cf := range []int64{1, 3} {
		res := runEngine(t, Config{NumReducers: 4, ForceKey: &minimal, ForceCF: cf}, w, ds)
		compare(t, "multi-annotated", want, flatten(res))
	}
}

func mustSum() measure.Spec { return measure.Spec{Func: measure.Sum} }

// TestEngineWithMappedHierarchy runs a full parallel evaluation over a
// schema whose nominal attribute uses an irregular, table-driven
// hierarchy, verifying the engine handles non-uniform roll-ups.
func TestEngineWithMappedHierarchy(t *testing.T) {
	s := cube.MustSchema(
		cube.MustMappedAttribute("product", 10,
			cube.MappedLevel{Name: "category", Assign: []int64{0, 0, 1, 1, 1, 1, 2, 2, 2, 2}},
			cube.MappedLevel{Name: "division", Assign: []int64{0, 0, 0, 0, 0, 0, 1, 1, 1, 1}},
		),
		cube.MustAttribute("amount", cube.Numeric, 100, cube.Level{Name: "v", Span: 1}),
		cube.TimeAttribute("time", 2),
	)
	w := workflow.New(s)
	catHour := s.MustGrain(cube.GrainSpec{Attr: "product", Level: "category"}, cube.GrainSpec{Attr: "time", Level: "hour"})
	divDay := s.MustGrain(cube.GrainSpec{Attr: "product", Level: "division"}, cube.GrainSpec{Attr: "time", Level: "day"})
	ti, _ := s.AttrIndex("time")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.AddBasic("rev", catHour, measure.Spec{Func: measure.Sum}, "amount"))
	must(w.AddRollup("divDaily", divDay, measure.Spec{Func: measure.Sum}, "rev"))
	must(w.AddSliding("trend", catHour, measure.Spec{Func: measure.Avg}, "rev",
		workflow.RangeAnn{Attr: ti, Low: -2, High: 0}))

	rng := rand.New(rand.NewSource(71))
	records := make([]cube.Record, 2500)
	for i := range records {
		records[i] = cube.Record{rng.Int63n(10), rng.Int63n(100), rng.Int63n(2 * 86400)}
	}
	ds := MemoryDataset(s, records, 5)
	want := oracle(t, w, records)
	res := runEngine(t, Config{NumReducers: 4}, w, ds)
	compare(t, "mapped hierarchy", want, flatten(res))
	// The rollup crosses the irregular category→division boundary; make
	// sure both divisions actually appear.
	if len(res.Measures["divDaily"]) != 2*2 {
		t.Errorf("divDaily records = %d, want 4 (2 divisions x 2 days)", len(res.Measures["divDaily"]))
	}
}

func TestSaveLoadResults(t *testing.T) {
	su := workload.NewSuite()
	records := su.Generate(1200, workload.Uniform, 81)
	ds := MemoryDataset(su.Schema, records, 3)
	w := su.Q3()
	res := runEngine(t, Config{NumReducers: 3}, w, ds)

	st, err := blockstore.Open(blockstore.Config{Dir: t.TempDir(), BlockSize: 2048, Replication: 2, NumNodes: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveResults(st, "out", res, 2048); err != nil {
		t.Fatal(err)
	}
	back, err := LoadResults(st, "out", w)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(res.Measures) {
		t.Fatalf("measures: %d vs %d", len(back), len(res.Measures))
	}
	for name, want := range res.Measures {
		got := back[name]
		if len(got) != len(want) {
			t.Fatalf("%s: %d vs %d records", name, len(got), len(want))
		}
		index := map[string]float64{}
		for _, r := range got {
			index[r.Region.Key()] = r.Value
		}
		for _, r := range want {
			if v, ok := index[r.Region.Key()]; !ok || v != r.Value {
				t.Fatalf("%s: record mismatch (%v vs %v)", name, v, r.Value)
			}
		}
	}
	// Loading against a workflow missing the measures fails loudly.
	other := workflow.New(su.Schema)
	if err := other.AddBasic("unrelated", su.Schema.GrainAll(), measure.Spec{Func: measure.Count}, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadResults(st, "out", other); err == nil {
		t.Error("foreign workflow accepted")
	}
}
