package optimizer

import (
	"math/rand"
	"testing"

	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/distkey"
	"github.com/casm-project/casm/internal/measure"
	"github.com/casm-project/casm/internal/workflow"
)

func testSchema(t testing.TB) *cube.Schema {
	t.Helper()
	return cube.MustSchema(
		cube.MustAttribute("k", cube.Nominal, 1000,
			cube.Level{Name: "word", Span: 1},
			cube.Level{Name: "group", Span: 50},
		),
		cube.MustAttribute("v", cube.Numeric, 256,
			cube.Level{Name: "value", Span: 1},
			cube.Level{Name: "band", Span: 16},
		),
		cube.TimeAttribute("t", 20),
	)
}

// slidingWorkflow has a sliding window on t and (optionally) one on v, so
// the minimal key annotates one or two attributes.
func slidingWorkflow(t testing.TB, twoWindows bool) *workflow.Workflow {
	t.Helper()
	s := testSchema(t)
	w := workflow.New(s)
	g := s.MustGrain(cube.GrainSpec{Attr: "v", Level: "value"}, cube.GrainSpec{Attr: "t", Level: "hour"})
	ti, _ := s.AttrIndex("t")
	vi, _ := s.AttrIndex("v")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.AddBasic("b", g, measure.Spec{Func: measure.Sum}, "v"))
	must(w.AddSliding("slT", g, measure.Spec{Func: measure.Avg}, "b",
		workflow.RangeAnn{Attr: ti, Low: -5, High: 0}))
	if twoWindows {
		must(w.AddSliding("slV", g, measure.Spec{Func: measure.Avg}, "b",
			workflow.RangeAnn{Attr: vi, Low: -2, High: 2}))
	}
	return w
}

func noSiblingWorkflow(t testing.TB) *workflow.Workflow {
	t.Helper()
	s := testSchema(t)
	w := workflow.New(s)
	g := s.MustGrain(cube.GrainSpec{Attr: "k", Level: "word"}, cube.GrainSpec{Attr: "t", Level: "hour"})
	if err := w.AddBasic("b", g, measure.Spec{Func: measure.Count}, ""); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestOptimizeNonOverlapping(t *testing.T) {
	w := noSiblingWorkflow(t)
	plan, err := Optimize(w, Config{NumReducers: 50, TotalRecords: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Key.IsOverlapping() || plan.ClusteringFactor != 1 {
		t.Fatalf("plan = %s cf=%d", plan.Key.Format(w.Schema()), plan.ClusteringFactor)
	}
	if len(plan.Candidates) != 1 {
		t.Errorf("candidates = %d, want 1 (the minimal key)", len(plan.Candidates))
	}
	if plan.PredictedWorkload < 1_000_000/50 {
		t.Errorf("predicted workload %v below perfect balance", plan.PredictedWorkload)
	}
}

func TestOptimizeSingleWindow(t *testing.T) {
	w := slidingWorkflow(t, false)
	s := w.Schema()
	plan, err := Optimize(w, Config{NumReducers: 50, TotalRecords: 10_000_000})
	if err != nil {
		t.Fatal(err)
	}
	ti, _ := s.AttrIndex("t")
	if got := plan.Key.AnnotatedAttrs(); len(got) != 1 || got[0] != ti {
		// The non-overlapping fallback could also win; it must then be at ALL on t.
		if !plan.Key.IsOverlapping() {
			t.Logf("optimizer chose non-overlapping fallback: %s", plan.Key.Format(s))
		} else {
			t.Fatalf("unexpected annotation set %v for key %s", got, plan.Key.Format(s))
		}
	}
	if plan.ClusteringFactor < 1 {
		t.Fatalf("cf = %d", plan.ClusteringFactor)
	}
	// Candidates include the hour-level annotated key, coarser day-level
	// variant, and the non-overlapping fallback.
	if len(plan.Candidates) < 3 {
		t.Errorf("candidates = %d, want >= 3", len(plan.Candidates))
	}
	// The chosen plan must beat cf=1 on the same key when overlapping.
	if plan.Key.IsOverlapping() && plan.ClusteringFactor > 1 {
		w1 := PredictWorkload(s, plan.Key, 1, Config{NumReducers: 50, TotalRecords: 10_000_000})
		if plan.PredictedWorkload >= w1 {
			t.Errorf("optimal cf workload %v not better than cf=1 %v", plan.PredictedWorkload, w1)
		}
	}
}

func TestOptimizeTwoWindowsProducesSingleAnnotatedCandidates(t *testing.T) {
	w := slidingWorkflow(t, true)
	s := w.Schema()
	minimal, _, err := distkey.Derive(w)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(minimal.AnnotatedAttrs()); got != 2 {
		t.Fatalf("minimal key annotations = %d, want 2 (%s)", got, minimal.Format(s))
	}
	plan, err := Optimize(w, Config{NumReducers: 50, TotalRecords: 10_000_000})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range plan.Candidates {
		if len(c.Key.AnnotatedAttrs()) > 1 {
			t.Errorf("candidate %d has %d annotations: %s", i, len(c.Key.AnnotatedAttrs()), c.Key.Format(s))
		}
		// Every candidate must be feasible: it generalizes the minimal key.
		if !distkey.Generalizes(s, c.Key, minimal) {
			t.Errorf("candidate %d %s does not generalize minimal %s", i, c.Key.Format(s), minimal.Format(s))
		}
	}
	if len(plan.Candidates) < 4 {
		t.Errorf("candidates = %d, want several", len(plan.Candidates))
	}
	if plan.Explain(s) == "" {
		t.Error("empty Explain")
	}
}

func TestMinBlocksHeuristicCapsCF(t *testing.T) {
	w := slidingWorkflow(t, false)
	base, err := Optimize(w, Config{NumReducers: 50, TotalRecords: 100_000_000})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := Optimize(w, Config{NumReducers: 50, TotalRecords: 100_000_000, MinBlocksPerReducer: 4})
	if err != nil {
		t.Fatal(err)
	}
	if capped.Blocks < 4*50 && capped.Key.IsOverlapping() {
		t.Errorf("2Blocks-style heuristic violated: %d blocks for 50 reducers", capped.Blocks)
	}
	if capped.ClusteringFactor > base.ClusteringFactor {
		t.Errorf("capped cf %d exceeds uncapped %d", capped.ClusteringFactor, base.ClusteringFactor)
	}
}

func TestOptimizeValidation(t *testing.T) {
	w := noSiblingWorkflow(t)
	if _, err := Optimize(w, Config{NumReducers: 0, TotalRecords: 10}); err == nil {
		t.Error("zero reducers accepted")
	}
	if _, err := Optimize(w, Config{NumReducers: 2, TotalRecords: 0}); err == nil {
		t.Error("zero records accepted")
	}
}

// TestSimulatedDispatchSeesSkew: dispatching a sample reproduces the load
// imbalance of the data — near 1 (heaviest over mean reducer) on uniform
// records, far above it when the key attributes are skewed.
func TestSimulatedDispatchSeesSkew(t *testing.T) {
	imbalance := func(loads []float64) float64 {
		var sum, mx float64
		for _, l := range loads {
			sum += l
			mx = max(mx, l)
		}
		return mx / (sum / float64(len(loads)))
	}
	w := slidingWorkflow(t, false)
	s := w.Schema()
	plan, err := Optimize(w, Config{NumReducers: 10, TotalRecords: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	uniform := make([]cube.Record, 3000)
	skewed := make([]cube.Record, 3000)
	ti, _ := s.AttrIndex("t")
	for i := range uniform {
		uniform[i] = cube.Record{rng.Int63n(1000), rng.Int63n(256), rng.Int63n(20 * 86400)}
		// Skew on both key attributes: a handful of v values, first hour only.
		skewed[i] = cube.Record{rng.Int63n(1000), rng.Int63n(4), rng.Int63n(500)}
		_ = ti
	}
	lu, err := SimulatedDispatch(s, plan.Key, plan.ClusteringFactor, uniform, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := SimulatedDispatch(s, plan.Key, plan.ClusteringFactor, skewed, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if imbalance(lu) > 2 {
		t.Errorf("uniform data dispatched unevenly: %v", lu)
	}
	if imbalance(ls) <= 2 {
		t.Errorf("temporally skewed data dispatched evenly: %v", ls)
	}
}

func TestChooseBySamplingPrefersBalancedPlan(t *testing.T) {
	w := slidingWorkflow(t, false)
	s := w.Schema()
	plan, err := Optimize(w, Config{NumReducers: 10, TotalRecords: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	skewed := make([]cube.Record, 4000)
	for i := range skewed {
		// Temporal skew: all records in the first 5 of 20 days.
		skewed[i] = cube.Record{rng.Int63n(1000), rng.Int63n(256), rng.Int63n(5 * 86400)}
	}
	choice, err := ChooseBySampling(s, plan, skewed, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(choice.MaxLoads) != len(plan.Candidates) {
		t.Fatalf("MaxLoads = %d, want %d", len(choice.MaxLoads), len(plan.Candidates))
	}
	// The chosen plan's simulated max load must be minimal among candidates.
	chosenIdx := -1
	for i, c := range plan.Candidates {
		if c.Key.Equal(choice.Plan.Key) && c.ClusteringFactor == choice.Plan.ClusteringFactor {
			chosenIdx = i
			break
		}
	}
	if chosenIdx < 0 {
		t.Fatal("chosen plan not among candidates")
	}
	for i, l := range choice.MaxLoads {
		if l < choice.MaxLoads[chosenIdx] {
			t.Errorf("candidate %d has lower simulated load %v than chosen %v", i, l, choice.MaxLoads[chosenIdx])
		}
	}
	// Empty sample: model plan passes through.
	c2, err := ChooseBySampling(s, plan, nil, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !c2.Plan.Key.Equal(plan.Key) {
		t.Error("empty sample changed the plan")
	}
}
