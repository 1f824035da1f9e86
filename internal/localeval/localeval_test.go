package localeval

import (
	"math"
	"math/rand"
	"testing"

	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/measure"
	"github.com/casm-project/casm/internal/workflow"
)

// schema: one nominal key (k), one value attribute (v), one time attribute
// with minute/hour/day hierarchy over 2 days.
func testSchema(t testing.TB) *cube.Schema {
	t.Helper()
	return cube.MustSchema(
		cube.MustAttribute("k", cube.Nominal, 10,
			cube.Level{Name: "word", Span: 1},
			cube.Level{Name: "group", Span: 5},
		),
		cube.MustAttribute("v", cube.Numeric, 1000, cube.Level{Name: "value", Span: 1}),
		cube.TimeAttribute("t", 2),
	)
}

// rec builds a record (k, v, t) with t given in seconds.
func rec(k, v, tsec int64) cube.Record { return cube.Record{k, v, tsec} }

func results(t *testing.T, w *workflow.Workflow, records []cube.Record) map[string]map[string]float64 {
	t.Helper()
	e, err := New(w)
	if err != nil {
		t.Fatal(err)
	}
	out, stats, err := e.Evaluate(records, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ScannedRecords != int64(len(records)) {
		t.Fatalf("scanned %d, want %d", stats.ScannedRecords, len(records))
	}
	if stats.Results != int64(len(out)) {
		t.Fatalf("stats.Results %d != len(out) %d", stats.Results, len(out))
	}
	byMeasure := map[string]map[string]float64{}
	for _, r := range out {
		mm := byMeasure[r.Measure]
		if mm == nil {
			mm = map[string]float64{}
			byMeasure[r.Measure] = mm
		}
		key := r.Region.Key()
		if _, dup := mm[key]; dup {
			t.Fatalf("duplicate result for %s %v", r.Measure, r.Region)
		}
		mm[key] = r.Value
	}
	return byMeasure
}

func regionKey(s *cube.Schema, g cube.Grain, sample cube.Record) string {
	return s.RegionOf(sample, g).Key()
}

func TestBasicAggregation(t *testing.T) {
	s := testSchema(t)
	w := workflow.New(s)
	g := s.MustGrain(cube.GrainSpec{Attr: "k", Level: "word"}, cube.GrainSpec{Attr: "t", Level: "minute"})
	if err := w.AddBasic("sum", g, measure.Spec{Func: measure.Sum}, "v"); err != nil {
		t.Fatal(err)
	}
	if err := w.AddBasic("cnt", g, measure.Spec{Func: measure.Count}, ""); err != nil {
		t.Fatal(err)
	}
	records := []cube.Record{
		rec(1, 10, 0), rec(1, 20, 30), // same k, same minute
		rec(1, 5, 61), // next minute
		rec(2, 7, 10), // other k
	}
	res := results(t, w, records)
	k1m0 := regionKey(s, g, rec(1, 0, 0))
	k1m1 := regionKey(s, g, rec(1, 0, 61))
	k2m0 := regionKey(s, g, rec(2, 0, 10))
	if got := res["sum"][k1m0]; got != 30 {
		t.Errorf("sum(k1,m0) = %v, want 30", got)
	}
	if got := res["sum"][k1m1]; got != 5 {
		t.Errorf("sum(k1,m1) = %v, want 5", got)
	}
	if got := res["sum"][k2m0]; got != 7 {
		t.Errorf("sum(k2,m0) = %v, want 7", got)
	}
	if got := res["cnt"][k1m0]; got != 2 {
		t.Errorf("cnt(k1,m0) = %v, want 2", got)
	}
	if len(res["sum"]) != 3 || len(res["cnt"]) != 3 {
		t.Errorf("region counts: sum=%d cnt=%d, want 3", len(res["sum"]), len(res["cnt"]))
	}
}

func TestSelfRatioWithParentLookup(t *testing.T) {
	// The weblog M3 pattern: ratio of a minute-level median to an
	// hour-level median.
	s := testSchema(t)
	w := workflow.New(s)
	gMin := s.MustGrain(cube.GrainSpec{Attr: "k", Level: "word"}, cube.GrainSpec{Attr: "t", Level: "minute"})
	gHour := s.MustGrain(cube.GrainSpec{Attr: "k", Level: "word"}, cube.GrainSpec{Attr: "t", Level: "hour"})
	if err := w.AddBasic("m1", gMin, measure.Spec{Func: measure.Sum}, "v"); err != nil {
		t.Fatal(err)
	}
	if err := w.AddBasic("m2", gHour, measure.Spec{Func: measure.Sum}, "v"); err != nil {
		t.Fatal(err)
	}
	if err := w.AddSelf("m3", gMin, measure.Ratio(), "m1", "m2"); err != nil {
		t.Fatal(err)
	}
	records := []cube.Record{
		rec(1, 10, 0),    // minute 0, hour 0
		rec(1, 30, 60),   // minute 1, hour 0
		rec(1, 40, 3600), // minute 60, hour 1
	}
	res := results(t, w, records)
	m0 := regionKey(s, gMin, records[0])
	m1 := regionKey(s, gMin, records[1])
	m60 := regionKey(s, gMin, records[2])
	if got := res["m3"][m0]; math.Abs(got-10.0/40.0) > 1e-12 {
		t.Errorf("m3(minute0) = %v, want 0.25", got)
	}
	if got := res["m3"][m1]; math.Abs(got-30.0/40.0) > 1e-12 {
		t.Errorf("m3(minute1) = %v, want 0.75", got)
	}
	if got := res["m3"][m60]; math.Abs(got-1) > 1e-12 {
		t.Errorf("m3(minute60) = %v, want 1", got)
	}
}

func TestSelfSuppressesNaN(t *testing.T) {
	// Ratio with a zero denominator must suppress the result entirely.
	s := testSchema(t)
	w := workflow.New(s)
	g := s.MustGrain(cube.GrainSpec{Attr: "k", Level: "word"})
	if err := w.AddBasic("num", g, measure.Spec{Func: measure.Sum}, "v"); err != nil {
		t.Fatal(err)
	}
	if err := w.AddBasic("den", g, measure.Spec{Func: measure.Min}, "v"); err != nil {
		t.Fatal(err)
	}
	if err := w.AddSelf("ratio", g, measure.Ratio(), "num", "den"); err != nil {
		t.Fatal(err)
	}
	records := []cube.Record{rec(1, 0, 0), rec(2, 5, 0)}
	res := results(t, w, records)
	if len(res["ratio"]) != 1 {
		t.Fatalf("ratio results = %d, want 1 (k=1 suppressed: min=0)", len(res["ratio"]))
	}
	k2 := regionKey(s, g, rec(2, 0, 0))
	if got := res["ratio"][k2]; got != 1 {
		t.Errorf("ratio(k2) = %v, want 1", got)
	}
}

func TestRollup(t *testing.T) {
	s := testSchema(t)
	w := workflow.New(s)
	gMin := s.MustGrain(cube.GrainSpec{Attr: "t", Level: "minute"})
	gHour := s.MustGrain(cube.GrainSpec{Attr: "t", Level: "hour"})
	if err := w.AddBasic("perMin", gMin, measure.Spec{Func: measure.Sum}, "v"); err != nil {
		t.Fatal(err)
	}
	if err := w.AddRollup("maxMin", gHour, measure.Spec{Func: measure.Max}, "perMin"); err != nil {
		t.Fatal(err)
	}
	records := []cube.Record{
		rec(0, 5, 0), rec(0, 7, 10), // minute 0: sum 12
		rec(0, 9, 70),     // minute 1: sum 9
		rec(0, 100, 3700), // hour 1, minute 61: sum 100
	}
	res := results(t, w, records)
	h0 := regionKey(s, gHour, rec(0, 0, 0))
	h1 := regionKey(s, gHour, rec(0, 0, 3700))
	if got := res["maxMin"][h0]; got != 12 {
		t.Errorf("maxMin(hour0) = %v, want 12", got)
	}
	if got := res["maxMin"][h1]; got != 100 {
		t.Errorf("maxMin(hour1) = %v, want 100", got)
	}
}

func TestInherit(t *testing.T) {
	s := testSchema(t)
	w := workflow.New(s)
	gMin := s.MustGrain(cube.GrainSpec{Attr: "t", Level: "minute"})
	gDay := s.MustGrain(cube.GrainSpec{Attr: "t", Level: "day"})
	if err := w.AddBasic("daily", gDay, measure.Spec{Func: measure.Count}, ""); err != nil {
		t.Fatal(err)
	}
	if err := w.AddInherit("dailyAtMin", gMin, "daily"); err != nil {
		t.Fatal(err)
	}
	records := []cube.Record{
		rec(0, 1, 0), rec(0, 1, 60), rec(0, 1, 120), // day 0, minutes 0..2
		rec(0, 1, 86400), // day 1
	}
	res := results(t, w, records)
	if len(res["dailyAtMin"]) != 4 {
		t.Fatalf("inherit results = %d, want 4", len(res["dailyAtMin"]))
	}
	for i, want := range []float64{3, 3, 3, 1} {
		k := regionKey(s, gMin, records[i])
		if got := res["dailyAtMin"][k]; got != want {
			t.Errorf("dailyAtMin(rec %d) = %v, want %v", i, got, want)
		}
	}
}

func TestSlidingWindow(t *testing.T) {
	s := testSchema(t)
	w := workflow.New(s)
	gMin := s.MustGrain(cube.GrainSpec{Attr: "t", Level: "minute"})
	ti, _ := s.AttrIndex("t")
	if err := w.AddBasic("perMin", gMin, measure.Spec{Func: measure.Sum}, "v"); err != nil {
		t.Fatal(err)
	}
	if err := w.AddSliding("mov", gMin, measure.Spec{Func: measure.Sum}, "perMin",
		workflow.RangeAnn{Attr: ti, Low: -2, High: 0}); err != nil {
		t.Fatal(err)
	}
	// Minutes 0,1,2,4 have sums 1,2,3,5 (minute 3 empty).
	records := []cube.Record{
		rec(0, 1, 0), rec(0, 2, 60), rec(0, 3, 120), rec(0, 5, 240),
	}
	res := results(t, w, records)
	want := map[int]float64{
		0: 1, // window {-2..0} of minute 0: only m0
		1: 3, // m0+m1
		2: 6, // m0+m1+m2
		4: 8, // m2+m4 (m3 missing)
	}
	for min, wv := range want {
		k := regionKey(s, gMin, rec(0, 0, int64(min)*60))
		got, ok := res["mov"][k]
		if !ok {
			t.Errorf("mov(minute %d) missing", min)
			continue
		}
		if got != wv {
			t.Errorf("mov(minute %d) = %v, want %v", min, got, wv)
		}
	}
	if len(res["mov"]) != 4 {
		t.Errorf("mov results = %d, want 4 (only occupied minutes)", len(res["mov"]))
	}
}

func TestSlidingWindowAverageWeblogStyle(t *testing.T) {
	// Full M1→M3→M4 chain with a moving average.
	s := testSchema(t)
	w := workflow.New(s)
	gMin := s.MustGrain(cube.GrainSpec{Attr: "k", Level: "word"}, cube.GrainSpec{Attr: "t", Level: "minute"})
	gHour := s.MustGrain(cube.GrainSpec{Attr: "k", Level: "word"}, cube.GrainSpec{Attr: "t", Level: "hour"})
	ti, _ := s.AttrIndex("t")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.AddBasic("m1", gMin, measure.Spec{Func: measure.Median}, "v"))
	must(w.AddBasic("m2", gHour, measure.Spec{Func: measure.Median}, "v"))
	must(w.AddSelf("m3", gMin, measure.Ratio(), "m1", "m2"))
	must(w.AddSliding("m4", gMin, measure.Spec{Func: measure.Avg}, "m3",
		workflow.RangeAnn{Attr: ti, Low: -1, High: 0}))
	records := []cube.Record{
		rec(3, 10, 0),  // k3 minute 0
		rec(3, 30, 60), // k3 minute 1
	}
	// m2(hour0) = median{10,30} = 20; m3(min0)=0.5, m3(min1)=1.5;
	// m4(min0)=avg{0.5}=0.5, m4(min1)=avg{0.5,1.5}=1.0.
	res := results(t, w, records)
	k0 := regionKey(s, gMin, records[0])
	k1 := regionKey(s, gMin, records[1])
	if got := res["m4"][k0]; math.Abs(got-0.5) > 1e-12 {
		t.Errorf("m4(min0) = %v, want 0.5", got)
	}
	if got := res["m4"][k1]; math.Abs(got-1.0) > 1e-12 {
		t.Errorf("m4(min1) = %v, want 1.0", got)
	}
}

func TestEmptyBlock(t *testing.T) {
	s := testSchema(t)
	w := workflow.New(s)
	g := s.MustGrain(cube.GrainSpec{Attr: "k", Level: "word"})
	if err := w.AddBasic("c", g, measure.Spec{Func: measure.Count}, ""); err != nil {
		t.Fatal(err)
	}
	e, err := New(w)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := e.Evaluate(nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("empty block produced %d results", len(out))
	}
}

func TestNewRejectsEmptyWorkflow(t *testing.T) {
	if _, err := New(workflow.New(testSchema(t))); err == nil {
		t.Error("empty workflow accepted")
	}
}

// TestBlockAdditivity: evaluating the union of two disjoint keyword
// partitions must equal the union of per-partition evaluations when the
// partition key is feasible (here: everything grouped by k at word level,
// so <k:word> partitioning is feasible for all measures).
func TestBlockAdditivity(t *testing.T) {
	s := testSchema(t)
	w := workflow.New(s)
	gMin := s.MustGrain(cube.GrainSpec{Attr: "k", Level: "word"}, cube.GrainSpec{Attr: "t", Level: "minute"})
	gHour := s.MustGrain(cube.GrainSpec{Attr: "k", Level: "word"}, cube.GrainSpec{Attr: "t", Level: "hour"})
	ti, _ := s.AttrIndex("t")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.AddBasic("b", gMin, measure.Spec{Func: measure.Sum}, "v"))
	must(w.AddRollup("r", gHour, measure.Spec{Func: measure.Avg}, "b"))
	must(w.AddSliding("sl", gMin, measure.Spec{Func: measure.Sum}, "b",
		workflow.RangeAnn{Attr: ti, Low: -3, High: 0}))
	e, err := New(w)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	var all, part0, part1 []cube.Record
	for i := 0; i < 500; i++ {
		r := rec(rng.Int63n(10), rng.Int63n(1000), rng.Int63n(2*86400))
		all = append(all, r)
		if r[0] < 5 {
			part0 = append(part0, r.Clone())
		} else {
			part1 = append(part1, r.Clone())
		}
	}
	whole, _, err := e.Evaluate(all, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o0, _, err := e.Evaluate(part0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o1, _, err := e.Evaluate(part1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	index := func(rs []Result) map[string]float64 {
		m := map[string]float64{}
		for _, r := range rs {
			m[r.Measure+"/"+r.Region.Key()] = r.Value
		}
		return m
	}
	wm := index(whole)
	um := index(o0)
	for k, v := range index(o1) {
		if _, dup := um[k]; dup {
			t.Fatalf("overlapping result %s between disjoint partitions", k)
		}
		um[k] = v
	}
	if len(wm) != len(um) {
		t.Fatalf("whole has %d results, union has %d", len(wm), len(um))
	}
	for k, v := range wm {
		if math.Abs(um[k]-v) > 1e-9 {
			t.Fatalf("result %s: whole %v, union %v", k, v, um[k])
		}
	}
}

func TestEvaluateFromBasicsEquivalence(t *testing.T) {
	s := testSchema(t)
	w := workflow.New(s)
	gMin := s.MustGrain(cube.GrainSpec{Attr: "k", Level: "word"}, cube.GrainSpec{Attr: "t", Level: "minute"})
	gHour := s.MustGrain(cube.GrainSpec{Attr: "k", Level: "word"}, cube.GrainSpec{Attr: "t", Level: "hour"})
	ti, _ := s.AttrIndex("t")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.AddBasic("b1", gMin, measure.Spec{Func: measure.Sum}, "v"))
	must(w.AddBasic("b2", gHour, measure.Spec{Func: measure.Avg}, "v"))
	must(w.AddSelf("r", gMin, measure.Ratio(), "b1", "b2"))
	must(w.AddRollup("roll", gHour, measure.Spec{Func: measure.Max}, "b1"))
	must(w.AddSliding("mov", gMin, measure.Spec{Func: measure.Sum}, "b1",
		workflow.RangeAnn{Attr: ti, Low: -3, High: 0}))
	e, err := New(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SupportsEarlyAggregation(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	var records []cube.Record
	for i := 0; i < 400; i++ {
		records = append(records, rec(rng.Int63n(10), rng.Int63n(1000), rng.Int63n(2*86400)))
	}
	direct, _, err := e.Evaluate(append([]cube.Record(nil), records...), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Simulate early aggregation: partition records into 3 mapper shards,
	// partially aggregate per shard, then feed the merged groups.
	basics := map[string][]basicGroup{}
	for shard := 0; shard < 3; shard++ {
		type ba struct {
			coords []int64
			agg    measure.Aggregator
		}
		perMeasure := map[string]map[string]*ba{"b1": {}, "b2": {}}
		grains := map[string]cube.Grain{"b1": gMin, "b2": gHour}
		for i, r := range records {
			if i%3 != shard {
				continue
			}
			for name, g := range grains {
				reg := s.RegionOf(r, g)
				k := reg.Key()
				b, ok := perMeasure[name][k]
				if !ok {
					spec := measure.Spec{Func: measure.Sum}
					if name == "b2" {
						spec = measure.Spec{Func: measure.Avg}
					}
					b = &ba{coords: reg.Coord, agg: spec.New()}
					perMeasure[name][k] = b
				}
				vi, _ := s.AttrIndex("v")
				b.agg.Add(float64(r[vi]))
			}
		}
		for name, groups := range perMeasure {
			for _, b := range groups {
				basics[name] = append(basics[name], basicGroup{coords: b.coords, agg: b.agg})
			}
		}
	}
	ss := e.NewSession()
	mergeBasics(t, ss, basics)
	early, _, err := ss.EvaluatePartials()
	if err != nil {
		t.Fatal(err)
	}
	index := func(rs []Result) map[string]float64 {
		m := map[string]float64{}
		for _, r := range rs {
			m[r.Measure+"/"+r.Region.Key()] = r.Value
		}
		return m
	}
	dm, em := index(direct), index(early)
	if len(dm) != len(em) {
		t.Fatalf("direct %d results, early %d", len(dm), len(em))
	}
	for k, v := range dm {
		if math.Abs(em[k]-v) > 1e-9 {
			t.Fatalf("result %s: direct %v, early %v", k, v, em[k])
		}
	}
}

func TestSupportsEarlyAggregationRejections(t *testing.T) {
	s := testSchema(t)
	gMin := s.MustGrain(cube.GrainSpec{Attr: "t", Level: "minute"})
	gDay := s.MustGrain(cube.GrainSpec{Attr: "t", Level: "day"})

	// Holistic basic measure: rejected.
	w1 := workflow.New(s)
	if err := w1.AddBasic("med", gMin, measure.Spec{Func: measure.Median}, "v"); err != nil {
		t.Fatal(err)
	}
	e1, err := New(w1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.SupportsEarlyAggregation(); err == nil {
		t.Error("holistic basic accepted")
	}

	// Inherit to a finer grain with no basic there: rejected (occupancy
	// at minute cannot be reconstructed from day-level aggregates).
	w2 := workflow.New(s)
	if err := w2.AddBasic("daily", gDay, measure.Spec{Func: measure.Sum}, "v"); err != nil {
		t.Fatal(err)
	}
	if err := w2.AddInherit("atMin", gMin, "daily"); err != nil {
		t.Fatal(err)
	}
	e2, err := New(w2)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.SupportsEarlyAggregation(); err == nil {
		t.Error("uncovered fine grain accepted")
	}
	if _, _, err := e2.NewSession().EvaluatePartials(); err == nil {
		t.Error("EvaluatePartials did not enforce the coverage check")
	}
}
