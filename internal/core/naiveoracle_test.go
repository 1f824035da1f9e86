package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/casm-project/casm/internal/blockstore"
	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/measure"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/workflow"
	"github.com/casm-project/casm/internal/workload"
)

// naiveOracle evaluates a workflow over all records straight from the
// paper's definitions, sharing no code with localeval or with measure's
// aggregators: a measure is defined at the occupied regions of its grain
// (those holding at least one record); a basic measure aggregates its
// region's records; a self measure combines its sources' values at the
// regions enclosing its own; an inherit copies its source's value at the
// enclosing region; a rollup aggregates its source's values over the
// regions it encloses; a sliding measure aggregates its source's values
// over the sibling regions its window reaches. A NaN or absent value is
// undefined: never output, never an input. Everything is a scan over
// every region, O(n²) and obviously right.
func naiveOracle(w *workflow.Workflow, records []cube.Record) map[string]map[string]float64 {
	s := w.Schema()
	type region struct {
		coord []int64
		vals  []float64 // a basic measure's inputs
	}
	occupied := func(g cube.Grain) map[string]*region {
		out := map[string]*region{}
		for _, rec := range records {
			c := make([]int64, len(g))
			for a := range g {
				c[a] = s.Attr(a).Roll(rec[a], g[a])
			}
			k := cube.EncodeCoords(c)
			if out[k] == nil {
				out[k] = &region{coord: c}
			}
		}
		return out
	}
	roll := func(c []int64, from, to cube.Grain) string {
		p := make([]int64, len(c))
		for a := range c {
			p[a] = s.Attr(a).RollBetween(c[a], from[a], to[a])
		}
		return cube.EncodeCoords(p)
	}
	values := map[string]map[string]float64{}
	coords := map[string]map[string][]int64{}
	for _, m := range w.Measures() {
		occ := occupied(m.Grain)
		vm := map[string]float64{}
		put := func(k string, v float64) {
			if !math.IsNaN(v) {
				vm[k] = v
			}
		}
		lookup := func(src string, c []int64) (float64, bool) {
			sm, _ := w.Measure(src)
			v, ok := values[src][roll(c, m.Grain, sm.Grain)]
			return v, ok
		}
		switch m.Kind {
		case workflow.Basic:
			for _, rec := range records {
				c := make([]int64, len(m.Grain))
				for a := range c {
					c[a] = s.Attr(a).Roll(rec[a], m.Grain[a])
				}
				r := occ[cube.EncodeCoords(c)]
				v := 0.0
				if m.InputAttr >= 0 {
					v = float64(rec[m.InputAttr])
				}
				r.vals = append(r.vals, v)
			}
			for k, r := range occ {
				put(k, naiveAggregate(m.Agg, r.vals))
			}
		case workflow.Self:
			for k, r := range occ {
				args := make([]float64, len(m.Sources))
				for i, src := range m.Sources {
					v, ok := lookup(src, r.coord)
					if !ok {
						v = math.NaN()
					}
					args[i] = v
				}
				put(k, m.Expr.Eval(args))
			}
		case workflow.Inherit:
			for k, r := range occ {
				if v, ok := lookup(m.Sources[0], r.coord); ok {
					put(k, v)
				}
			}
		case workflow.Rollup, workflow.Sliding:
			sm, _ := w.Measure(m.Sources[0])
			for k, r := range occ {
				var in []float64
				for sk, v := range values[sm.Name] {
					sc := coords[sm.Name][sk]
					if m.Kind == workflow.Rollup && roll(sc, sm.Grain, m.Grain) == k ||
						m.Kind == workflow.Sliding && inWindow(m.Window, r.coord, sc) {
						in = append(in, v)
					}
				}
				if len(in) > 0 {
					put(k, naiveAggregate(m.Agg, in))
				}
			}
		}
		values[m.Name] = vm
		coords[m.Name] = map[string][]int64{}
		for k, r := range occ {
			coords[m.Name][k] = r.coord
		}
	}
	return values
}

// inWindow reports whether sibling region c lies in the window of region
// base: every annotated attribute within its offsets, every other equal.
func inWindow(window []workflow.RangeAnn, base, c []int64) bool {
	for a := range base {
		d, annotated := c[a]-base[a], false
		for _, ann := range window {
			if ann.Attr == a {
				annotated = true
				if d < ann.Low || d > ann.High {
					return false
				}
			}
		}
		if !annotated && d != 0 {
			return false
		}
	}
	return true
}

// naiveAggregate applies an aggregate function to a non-empty list.
func naiveAggregate(spec measure.Spec, in []float64) float64 {
	n := float64(len(in))
	sum, sorted := 0.0, append([]float64(nil), in...)
	for _, v := range in {
		sum += v
	}
	sort.Float64s(sorted)
	mean := sum / n
	variance := 0.0
	for _, v := range in {
		variance += (v - mean) * (v - mean) / n
	}
	switch spec.Func {
	case measure.Count:
		return n
	case measure.Sum:
		return sum
	case measure.Min:
		return sorted[0]
	case measure.Max:
		return sorted[len(sorted)-1]
	case measure.Avg:
		return mean
	case measure.Var:
		return variance
	case measure.StdDev:
		return math.Sqrt(variance)
	case measure.Median:
		if h := len(sorted) / 2; len(sorted)%2 == 0 {
			return (sorted[h-1] + sorted[h]) / 2
		}
		return sorted[len(sorted)/2]
	case measure.Quantile: // nearest rank
		return sorted[min(max(int(math.Ceil(spec.Arg*n))-1, 0), len(sorted)-1)]
	case measure.CountDistinct:
		d := 0
		for i := range sorted {
			if i == 0 || sorted[i] != sorted[i-1] {
				d++
			}
		}
		return float64(d)
	}
	panic("naiveAggregate: unknown function " + spec.String())
}

// TestEngineMatchesNaiveOracle runs the engine against the independent
// oracle: the suite's queries and random workflows over the paper schema,
// and hand-made and random workflows over a schema with a mapped product
// hierarchy, each over memory and store datasets, with early aggregation
// off and auto, under the default and a spill-forcing grouping budget, and
// in morsel mode with morsels of a few records.
func TestEngineMatchesNaiveOracle(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	su := workload.NewSuite()
	workflows := map[string]*workflow.Workflow{}
	for n := 1; n <= 6; n++ {
		w, _ := su.Query(n)
		workflows[fmt.Sprintf("Q%d", n)] = w
	}
	for i := 0; i <= 2; i++ {
		w, err := su.DS(i)
		if err != nil {
			t.Fatal(err)
		}
		workflows[fmt.Sprintf("DS%d", i)] = w
	}
	for seed := 0; seed < seeds; seed++ {
		workflows[fmt.Sprintf("random%d", seed)] = randomWorkflow(t, su.Schema, rand.New(rand.NewSource(int64(500+seed))))
	}
	// A basic at the finest grain of all six attributes has ≈ 1.28·10²²
	// regions, past what 64 bits number: the job must ship its records
	// instead of combining, and still answer right.
	wide := workflow.New(su.Schema)
	a1High := su.Schema.MustGrain(cube.GrainSpec{Attr: "a1", Level: "high"})
	for _, err := range []error{
		wide.AddBasic("n", su.Schema.GrainFinest(), measure.Spec{Func: measure.Count}, ""),
		wide.AddBasic("s", a1High, measure.Spec{Func: measure.Sum}, "a2"),
		wide.AddRollup("byA1", a1High, measure.Spec{Func: measure.Sum}, "n"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	workflows["wide"] = wide
	records := su.Generate(1200, workload.SkewedTime, 17)
	if res := runEngine(t, Config{NumReducers: 3, EarlyAggregation: EarlyAggAuto}, wide, MemoryDataset(su.Schema, records, 5)); res.EarlyAggregated {
		t.Error("a basic with regions past 64 bits combined")
	}
	matchNaiveOracle(t, su.Schema, records, workflows)

	mapped, records, ws := mappedOracleCase(t, seeds/2)
	matchNaiveOracle(t, mapped, records, ws)
}

// matchNaiveOracle compares the engine with naiveOracle on every workflow
// over records, across the datasets and configurations
// TestEngineMatchesNaiveOracle names.
func matchNaiveOracle(t *testing.T, s *cube.Schema, records []cube.Record, workflows map[string]*workflow.Workflow) {
	t.Helper()
	st, err := blockstore.Open(blockstore.Config{Dir: t.TempDir(), BlockSize: 8192, Replication: 2, NumNodes: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := workload.WriteStore(st, "data", s, records); err != nil {
		t.Fatal(err)
	}
	datasets := map[string]*Dataset{
		"memory": MemoryDataset(s, records, 5),
		"store":  {Schema: s, Input: mr.NewStoreInput(st, "data"), NumRecords: int64(len(records))},
	}
	configs := map[string]Config{
		"budget=0":  {},
		"budget=16": {SortMemoryItems: 16},
		"morsel=64": {MorselBytes: 64},
	}
	for name, w := range workflows {
		want := naiveOracle(w, records)
		for dsName, ds := range datasets {
			for _, early := range []EarlyAggMode{EarlyAggOff, EarlyAggAuto} {
				for cfgName, cfg := range configs {
					cfg.NumReducers, cfg.EarlyAggregation = 3, early
					label := fmt.Sprintf("%s/%s/early=%d/%s", name, dsName, early, cfgName)
					compare(t, label, want, flatten(runEngine(t, cfg, w, ds)))
				}
			}
		}
	}
}

// mappedOracleCase is a schema whose product attribute rolls up through an
// explicit, irregular assignment table (the hierarchy no span describes),
// 900 records over it, and workflows over both: one that reaches the
// mapped level through every kind of measure, basics of the functions a
// combiner and a holistic reducer each serve, and random workflows.
func mappedOracleCase(t *testing.T, randoms int) (*cube.Schema, []cube.Record, map[string]*workflow.Workflow) {
	t.Helper()
	assign := []int64{0, 0, 0, 1, 2, 2, 3, 3, 3, 3, 4, 1, 5, 5, 2, 0, 4, 4, 5, 3}
	s := cube.MustSchema(
		cube.MustMappedAttribute("prod", int64(len(assign)), cube.MappedLevel{Name: "cat", Assign: assign}),
		cube.MustAttribute("amt", cube.Numeric, 64, cube.Level{Name: "v", Span: 1}, cube.Level{Name: "band", Span: 8}),
		cube.TimeAttribute("time", 2),
	)
	rng := rand.New(rand.NewSource(31))
	records := make([]cube.Record, 900)
	for i := range records {
		records[i] = cube.Record{rng.Int63n(int64(len(assign))), rng.Int63n(64), rng.Int63n(2 * 86400)}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	catHour := s.MustGrain(cube.GrainSpec{Attr: "prod", Level: "cat"}, cube.GrainSpec{Attr: "time", Level: "hour"})
	ti, _ := s.AttrIndex("time")
	kinds := workflow.New(s)
	must(kinds.AddBasic("b", catHour, measure.Spec{Func: measure.Sum}, "amt"))
	must(kinds.AddRollup("r", s.MustGrain(cube.GrainSpec{Attr: "prod", Level: "cat"}), measure.Spec{Func: measure.Avg}, "b"))
	must(kinds.AddSliding("sl", catHour, measure.Spec{Func: measure.Sum}, "b", workflow.RangeAnn{Attr: ti, Low: -2, High: 0}))
	must(kinds.AddSelf("n", catHour, measure.Ratio(), "b", "sl"))
	must(kinds.AddInherit("i", s.MustGrain(cube.GrainSpec{Attr: "prod", Level: "value"}, cube.GrainSpec{Attr: "time", Level: "hour"}), "r"))
	funcs := workflow.New(s)
	catBand := s.MustGrain(cube.GrainSpec{Attr: "prod", Level: "cat"}, cube.GrainSpec{Attr: "amt", Level: "band"})
	for i, spec := range []measure.Spec{{Func: measure.Var}, {Func: measure.CountDistinct}, {Func: measure.Min}, {Func: measure.Median}} {
		must(funcs.AddBasic(fmt.Sprintf("f%d", i), catBand, spec, "amt"))
	}
	workflows := map[string]*workflow.Workflow{"mapped-kinds": kinds, "mapped-funcs": funcs}
	for seed := 0; seed < randoms; seed++ {
		workflows[fmt.Sprintf("mapped-random%d", seed)] = randomWorkflow(t, s, rand.New(rand.NewSource(int64(900+seed))))
	}
	return s, records, workflows
}
