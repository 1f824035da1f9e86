package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/measure"
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
// oracle: the suite's queries and random workflows, over memory and store
// datasets, with early aggregation off and auto, under the default and a
// spill-forcing grouping budget.
func TestEngineMatchesNaiveOracle(t *testing.T) {
	su := workload.NewSuite()
	records := su.Generate(1200, workload.SkewedTime, 17)
	_, store := storeDataset(t, su, records)
	datasets := map[string]*Dataset{"memory": MemoryDataset(su.Schema, records, 5), "store": store}
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
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := 0; seed < seeds; seed++ {
		workflows[fmt.Sprintf("random%d", seed)] = randomWorkflow(t, su.Schema, rand.New(rand.NewSource(int64(500+seed))))
	}
	for name, w := range workflows {
		want := naiveOracle(w, records)
		for dsName, ds := range datasets {
			for _, early := range []EarlyAggMode{EarlyAggOff, EarlyAggAuto} {
				for _, budget := range []int{0, 16} {
					cfg := Config{NumReducers: 3, EarlyAggregation: early, SortMemoryItems: budget}
					label := fmt.Sprintf("%s/%s/early=%d/budget=%d", name, dsName, early, budget)
					compare(t, label, want, flatten(runEngine(t, cfg, w, ds)))
				}
			}
		}
	}
}
