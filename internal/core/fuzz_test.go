package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/measure"
	"github.com/casm-project/casm/internal/workflow"
	"github.com/casm-project/casm/internal/workload"
)

// randomWorkflow builds a random but valid aggregation workflow over a
// schema (the paper's, or any other): 1–3 basic measures of any aggregate
// function at random grains and 0–4 composite measures of random kinds
// wired to random sources.
func randomWorkflow(t *testing.T, s *cube.Schema, rng *rand.Rand) *workflow.Workflow {
	return randomWorkflowOpts(t, s, rng, false)
}

// randomWorkflowOpts is randomWorkflow with a knob: stableBits restricts
// rollups to order-independent aggregates (count/min/max), so the whole
// workflow's output is bit-identical regardless of the order float
// contributions are folded in — what the byte-identity sweeps need
// (rollups fold source regions in map-iteration order; every other
// measure kind already consumes its inputs in a deterministic order).
func randomWorkflowOpts(t *testing.T, s *cube.Schema, rng *rand.Rand, stableBits bool) *workflow.Workflow {
	t.Helper()
	w := workflow.New(s)

	randGrain := func() cube.Grain {
		g := make(cube.Grain, s.NumAttrs())
		for i := range g {
			// Bias toward coarse levels so regions hold several records.
			n := s.Attr(i).NumLevels()
			g[i] = n - 1 - rng.Intn(2)
			if rng.Intn(4) == 0 {
				g[i] = rng.Intn(n)
			}
		}
		return g
	}
	aggs := []measure.Spec{
		{Func: measure.Sum}, {Func: measure.Count}, {Func: measure.Avg},
		{Func: measure.Min}, {Func: measure.Max}, {Func: measure.Median},
		{Func: measure.StdDev}, {Func: measure.Quantile, Arg: 0.75},
		{Func: measure.Var}, {Func: measure.CountDistinct},
	}
	// Any attribute but a timestamp is an input; "" counts records.
	var inputs []string
	for a := 0; a < s.NumAttrs(); a++ {
		if s.Attr(a).Kind() != cube.Temporal {
			inputs = append(inputs, s.Attr(a).Name())
		}
	}
	inputs = append(inputs, "")

	nBasics := 1 + rng.Intn(3)
	var names []string
	for i := 0; i < nBasics; i++ {
		name := fmt.Sprintf("b%d", i)
		agg := aggs[rng.Intn(len(aggs))]
		in := inputs[rng.Intn(len(inputs))]
		if in == "" {
			agg = measure.Spec{Func: measure.Count}
		}
		if err := w.AddBasic(name, randGrain(), agg, in); err != nil {
			t.Fatalf("basic: %v", err)
		}
		names = append(names, name)
	}

	nComposites := rng.Intn(5)
	for i := 0; i < nComposites; i++ {
		name := fmt.Sprintf("c%d", i)
		src := names[rng.Intn(len(names))]
		sm, _ := w.Measure(src)
		var err error
		switch rng.Intn(4) {
		case 0: // self over 1–2 sources at the meet of their grains
			src2 := names[rng.Intn(len(names))]
			sm2, _ := w.Measure(src2)
			grain := s.Meet(sm.Grain, sm2.Grain)
			if rng.Intn(2) == 0 {
				err = w.AddSelf(name, grain, measure.Ratio(), src, src2)
			} else {
				err = w.AddSelf(name, grain, measure.Add(), src, src2)
			}
		case 1: // rollup to a strictly coarser grain
			grain := sm.Grain.Clone()
			coarsened := false
			for a := range grain {
				if grain[a] < s.Attr(a).AllIndex() && rng.Intn(2) == 0 {
					grain[a] = s.Attr(a).AllIndex()
					coarsened = true
				}
			}
			if !coarsened {
				for a := range grain {
					if grain[a] < s.Attr(a).AllIndex() {
						grain[a]++
						coarsened = true
						break
					}
				}
			}
			if !coarsened {
				continue // source already at ALL everywhere
			}
			spec := aggs[rng.Intn(5)] // mergeable aggs
			if stableBits {
				spec = []measure.Spec{{Func: measure.Count}, {Func: measure.Min}, {Func: measure.Max}}[rng.Intn(3)]
			}
			err = w.AddRollup(name, grain, spec, src)
		case 2: // inherit to a strictly finer grain
			grain := sm.Grain.Clone()
			refined := false
			for a := range grain {
				if grain[a] > 0 {
					grain[a] = rng.Intn(grain[a])
					refined = true
					break
				}
			}
			if !refined {
				continue
			}
			err = w.AddInherit(name, grain, src)
		default: // sliding window over an ordered, non-ALL attribute
			var attrs []int
			for a := 0; a < s.NumAttrs(); a++ {
				if s.Attr(a).Kind() != cube.Nominal && sm.Grain[a] != s.Attr(a).AllIndex() {
					attrs = append(attrs, a)
				}
			}
			if len(attrs) == 0 {
				continue
			}
			a := attrs[rng.Intn(len(attrs))]
			low := -int64(rng.Intn(6))
			high := low + int64(rng.Intn(5))
			if high > 3 {
				high = 3
			}
			err = w.AddSliding(name, sm.Grain, measure.Spec{Func: measure.Sum}, src,
				workflow.RangeAnn{Attr: a, Low: low, High: high})
		}
		if err != nil {
			t.Fatalf("composite %d: %v", i, err)
		}
		names = append(names, name)
	}
	return w
}

// TestEngineMatchesOracleRandomWorkflows is the fuzzing companion of the
// per-query oracle tests: random workflows, random data distributions,
// random engine knobs — the parallel answer must always equal the
// single-block evaluation.
func TestEngineMatchesOracleRandomWorkflows(t *testing.T) {
	su := workload.NewSuite()
	seeds := 25
	if testing.Short() {
		seeds = 8
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + seed)))
			w := randomWorkflow(t, su.Schema, rng)
			dist := workload.Uniform
			if rng.Intn(3) == 0 {
				dist = workload.SkewedTime
			}
			records := su.Generate(500+rng.Intn(1500), dist, int64(seed))
			ds := MemoryDataset(su.Schema, records, 1+rng.Intn(8))

			cfg := Config{
				NumReducers:      1 + rng.Intn(8),
				EarlyAggregation: EarlyAggAuto,
			}
			if rng.Intn(2) == 0 {
				cfg.SortMode = CombinedKeySort
			}
			if rng.Intn(3) == 0 {
				cfg.SkewMode = SkewSampling
				cfg.SampleSize = 300
			}
			want := oracle(t, w, records)
			res := runEngine(t, cfg, w, ds)
			compare(t, fmt.Sprintf("fuzz seed %d (%s)", seed, w.Explain()), want, flatten(res))

			// And with a random forced clustering factor when overlapping.
			if res.Plan.Key.IsOverlapping() {
				cfg2 := Config{NumReducers: cfg.NumReducers, ForceCF: int64(1 + rng.Intn(30))}
				res2 := runEngine(t, cfg2, w, ds)
				compare(t, fmt.Sprintf("fuzz seed %d forced cf", seed), want, flatten(res2))
			}
		})
	}
}

// TestEngineMatchesOracleMappedSchemaFuzz repeats the oracle property over
// a schema containing an irregular (table-driven) hierarchy, so mapped
// roll-ups interact with overlapping plans and early aggregation.
func TestEngineMatchesOracleMappedSchemaFuzz(t *testing.T) {
	assign := make([]int64, 30)
	for i := range assign {
		// Irregular groups of sizes 1..5 over 30 products.
		switch {
		case i < 5:
			assign[i] = 0
		case i < 6:
			assign[i] = 1
		case i < 10:
			assign[i] = 2
		case i < 13:
			assign[i] = 3
		case i < 25:
			assign[i] = 4
		default:
			assign[i] = 5
		}
	}
	s := cube.MustSchema(
		cube.MustMappedAttribute("prod", 30,
			cube.MappedLevel{Name: "cat", Assign: assign},
		),
		cube.MustAttribute("amt", cube.Numeric, 64,
			cube.Level{Name: "v", Span: 1}, cube.Level{Name: "band", Span: 8}),
		cube.TimeAttribute("time", 3),
	)
	ti, _ := s.AttrIndex("time")
	hour, _ := s.Attr(ti).LevelIndex("hour")
	for seed := 0; seed < 8; seed++ {
		rng := rand.New(rand.NewSource(int64(7000 + seed)))
		w := workflow.New(s)
		catHour := s.GrainAll()
		pi, _ := s.AttrIndex("prod")
		cat, _ := s.Attr(pi).LevelIndex("cat")
		catHour[pi], catHour[ti] = cat, hour
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		must(w.AddBasic("b", catHour, measure.Spec{Func: measure.Sum}, "amt"))
		must(w.AddRollup("r", s.LCA(catHour, s.GrainAll()), measure.Spec{Func: measure.Avg}, "b"))
		must(w.AddSliding("sl", catHour, measure.Spec{Func: measure.Sum}, "b",
			workflow.RangeAnn{Attr: ti, Low: -int64(1 + rng.Intn(4)), High: 0}))
		must(w.AddSelf("n", catHour, measure.Ratio(), "b", "sl"))

		records := make([]cube.Record, 800+rng.Intn(800))
		for i := range records {
			records[i] = cube.Record{rng.Int63n(30), rng.Int63n(64), rng.Int63n(3 * 86400)}
		}
		ds := MemoryDataset(s, records, 1+rng.Intn(5))
		cfg := Config{NumReducers: 1 + rng.Intn(6), EarlyAggregation: EarlyAggAuto}
		want := oracle(t, w, records)
		res := runEngine(t, cfg, w, ds)
		compare(t, fmt.Sprintf("mapped fuzz seed %d", seed), want, flatten(res))
	}
}
