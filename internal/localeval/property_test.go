package localeval

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/measure"
	"github.com/casm-project/casm/internal/workflow"
)

// randomLocalWorkflow builds a random but valid workflow over testSchema:
// 1–3 basics at random grains plus 0–4 composites. Rollup aggregates are
// restricted to order-independent functions (count/min/max): rollups fold
// their source regions in map-iteration order, so order-sensitive float
// sums could differ in the last bit between two correct evaluators, and
// these tests demand byte-identical output.
func randomLocalWorkflow(t *testing.T, s *cube.Schema, rng *rand.Rand) *workflow.Workflow {
	t.Helper()
	w := workflow.New(s)
	randGrain := func() cube.Grain {
		g := make(cube.Grain, s.NumAttrs())
		for i := range g {
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
	}
	stableAggs := []measure.Spec{
		{Func: measure.Count}, {Func: measure.Min}, {Func: measure.Max},
	}
	inputs := []string{"v", "k", ""}

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
				continue
			}
			err = w.AddRollup(name, grain, stableAggs[rng.Intn(len(stableAggs))], src)
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

func randomRecords(rng *rand.Rand, n int) []cube.Record {
	records := make([]cube.Record, n)
	for i := range records {
		records[i] = rec(rng.Int63n(10), rng.Int63n(1000), rng.Int63n(2*86400))
	}
	return records
}

func cloneRecords(records []cube.Record) []cube.Record {
	out := make([]cube.Record, len(records))
	for i, r := range records {
		out[i] = r.Clone()
	}
	return out
}

// sameResults demands byte-identical output: same element order, same
// measure names, same coordinates, same float bits.
func sameResults(t *testing.T, label string, want, got []Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, reference has %d", label, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Measure != g.Measure ||
			!slices.Equal(w.Region.Grain, g.Region.Grain) ||
			!slices.Equal(w.Region.Coord, g.Region.Coord) ||
			math.Float64bits(w.Value) != math.Float64bits(g.Value) {
			t.Fatalf("%s: result %d differs\nwant %s %v = %x\ngot  %s %v = %x",
				label, i,
				w.Measure, w.Region.Coord, math.Float64bits(w.Value),
				g.Measure, g.Region.Coord, math.Float64bits(g.Value))
		}
	}
}

// TestSessionMatchesReferenceByteIdentical is the arena evaluator's
// equivalence property: across random workflows, one Session reused over
// many blocks must reproduce the seed evaluator's output bit for bit
// under every sort option, however the block reached its arena — as
// decoded records, as full record values, or as values projected to the
// columns the workflow reads — and on either side of packMinRows, where
// the in-block sort turns from the comparison sort to packed integers and
// the reference keeps sorting records by comparison.
func TestSessionMatchesReferenceByteIdentical(t *testing.T) {
	s := testSchema(t)
	seeds := 30
	if testing.Short() {
		seeds = 8
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(4000 + seed)))
			w := randomLocalWorkflow(t, s, rng)
			e, err := New(w)
			if err != nil {
				t.Fatal(err)
			}
			ss := e.NewSession() // one session across every block below
			loaders := valueLoaders(t, e)
			sizes := []int{50 + rng.Intn(250), packMinRows - 1 + rng.Intn(3), 500 + rng.Intn(1500)}
			for blk, n := range sizes {
				records := randomRecords(rng, n)
				for i, opt := range []Options{{}, {SkipSort: true}, {}, {SkipSort: true}, {}, {SkipSort: true}} {
					label := fmt.Sprintf("block %d skip=%v loader %d", blk, opt.SkipSort, i%3)
					want, refStats := refEvaluate(t, e, cloneRecords(records), opt)
					for _, r := range records {
						loaders[i%3](ss, r)
					}
					got, stats, err := ss.EvaluateBlock(opt)
					if err != nil {
						t.Fatal(err)
					}
					sameResults(t, label, want, got)
					if stats.ScannedRecords != int64(len(records)) {
						t.Fatalf("%s: scanned %d, want %d", label, stats.ScannedRecords, len(records))
					}
					if stats.SortedItems != refStats.SortedItems {
						t.Fatalf("%s: sorted %d, reference sorted %d", label, stats.SortedItems, refStats.SortedItems)
					}
				}
			}
		})
	}
}

// TestSessionFromBasicsMatchesReference repeats the equivalence property
// on the early-aggregation entry point, with the session reused across
// calls and input aggregators rebuilt per run (both implementations take
// ownership of them).
func TestSessionFromBasicsMatchesReference(t *testing.T) {
	s := testSchema(t)
	gMin := s.MustGrain(cube.GrainSpec{Attr: "k", Level: "word"}, cube.GrainSpec{Attr: "t", Level: "minute"})
	gHour := s.MustGrain(cube.GrainSpec{Attr: "k", Level: "word"}, cube.GrainSpec{Attr: "t", Level: "hour"})
	ti, _ := s.AttrIndex("t")
	vi, _ := s.AttrIndex("v")
	for seed := 0; seed < 10; seed++ {
		rng := rand.New(rand.NewSource(int64(5000 + seed)))
		w := workflow.New(s)
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
			workflow.RangeAnn{Attr: ti, Low: -int64(1 + rng.Intn(3)), High: 0}))
		e, err := New(w)
		if err != nil {
			t.Fatal(err)
		}
		records := randomRecords(rng, 200+rng.Intn(400))

		// buildBasics partially aggregates 3 simulated mapper shards into
		// fresh aggregator instances, in deterministic group order.
		buildBasics := func() map[string][]basicGroup {
			basics := map[string][]basicGroup{}
			grains := []struct {
				name string
				g    cube.Grain
				spec measure.Spec
			}{
				{"b1", gMin, measure.Spec{Func: measure.Sum}},
				{"b2", gHour, measure.Spec{Func: measure.Avg}},
			}
			for shard := 0; shard < 3; shard++ {
				for _, gr := range grains {
					idx := map[string]int{}
					var groups []basicGroup
					for i, r := range records {
						if i%3 != shard {
							continue
						}
						reg := s.RegionOf(r, gr.g)
						k := reg.Key()
						gi, ok := idx[k]
						if !ok {
							gi = len(groups)
							idx[k] = gi
							groups = append(groups, basicGroup{coords: reg.Coord, agg: gr.spec.New()})
						}
						groups[gi].agg.Add(float64(r[vi]))
					}
					basics[gr.name] = append(basics[gr.name], groups...)
				}
			}
			return basics
		}

		ss := e.NewSession()
		for round := 0; round < 2; round++ { // session reuse across calls
			want, _ := refEvaluateFromBasics(t, e, buildBasics())
			mergeBasics(t, ss, buildBasics())
			got, _, err := ss.EvaluatePartials()
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, fmt.Sprintf("seed %d round %d", seed, round), want, got)
		}
	}
}

// TestWindowScanDomainBound pins the sliding-window probe bound: sibling
// coordinates past the annotated attribute's domain (here the last minute
// of the 2-day time attribute) are skipped without a lookup, while the
// seed evaluator probed them uselessly. Results must be unaffected.
func TestWindowScanDomainBound(t *testing.T) {
	s := testSchema(t)
	w := workflow.New(s)
	gMin := s.MustGrain(cube.GrainSpec{Attr: "t", Level: "minute"})
	ti, _ := s.AttrIndex("t")
	if err := w.AddBasic("perMin", gMin, measure.Spec{Func: measure.Sum}, "v"); err != nil {
		t.Fatal(err)
	}
	if err := w.AddSliding("mov", gMin, measure.Spec{Func: measure.Sum}, "perMin",
		workflow.RangeAnn{Attr: ti, Low: -1, High: 2}); err != nil {
		t.Fatal(err)
	}
	e, err := New(w)
	if err != nil {
		t.Fatal(err)
	}
	lastMinute := int64(2*1440 - 1) // domain: minutes 0..2879
	records := []cube.Record{rec(0, 10, 0), rec(0, 20, lastMinute*60)}

	got, stats, err := e.Evaluate(cloneRecords(records), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Minute 0 probes {0,1,2} (offset -1 below domain); minute 2879 probes
	// {2878,2879} (offsets +1,+2 past the domain edge are skipped).
	if stats.WindowLookups != 5 {
		t.Errorf("WindowLookups = %d, want 5 (domain-bounded)", stats.WindowLookups)
	}
	want, refStats := refEvaluate(t, e, cloneRecords(records), Options{})
	if refStats.WindowLookups != 7 {
		t.Errorf("reference WindowLookups = %d, want 7 (probes past the edge)", refStats.WindowLookups)
	}
	sameResults(t, "window edge", want, got)
}
