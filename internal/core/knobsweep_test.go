package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/workload"
)

// canonicalOutput serializes a result's measure records exactly — region
// coordinates plus the raw float bits — so two runs can be compared for
// byte-identical output, not just approximate equality.
func canonicalOutput(res *Result) string {
	names := make([]string, 0, len(res.Measures))
	for name := range res.Measures {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		sb.WriteString(name)
		sb.WriteByte('\n')
		for _, m := range res.Measures[name] {
			fmt.Fprintf(&sb, "  %x %016x\n", cube.EncodeCoords(m.Region.Coord), math.Float64bits(m.Value))
		}
	}
	return sb.String()
}

// TestEngineKnobSweepByteIdentical sweeps every evaluator-relevant engine
// knob — early aggregation and a forced-spill memory budget — over random bit-stable workflows and demands byte-identical
// measure output from every combination (and agreement with the
// single-block oracle). This is the engine-level leg of the arena-session
// equivalence property: whatever path feeds the reduce-side evaluator
// session, the floats coming out must not move by a bit.
func TestEngineKnobSweepByteIdentical(t *testing.T) {
	su := workload.NewSuite()
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(6000 + seed)))
			w := randomWorkflowOpts(t, su.Schema, rng, true)
			records := su.Generate(400+rng.Intn(800), workload.Uniform, int64(seed))
			ds := MemoryDataset(su.Schema, records, 1+rng.Intn(6))
			want := oracle(t, w, records)

			var baseOut, baseLabel string
			for _, early := range []EarlyAggMode{EarlyAggOff, EarlyAggAuto} {
				for _, memItems := range []int{0, 2} { // 0 = default budget; 2 forces spills
					label := fmt.Sprintf("early=%v mem=%d", early, memItems)
					cfg := Config{
						NumReducers:      1 + rng.Intn(6),
						EarlyAggregation: early,
						SortMemoryItems:  memItems,
					}
					res := runEngine(t, cfg, w, ds)
					compare(t, label, want, flatten(res))
					out := canonicalOutput(res)
					if baseOut == "" {
						baseOut, baseLabel = out, label
					} else if out != baseOut {
						t.Errorf("output of %q differs byte-wise from %q", label, baseLabel)
					}
				}
			}
		})
	}
}

// TestHashGroupingMatchesOracle is the grouping property test: every
// reducer hash-groups its pairs by block. For random bit-stable workflows
// and datasets, the job must match the single-block oracle and produce
// byte-identical measure output with a roomy in-memory budget and with a
// tiny one that forces the hash table through its spill fallback — and
// must really have taken that fallback. (That the hash collector's stream
// is a stable sort's of the pairs is groupx's TestHashMatchesSort.)
func TestHashGroupingMatchesOracle(t *testing.T) {
	su := workload.NewSuite()
	seeds := 10
	if testing.Short() {
		seeds = 4
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(3000 + seed)))
			w := randomWorkflowOpts(t, su.Schema, rng, true)
			dist := workload.Uniform
			if rng.Intn(3) == 0 {
				dist = workload.SkewedTime
			}
			records := su.Generate(400+rng.Intn(1200), dist, int64(seed))
			ds := MemoryDataset(su.Schema, records, 1+rng.Intn(6))
			reducers := 1 + rng.Intn(6)
			want := oracle(t, w, records)
			var roomy string
			for _, memItems := range []int{0, 2} { // 0 = default budget; 2 forces spills
				res := runEngine(t, Config{NumReducers: reducers, SortMemoryItems: memItems}, w, ds)

				label := fmt.Sprintf("seed %d mem %d", seed, memItems)
				compare(t, label, want, flatten(res))
				if out := canonicalOutput(res); memItems == 0 {
					roomy = out
				} else if out != roomy {
					t.Errorf("%s: spilled output differs from the in-memory output\nspilled:\n%s\nin memory:\n%s", label, out, roomy)
				}

				// The spill fallback must really have been exercised.
				var hashGroups, spills, bigReducers int64
				for _, rt := range res.Stats.ReduceTasks {
					hashGroups += rt.HashGroups
					spills += rt.SpillRuns
					if rt.PairsIn > 2 {
						bigReducers++
					}
				}
				if hashGroups == 0 {
					t.Errorf("%s: run reported no HashGroups", label)
				}
				if memItems == 2 && bigReducers > 0 && spills == 0 {
					t.Errorf("%s: forced-spill run reported no SpillRuns", label)
				}
			}
		})
	}
}
