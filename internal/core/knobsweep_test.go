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
// knob — combined-key sort, early aggregation, and a forced-spill memory
// budget — over random bit-stable workflows and demands byte-identical
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
			for _, sortMode := range []SortMode{TwoPassSort, CombinedKeySort} {
				for _, early := range []EarlyAggMode{EarlyAggOff, EarlyAggAuto} {
					for _, memItems := range []int{0, 2} { // 0 = default budget; 2 forces spills
						label := fmt.Sprintf("sort=%v early=%v mem=%d", sortMode, early, memItems)
						cfg := Config{
							NumReducers:      1 + rng.Intn(6),
							SortMode:         sortMode,
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
			}
		})
	}
}

// TestHashGroupingMatchesSortedByteIdentical is the grouping property
// test. How reducers group is derived, not configured: TwoPassSort ships
// plain block keys and hash-groups, CombinedKeySort ships composite keys
// and sort-groups. For random bit-stable workflows and datasets, the two
// must produce byte-identical measure output — with a roomy in-memory
// budget and with a tiny one that forces the hash table through its
// spill fallback — and each must really have taken its path.
func TestHashGroupingMatchesSortedByteIdentical(t *testing.T) {
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
			for _, memItems := range []int{0, 2} { // 0 = default budget; 2 forces spills
				resHash := runEngine(t, Config{NumReducers: reducers, SortMemoryItems: memItems}, w, ds)
				resSort := runEngine(t, Config{NumReducers: reducers, SortMemoryItems: memItems, SortMode: CombinedKeySort}, w, ds)

				label := fmt.Sprintf("seed %d mem %d", seed, memItems)
				if got, wantOut := canonicalOutput(resHash), canonicalOutput(resSort); got != wantOut {
					t.Errorf("%s: hash output differs from sorted output\nhash:\n%s\nsorted:\n%s", label, got, wantOut)
				}
				// Both paths must also still match the single-block oracle.
				compare(t, label+" sorted", want, flatten(resSort))
				compare(t, label+" hash", want, flatten(resHash))

				// The paths must really have been exercised.
				var hashGroups, spills, bigReducers int64
				for _, rt := range resHash.Stats.ReduceTasks {
					hashGroups += rt.HashGroups
					spills += rt.GroupSpills
					if rt.PairsIn > 2 {
						bigReducers++
					}
				}
				if hashGroups == 0 {
					t.Errorf("%s: two-pass run reported no HashGroups", label)
				}
				if memItems == 2 && bigReducers > 0 && spills == 0 {
					t.Errorf("%s: forced-spill two-pass run reported no GroupSpills", label)
				}
				for _, rt := range resSort.Stats.ReduceTasks {
					if rt.HashGroups != 0 {
						t.Errorf("%s: combined-key run reported HashGroups=%d", label, rt.HashGroups)
					}
				}
			}
		})
	}
}
