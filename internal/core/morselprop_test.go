package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/casm-project/casm/internal/workload"
)

// TestMorselEquivalenceByteIdentical is the engine-level morsel ≡
// fixed-split property: over random bit-stable workflows, a forced-spill
// collector budget (SortMemoryItems=2), and a forced-overflow local table
// (LocalAggBudget=2), morsel-driven map execution must produce
// byte-identical measure output to the fixed-split path (and agree with
// the single-block oracle). This is what licenses flipping MorselBytes on
// for any workload: the knob may only move wall time, never a bit of
// output.
func TestMorselEquivalenceByteIdentical(t *testing.T) {
	su := workload.NewSuite()
	seeds := 5
	if testing.Short() {
		seeds = 2
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7000 + seed)))
			w := randomWorkflowOpts(t, su.Schema, rng, true)
			records := su.Generate(400+rng.Intn(800), workload.Uniform, int64(seed))
			ds := MemoryDataset(su.Schema, records, 2+rng.Intn(5))
			want := oracle(t, w, records)
			reducers := 1 + rng.Intn(6)

			var baseOut, baseLabel string
			for _, morselBytes := range []int{0, 512} { // 0 = fixed splits; 512 carves every split
				// Random workflows may draw holistic measures, where the
				// combiner cannot run; EarlyAggAuto exercises the local
				// table exactly when it is allowed to exist.
				for _, early := range []EarlyAggMode{EarlyAggOff, EarlyAggAuto} {
					label := fmt.Sprintf("morsel=%d early=%v", morselBytes, early)
					cfg := Config{
						NumReducers:      reducers,
						EarlyAggregation: early,
						SortMemoryItems:  2, // force reduce-side spills
						MorselBytes:      morselBytes,
						LocalAggBudget:   2, // force local-table overflow flushes
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
