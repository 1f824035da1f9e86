package core

import (
	"fmt"
	"math"
	"testing"

	"github.com/casm-project/casm/internal/costmodel"
	"github.com/casm-project/casm/internal/workflow"
	"github.com/casm-project/casm/internal/workload"
)

// TestCombinedKeyPricing pins CombinedKey to the combined-key sort it
// replaced: each want is math.Float64bits of Estimate.Total() of a real
// combined-key run (composite shuffle keys, sorted grouping, no in-group
// sort) of the same query, data and reducer count, captured before that
// mode was deleted. The rewritten two-pass counters must price to the
// same bits, and below the two-pass run itself.
func TestCombinedKeyPricing(t *testing.T) {
	su := workload.NewSuite()
	ds := MemoryDataset(su.Schema, su.Generate(2000, workload.Uniform, 9), 4)
	want := map[string]uint64{
		"q1/m1": 0x40000fa991e4dc42, "q1/m3": 0x400006603d2b69b8, "q1/m16": 0x400002cc7f709a60,
		"q2/m1": 0x40000ded1798f335, "q2/m3": 0x400005d24ae9c17e, "q2/m16": 0x400002a178bf88a8,
		"q3/m1": 0x40000ead4bd10926, "q3/m3": 0x40000637ba64e71c, "q3/m16": 0x400002b9974c1344,
		"q4/m1": 0x40000de22fde6458, "q4/m3": 0x400005ee1e39a2cc, "q4/m16": 0x400002a98c3c14ca,
		"q5/m1": 0x40000db99b6aa46d, "q5/m3": 0x400006ea5377fe34, "q5/m16": 0x400003102496ac90,
		"q6/m1": 0x40000e58923b50c2, "q6/m3": 0x400007eed10069a4, "q6/m16": 0x400004e228046460,
	}
	for q := 1; q <= 6; q++ {
		for _, m := range []int{1, 3, 16} {
			name := fmt.Sprintf("q%d/m%d", q, m)
			t.Run(name, func(t *testing.T) {
				w, err := su.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				res := runEngine(t, Config{NumReducers: m}, w, ds)
				var sorted int64
				for _, rt := range res.Stats.ReduceTasks {
					sorted += rt.GroupSortItems
				}
				if sorted == 0 {
					t.Fatal("the two-pass run priced no in-group sort")
				}
				cf, ok := CombinedKey(res.Stats)
				if !ok {
					t.Fatal("CombinedKey refused a run that neither spilled nor combined")
				}
				got := EstimateFromStats(costmodel.DefaultCluster(), cf).Total() + res.SampleSeconds
				if math.Float64bits(got) != want[name] {
					t.Errorf("priced %v (%#x), the combined-key run priced %v (%#x)",
						got, math.Float64bits(got), math.Float64frombits(want[name]), want[name])
				}
				if two := res.Estimate.Total(); got >= two {
					t.Errorf("combined key %v not below the two-pass run's %v", got, two)
				}
			})
		}
	}
}

// TestCombinedKeyRefuses: the price exists only for a run the combined
// key would have run the same way — one that spilled wrote the shorter
// keys, and one that combined on the map side never carried a record.
func TestCombinedKeyRefuses(t *testing.T) {
	su := workload.NewSuite()
	ds := MemoryDataset(su.Schema, su.Generate(2000, workload.Uniform, 9), 4)
	ds0, err := su.DS(0)
	if err != nil {
		t.Fatal(err)
	}
	spilled := func(r *Result) bool {
		for _, rt := range r.Stats.ReduceTasks {
			if rt.SpillRuns > 0 {
				return true
			}
		}
		return false
	}
	for _, tc := range []struct {
		name string
		w    *workflow.Workflow
		cfg  Config
		did  func(*Result) bool // the run really did what the case needs
	}{
		{"spilled", su.Q6(), Config{NumReducers: 3, SortMemoryItems: 2}, spilled},
		{"combined", ds0, Config{NumReducers: 3, EarlyAggregation: EarlyAggAuto}, func(r *Result) bool { return r.EarlyAggregated }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := runEngine(t, tc.cfg, tc.w, ds)
			if !tc.did(res) {
				t.Fatalf("the run has not %s", tc.name)
			}
			if _, ok := CombinedKey(res.Stats); ok {
				t.Error("CombinedKey priced the run")
			}
		})
	}
}
