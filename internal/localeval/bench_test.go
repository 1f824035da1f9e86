package localeval

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/measure"
	"github.com/casm-project/casm/internal/workflow"
)

// benchEvaluator builds the workflow the benchmarks run: two basics at
// the minute grain, an hour-level basic, a self ratio and a rollup —
// optionally plus a sliding window, the probe-heaviest measure kind.
func benchEvaluator(tb testing.TB, withWindow bool) *Evaluator {
	tb.Helper()
	s := testSchema(tb)
	w := workflow.New(s)
	gMin := s.MustGrain(cube.GrainSpec{Attr: "k", Level: "word"}, cube.GrainSpec{Attr: "t", Level: "minute"})
	gHour := s.MustGrain(cube.GrainSpec{Attr: "k", Level: "word"}, cube.GrainSpec{Attr: "t", Level: "hour"})
	ti, _ := s.AttrIndex("t")
	must := func(err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
	}
	must(w.AddBasic("sum", gMin, measure.Spec{Func: measure.Sum}, "v"))
	must(w.AddBasic("cnt", gMin, measure.Spec{Func: measure.Count}, ""))
	must(w.AddBasic("hourly", gHour, measure.Spec{Func: measure.Sum}, "v"))
	must(w.AddSelf("ratio", gMin, measure.Ratio(), "sum", "hourly"))
	must(w.AddRollup("peak", gHour, measure.Spec{Func: measure.Max}, "sum"))
	if withWindow {
		must(w.AddSliding("mov", gMin, measure.Spec{Func: measure.Sum}, "sum",
			workflow.RangeAnn{Attr: ti, Low: -3, High: 0}))
	}
	e, err := New(w)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// benchBlock generates one block of n records over 10 keys and 4 hours.
// Clustered blocks arrive pre-sorted (the combined-key delivery order);
// shuffled blocks arrive in random order and pay the in-block sort.
func benchBlock(n int, clustered bool) []cube.Record {
	rng := rand.New(rand.NewSource(42))
	records := make([]cube.Record, n)
	for i := range records {
		records[i] = rec(rng.Int63n(10), rng.Int63n(1000), rng.Int63n(4*3600))
	}
	if clustered {
		SortRecords(records)
	}
	return records
}

// BenchmarkEvaluate measures one session evaluating a 4096-record block
// (~2.4k distinct regions), the reduce-side inner loop. Run with
// -benchmem: a warmed session allocates nothing per block.
func BenchmarkEvaluate(b *testing.B) {
	for _, win := range []struct {
		name string
		on   bool
	}{{"plain", false}, {"window", true}} {
		e := benchEvaluator(b, win.on)
		for _, layout := range []struct {
			name      string
			clustered bool
		}{{"clustered", true}, {"shuffled", false}} {
			records := benchBlock(4096, layout.clustered)
			b.Run(fmt.Sprintf("%s/%s", win.name, layout.name), func(b *testing.B) {
				ss := e.NewSession()
				run := func() {
					for _, r := range records {
						ss.AppendRecord(r)
					}
					if _, _, err := ss.EvaluateBlock(Options{SkipSort: layout.clustered}); err != nil {
						b.Fatal(err)
					}
				}
				run() // warm the arena, region indexes and slots
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run()
				}
			})
		}
	}
}

// TestEvaluateAllocsIndependentOfRecordCount pins the headline property
// of the arena session: with the region set held fixed, a warmed session
// allocates the same amount per block whether the block has 2k or 20k
// records — steady-state allocations are O(regions), not O(records).
func TestEvaluateAllocsIndependentOfRecordCount(t *testing.T) {
	e := benchEvaluator(t, true)
	ss := e.NewSession()
	// i mod 10 and i mod 120 lock every block onto the same 120 (k,
	// minute) regions regardless of length.
	load := func(n int) {
		for i := 0; i < n; i++ {
			ss.AppendRecord(rec(int64(i%10), int64(i%1000), int64((i%120)*60)))
		}
	}
	perBlock := func(n int) float64 {
		return testing.AllocsPerRun(10, func() {
			load(n)
			if _, _, err := ss.EvaluateBlock(Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	perBlock(20_000) // warm at the largest size first
	small := perBlock(2_000)
	large := perBlock(20_000)
	if large > small*1.5+16 {
		t.Errorf("allocs grew with record count: %.0f allocs at 2k records, %.0f at 20k", small, large)
	}
	t.Logf("allocs/block: %.0f at 2k records, %.0f at 20k", small, large)
}
