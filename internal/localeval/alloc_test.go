package localeval

import (
	"testing"

	"github.com/casm-project/casm/internal/workflow"
	"github.com/casm-project/casm/internal/workload"
)

// TestEvaluateBlockAllocatesNothing pins the per-block cost the session is
// built for: once warmed, evaluating a block of 1, 15 or 1 024 rows
// allocates nothing — no map, heap object or string per region — for a
// Q1-shaped workflow (three basics at three grains), a DS2-shaped one (a
// rollup and a self measure over both grains) and a Q5-shaped one (a
// sliding window).
func TestEvaluateBlockAllocatesNothing(t *testing.T) {
	su := workload.NewSuite()
	ds2, err := su.DS(2)
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range map[string]*workflow.Workflow{"Q1": su.Q1(), "DS2": ds2, "Q5": su.Q5()} {
		e, err := New(w)
		if err != nil {
			t.Fatal(err)
		}
		ss := e.NewSession()
		for _, n := range []int{1, 15, 1024} {
			records := su.Generate(n, workload.SkewedTime, int64(n))
			evaluate := func() {
				for _, r := range records {
					ss.AppendRecord(r)
				}
				if out, _, err := ss.EvaluateBlock(Options{}); err != nil || len(out) == 0 {
					t.Fatalf("%s, %d rows: %d results, err %v", name, n, len(out), err)
				}
			}
			evaluate() // warm
			if got := testing.AllocsPerRun(20, evaluate); got != 0 {
				t.Errorf("%s: a block of %d rows allocated %.1f times, want 0", name, n, got)
			}
		}
	}
}
