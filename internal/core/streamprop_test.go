package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/workflow"
	"github.com/casm-project/casm/internal/workload"
)

// streamToResult evaluates the workflow through the streaming API and
// re-materializes the rows into a Result, sorting each measure by
// encoded coordinates — the canonical order the materialized plane uses —
// so both planes can be compared byte for byte. Rows arrive in
// reduce-completion order and their coordinate buffers are reused, so the
// sink copies coords per row, exactly as a real streaming consumer that
// retains rows must.
func streamToResult(t *testing.T, cfg Config, w *workflow.Workflow, ds *Dataset) *Result {
	t.Helper()
	cfg.TempDir = t.TempDir()
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := eng.EvaluateStream(context.Background(), w, ds)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	res := &Result{Measures: map[string][]MeasureRecord{}}
	for {
		row, ok, err := rs.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		coords := append([]int64(nil), row.Region.Coord...)
		res.Measures[row.Measure] = append(res.Measures[row.Measure], MeasureRecord{
			Region: cube.Region{Grain: row.Region.Grain, Coord: coords},
			Value:  row.Value,
		})
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	for name := range res.Measures {
		ms := res.Measures[name]
		sort.Slice(ms, func(i, j int) bool {
			return cube.EncodeCoords(ms[i].Region.Coord) < cube.EncodeCoords(ms[j].Region.Coord)
		})
	}
	res.Stats = rs.Stats()
	return res
}

// TestStreamEquivalenceByteIdentical is the streaming plane's equivalence
// property: over random bit-stable workflows, a forced-spill collector
// budget (SortMemoryItems=2), and morsel-driven map execution on and off,
// consuming the evaluation through EvaluateStream must yield
// byte-identical canonical output to the materialized EvaluateContext
// result (which itself agrees with the single-block oracle). This is what licenses streaming as the default sink for
// bounded-memory runs: the handoff mode may only change peak heap and
// first-row latency, never a bit of output.
func TestStreamEquivalenceByteIdentical(t *testing.T) {
	su := workload.NewSuite()
	seeds := 5
	if testing.Short() {
		seeds = 2
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(9000 + seed)))
			w := randomWorkflowOpts(t, su.Schema, rng, true)
			records := su.Generate(400+rng.Intn(800), workload.Uniform, int64(seed))
			ds := MemoryDataset(su.Schema, records, 2+rng.Intn(5))
			want := oracle(t, w, records)
			reducers := 1 + rng.Intn(6)

			for _, morselBytes := range []int{0, 512} { // 0 = fixed splits; 512 carves every split
				label := fmt.Sprintf("morsel=%d", morselBytes)
				cfg := Config{
					NumReducers:     reducers,
					SortMemoryItems: 2, // force reduce-side spills
					MorselBytes:     morselBytes,
				}
				mat := runEngine(t, cfg, w, ds)
				str := streamToResult(t, cfg, w, ds)
				compare(t, label+" (streamed)", want, flatten(str))
				if got, wantOut := canonicalOutput(str), canonicalOutput(mat); got != wantOut {
					t.Errorf("%s: streamed output differs byte-wise from materialized", label)
				}
				if str.Stats.TotalOutputRecords() != mat.Stats.TotalOutputRecords() {
					t.Errorf("%s: streamed %d output records, materialized %d",
						label, str.Stats.TotalOutputRecords(), mat.Stats.TotalOutputRecords())
				}
			}
		})
	}
}
