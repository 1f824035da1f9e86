package core

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"github.com/casm-project/casm/internal/workflow"
	"github.com/casm-project/casm/internal/workload"
)

// TestWarmJobAllocatesWhatItKeeps is ROADMAP item 1's warm-job ceiling: a
// job on an engine that has run it before allocates what its Result keeps
// — one MeasureRecord and the coordinates of each row — plus a small
// residue per input record. The job is reduce_fineout's shape: Q1 over
// memory records, whose plan key is fine and unannotated, 32 splits and 8
// reducers. It runs at two record counts 4x apart, each twice, and the
// second run of each is measured with the collector held off, so the count
// is exact; the difference between the two counts cancels what a job
// costs whatever its size (its channels, tasks and plan).
func TestWarmJobAllocatesWhatItKeeps(t *testing.T) {
	su := workload.NewSuite()
	w, arity := su.Q1(), su.Schema.NumAttrs()
	eng, err := NewEngine(Config{NumReducers: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rowBytes := float64(unsafe.Sizeof(MeasureRecord{}) + 8*uintptr(arity))
	const small, large = 3_000, 12_000
	datasets := map[int]*Dataset{}
	for _, n := range []int{large, small, large, small} { // warm-up runs
		if datasets[n] == nil {
			datasets[n] = MemoryDataset(su.Schema, su.Generate(n, workload.Uniform, 7), 32)
		}
		if _, err := eng.EvaluateContext(ctx, w, datasets[n]); err != nil {
			t.Fatal(err)
		}
	}
	// residue runs the job over n records again, three times, and returns
	// the least any run allocated beyond its Result's rows: which spare a
	// job's buffer gets, and so whether it must grow, depends on how its
	// tasks interleave, and growth only adds.
	residue := func(n int) float64 {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		least := math.Inf(1)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := eng.EvaluateContext(ctx, w, datasets[n])
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			rows := 0
			for _, recs := range res.Measures {
				rows += len(recs)
			}
			least = min(least, float64(after.TotalAlloc-before.TotalAlloc)-rowBytes*float64(rows))
		}
		return least
	}
	perRecord := -residue(small)
	perRecord = (perRecord + residue(large)) / (large - small)
	t.Logf("a warm job allocates %.1f bytes per input record beyond its Result", perRecord)
	if perRecord > 64 {
		t.Errorf("a warm job allocates %.1f bytes per input record beyond its Result, want ≤ 64", perRecord)
	}
}

// TestWarmRunsMatchColdOnes holds buffer reuse to never handing out a
// buffer still in use: jobs that take turns with the free lists — Q1, Q6,
// DS0 aggregated early, and the three spilling every second pair — answer
// byte for byte what each answered on an engine of its own, whether they
// run interleaved one after another or as two concurrent clients of one
// Service, and each reduce task reports the EvalArenaBytes it reported
// cold: what its groups needed, not what a spare brought. Under -race it
// also checks the lists' locking.
func TestWarmRunsMatchColdOnes(t *testing.T) {
	su := workload.NewSuite()
	ds := MemoryDataset(su.Schema, su.Generate(3000, workload.Uniform, 11), 6)
	ds0, err := su.DS(0)
	if err != nil {
		t.Fatal(err)
	}
	queries := map[string]*workflow.Workflow{"q1": su.Q1(), "q6": su.Q6(), "ds0": ds0}
	configs := map[string]Config{
		"plain": {NumReducers: 4},
		"early": {NumReducers: 4, EarlyAggregation: EarlyAggAuto},
		"spill": {NumReducers: 4, EarlyAggregation: EarlyAggAuto, SortMemoryItems: 2, TempDir: t.TempDir()},
	}
	type run struct{ config, query string }
	runs := []run{{"plain", "q1"}, {"plain", "q6"}, {"early", "ds0"}, {"spill", "q1"}, {"spill", "q6"}, {"spill", "ds0"}}
	ctx := context.Background()
	cold := map[run][]byte{}
	coldArena := map[run][]int64{}
	arenas := func(res *Result) []int64 {
		var out []int64
		for _, rt := range res.Stats.ReduceTasks {
			out = append(out, rt.EvalArenaBytes)
		}
		return out
	}
	for _, r := range runs {
		eng, err := NewEngine(configs[r.config])
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.EvaluateContext(ctx, queries[r.query], ds)
		if err != nil {
			t.Fatal(err)
		}
		cold[r], coldArena[r] = resultBytes(t, res), arenas(res)
	}

	engines := map[string]*Engine{}
	for name, cfg := range configs {
		if engines[name], err = NewEngine(cfg); err != nil {
			t.Fatal(err)
		}
	}
	for round := range 3 {
		for i := range runs {
			r := runs[(i+2*round)%len(runs)]
			res, err := engines[r.config].EvaluateContext(ctx, queries[r.query], ds)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resultBytes(t, res), cold[r]) {
				t.Errorf("round %d: warm %s %s differs from its cold answer", round, r.config, r.query)
			}
			if got := arenas(res); !slices.Equal(got, coldArena[r]) {
				t.Errorf("round %d: warm %s %s reports arenas of %v bytes, cold %v", round, r.config, r.query, got, coldArena[r])
			}
		}
	}

	svc := newTestService(t, ServiceConfig{Engine: configs["spill"], Workers: 2})
	defer svc.Drain(ctx)
	if err := svc.Register("events", ds); err != nil {
		t.Fatal(err)
	}
	order := []string{"q1", "q6", "ds0"}
	var wg sync.WaitGroup
	for client := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 2 * len(order) {
				q := order[(i+client)%len(order)]
				res, _, err := svc.Evaluate(ctx, "t", "events", queries[q])
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(resultBytes(t, res), cold[run{"spill", q}]) {
					t.Errorf("client %d: %s beside the other client differs from its cold answer", client, q)
				}
			}
		}()
	}
	wg.Wait()
}
