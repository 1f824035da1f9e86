package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/casm-project/casm/internal/exec"
	"github.com/casm-project/casm/internal/workload"
)

// TestConcurrentEvaluateSharedExecutor is the shared-runtime property: N
// EvaluateContext calls racing on ONE bounded executor must each produce
// exactly the sequential result. This exercises FIFO-fair admission
// across jobs, the per-job Limit, and the service-task path (each job's
// shuffle collectors must keep draining while the pool is saturated with
// other jobs' map tasks — with 8 jobs on 4 workers, any collector stuck
// waiting for a pool slot would deadlock the whole test).
func TestConcurrentEvaluateSharedExecutor(t *testing.T) {
	su := workload.NewSuite()
	records := su.Generate(2500, workload.Uniform, 17)
	ds := MemoryDataset(su.Schema, records, 6)
	w := su.Q5()
	want := oracle(t, w, records)

	ex := exec.New(4)
	defer ex.Close()
	eng, err := NewEngine(Config{NumReducers: 4, executor: ex, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}

	sequential, err := eng.EvaluateContext(context.Background(), w, ds)
	if err != nil {
		t.Fatal(err)
	}
	compare(t, "sequential", want, flatten(sequential))

	const jobs = 8
	results := make([]*Result, jobs)
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = eng.EvaluateContext(context.Background(), w, ds)
		}()
	}
	wg.Wait()
	for i := 0; i < jobs; i++ {
		if errs[i] != nil {
			t.Fatalf("concurrent job %d: %v", i, errs[i])
		}
		compare(t, fmt.Sprintf("concurrent job %d", i), want, flatten(results[i]))
		assertSameMeasures(t, i, sequential, results[i])
	}
}

// assertSameMeasures checks record-for-record equality with the
// sequential run — concurrency must not even reorder the output, since
// the engine sorts each measure by region key.
func assertSameMeasures(t *testing.T, job int, want, got *Result) {
	t.Helper()
	if len(got.Measures) != len(want.Measures) {
		t.Fatalf("job %d: %d measures, want %d", job, len(got.Measures), len(want.Measures))
	}
	for name, wm := range want.Measures {
		gm := got.Measures[name]
		if len(gm) != len(wm) {
			t.Fatalf("job %d: measure %s: %d records, want %d", job, name, len(gm), len(wm))
		}
		for i := range wm {
			if gm[i].Value != wm[i].Value || gm[i].Region.Key() != wm[i].Region.Key() {
				t.Fatalf("job %d: measure %s: record %d differs from sequential", job, name, i)
			}
		}
	}
}
