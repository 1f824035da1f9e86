package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/casm-project/casm/internal/exec"
	"github.com/casm-project/casm/internal/workflow"
	"github.com/casm-project/casm/internal/workload"
)

// settleGoroutines waits for the goroutine count to stop changing and
// returns it — the baseline for leak assertions.
func settleGoroutines(t *testing.T) int {
	t.Helper()
	last, stable := runtime.NumGoroutine(), 0
	for i := 0; i < 500 && stable < 10; i++ {
		time.Sleep(2 * time.Millisecond)
		if n := runtime.NumGoroutine(); n == last {
			stable++
		} else {
			last, stable = n, 0
		}
	}
	return last
}

// waitForGoroutines asserts the goroutine count returns to the baseline
// (teardown is asynchronous).
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			m := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s", n, baseline, buf[:m])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// openFDsInDir lists this process's open file descriptors resolving into
// dir.
func openFDsInDir(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	var got []string
	for _, e := range ents {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		if err == nil && strings.HasPrefix(target, dir) {
			got = append(got, target)
		}
	}
	return got
}

func newTestService(t *testing.T, cfg ServiceConfig) *Service {
	t.Helper()
	if cfg.Engine.NumReducers == 0 {
		cfg.Engine.NumReducers = 4
	}
	if cfg.Engine.TempDir == "" {
		cfg.Engine.TempDir = t.TempDir()
	}
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestServiceMultiTenantConcurrent is the resident-service property: N
// tenants × M concurrent queries on one small shared pool must (a) honor
// each tenant's in-flight limit, (b) produce results byte-identical to
// sequential runs, and (c) serve repeated queries from the decision
// cache. Run under -race this also audits the admission/registry locking.
func TestServiceMultiTenantConcurrent(t *testing.T) {
	su := workload.NewSuite()
	records := su.Generate(2500, workload.Uniform, 17)
	svc := newTestService(t, ServiceConfig{
		Engine:            Config{NumReducers: 4},
		Workers:           4,
		PerTenantInFlight: 2,
	})
	defer svc.Drain(context.Background())
	if err := svc.Register("events", MemoryDataset(su.Schema, records, 6)); err != nil {
		t.Fatal(err)
	}

	queries := []int{1, 2, 5}
	wants := make([]*Result, len(queries))
	for qi, q := range queries {
		w, err := su.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := svc.Evaluate(context.Background(), "warmup", "events", w)
		if err != nil {
			t.Fatal(err)
		}
		wants[qi] = res
		compare(t, fmt.Sprintf("sequential Q%d", q), oracle(t, w, records), flatten(res))
	}

	const (
		tenants   = 3
		perTenant = 4 // concurrent submissions per tenant (limit is 2)
	)
	var wg sync.WaitGroup
	type run struct {
		res *Result
		tm  exec.Timing
		err error
		qi  int
	}
	runs := make([]run, tenants*perTenant)
	for ti := 0; ti < tenants; ti++ {
		tenant := fmt.Sprintf("tenant-%d", ti)
		for j := 0; j < perTenant; j++ {
			i := ti*perTenant + j
			qi := (ti + j) % len(queries)
			wg.Add(1)
			go func() {
				defer wg.Done()
				w, err := su.Query(queries[qi])
				if err != nil {
					runs[i].err = err
					return
				}
				res, tm, err := svc.Evaluate(context.Background(), tenant, "events", w)
				runs[i] = run{res: res, tm: tm, err: err, qi: qi}
			}()
		}
	}
	wg.Wait()

	for i, r := range runs {
		if r.err != nil {
			t.Fatalf("run %d: %v", i, r.err)
		}
		assertSameMeasures(t, i, wants[r.qi], r.res)
		if r.tm.Start.IsZero() || r.tm.Wall <= 0 {
			t.Fatalf("run %d: timing not stamped: %+v", i, r.tm)
		}
	}

	st := svc.Stats()
	if st.Admission.InFlight != 0 || st.Admission.Queued != 0 {
		t.Fatalf("service not idle: %+v", st.Admission)
	}
	for tenant, p := range st.Admission.TenantPeak {
		if p > 2 {
			t.Fatalf("tenant %s peak in-flight %d exceeds limit 2", tenant, p)
		}
	}
	// The warmup populated the cache; every concurrent run re-used a
	// decision instead of re-planning.
	if st.PlanCacheHits < int64(len(runs)) {
		t.Fatalf("plan cache hits = %d, want >= %d", st.PlanCacheHits, len(runs))
	}
	if st.Evaluations != int64(len(runs)+len(queries)) {
		t.Fatalf("evaluations = %d, want %d", st.Evaluations, len(runs)+len(queries))
	}
}

// TestServiceDecisionCacheSecondHit: the second submission of the same
// query must come back PlanCached with no planning (and, under
// SkewSampling, no re-sampling: SampleSeconds stays zero on the hit).
func TestServiceDecisionCacheSecondHit(t *testing.T) {
	su := workload.NewSuite()
	records := su.Generate(3000, workload.SkewedTime, 7)
	for _, mode := range []SkewMode{SkewNone, SkewSampling} {
		svc := newTestService(t, ServiceConfig{
			Engine: Config{NumReducers: 4, SkewMode: mode, SampleSize: 500},
		})
		if err := svc.Register("skewed", MemoryDataset(su.Schema, records, 6)); err != nil {
			t.Fatal(err)
		}
		w := su.Q1()
		first, _, err := svc.Evaluate(context.Background(), "t", "skewed", w)
		if err != nil {
			t.Fatal(err)
		}
		if first.PlanCached {
			t.Fatalf("mode %v: first run unexpectedly cache-hit", mode)
		}
		second, _, err := svc.Evaluate(context.Background(), "t", "skewed", w)
		if err != nil {
			t.Fatal(err)
		}
		if !second.PlanCached {
			t.Fatalf("mode %v: second run did not hit the decision cache", mode)
		}
		if second.SampleSeconds != 0 {
			t.Fatalf("mode %v: cached run re-sampled (SampleSeconds=%v)", mode, second.SampleSeconds)
		}
		assertSameMeasures(t, 0, first, second)
		if st := svc.Stats(); st.PlanCacheHits != 1 || st.PlanCacheMisses != 1 {
			t.Fatalf("mode %v: cache counters hits=%d misses=%d, want 1/1", mode, st.PlanCacheHits, st.PlanCacheMisses)
		}
		if err := svc.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServiceDrain: drain lets running jobs finish, rejects late
// submissions with the typed error, and tears down leak-free — goroutines
// and spill-dir file descriptors return to the pre-service baseline.
func TestServiceDrain(t *testing.T) {
	su := workload.NewSuite()
	records := su.Generate(2000, workload.Uniform, 3)
	w := su.Q1()
	dir := t.TempDir()

	// Baseline before the service exists: its owned pool must die with it.
	baseline := settleGoroutines(t)

	svc := newTestService(t, ServiceConfig{
		Engine:  Config{NumReducers: 4, TempDir: dir},
		Workers: 4,
	})
	if err := svc.Register("events", MemoryDataset(su.Schema, records, 6)); err != nil {
		t.Fatal(err)
	}

	// Work racing the drain: the admitted jobs must complete successfully.
	const jobs = 3
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, errs[i] = svc.Evaluate(context.Background(), fmt.Sprintf("t%d", i), "events", w)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}

	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !svc.Draining() {
		t.Fatal("Draining() = false after Drain")
	}
	if _, _, err := svc.Evaluate(context.Background(), "late", "events", w); !errors.Is(err, exec.ErrDraining) {
		t.Fatalf("post-drain Evaluate err = %v, want ErrDraining", err)
	}
	if _, err := svc.EvaluateStream(context.Background(), "late", "events", w); !errors.Is(err, exec.ErrDraining) {
		t.Fatalf("post-drain EvaluateStream err = %v, want ErrDraining", err)
	}
	// Idempotent.
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	waitForGoroutines(t, baseline)
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("spill dir not empty after drain: %d entries, err=%v", len(ents), err)
	}
	if fds := openFDsInDir(t, dir); len(fds) != 0 {
		t.Fatalf("spill descriptors leaked: %v", fds)
	}
}

// TestServiceStreamHoldsAdmission: a streaming evaluation owns its
// tenant's admission slot until Close — a tenant at its limit via an open
// stream queues, and closing the stream releases the slot.
func TestServiceStreamHoldsAdmission(t *testing.T) {
	su := workload.NewSuite()
	records := su.Generate(1500, workload.Uniform, 5)
	svc := newTestService(t, ServiceConfig{
		Engine:            Config{NumReducers: 2},
		PerTenantInFlight: 1,
	})
	defer svc.Drain(context.Background())
	if err := svc.Register("events", MemoryDataset(su.Schema, records, 4)); err != nil {
		t.Fatal(err)
	}
	w := su.Q1()

	st, err := svc.EvaluateStream(context.Background(), "t", "events", w)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for {
		_, ok, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		rows++
	}
	if rows == 0 {
		t.Fatal("stream yielded no rows")
	}
	// Fully drained but not closed: the slot is still held.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	if _, _, err := svc.Evaluate(ctx, "t", "events", w); !errors.Is(err, context.DeadlineExceeded) {
		cancel()
		t.Fatalf("Evaluate while stream open: err = %v, want DeadlineExceeded", err)
	}
	cancel()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if tm := st.Timing(); tm.Start.IsZero() {
		t.Fatal("stream timing not stamped")
	}
	if _, _, err := svc.Evaluate(context.Background(), "t", "events", w); err != nil {
		t.Fatalf("Evaluate after stream close: %v", err)
	}
	// Double close stays idempotent.
	if err := st.Close(); err != nil {
		t.Fatalf("second stream Close: %v", err)
	}
}

// TestServiceStreamCountsOnlyCompleted: Evaluations counts completed
// evaluations, so a stream abandoned mid-way is not one, and a stream
// consumed to its end counts once, at Close.
func TestServiceStreamCountsOnlyCompleted(t *testing.T) {
	su := workload.NewSuite()
	svc := newTestService(t, ServiceConfig{Engine: Config{NumReducers: 2}})
	defer svc.Drain(context.Background())
	if err := svc.Register("events", MemoryDataset(su.Schema, su.Generate(1500, workload.Uniform, 5), 4)); err != nil {
		t.Fatal(err)
	}

	st, err := svc.EvaluateStream(context.Background(), "t", "events", su.Q1())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Next(); !ok || err != nil {
		t.Fatalf("first row: ok=%v err=%v", ok, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if n := svc.Stats().Evaluations; n != 0 {
		t.Fatalf("Evaluations = %d after an early-closed stream, want 0", n)
	}

	st, err = svc.EvaluateStream(context.Background(), "t", "events", su.Q1())
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, ok, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if n := svc.Stats().Evaluations; n != 0 {
		t.Fatalf("Evaluations = %d before the drained stream was closed, want 0", n)
	}
	st.Close()
	st.Close()
	if n := svc.Stats().Evaluations; n != 1 {
		t.Fatalf("Evaluations = %d after one completed stream, want 1", n)
	}
}

// TestServiceStreamWallFrozenByClose: Timing().Wall is zero while the
// stream is open and stops growing once Close has stamped it.
func TestServiceStreamWallFrozenByClose(t *testing.T) {
	su := workload.NewSuite()
	svc := newTestService(t, ServiceConfig{Engine: Config{NumReducers: 2}})
	defer svc.Drain(context.Background())
	if err := svc.Register("events", MemoryDataset(su.Schema, su.Generate(1500, workload.Uniform, 5), 4)); err != nil {
		t.Fatal(err)
	}
	st, err := svc.EvaluateStream(context.Background(), "t", "events", su.Q1())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close() // a failed check must not leave Drain waiting on the slot
	if w := st.Timing().Wall; w != 0 {
		t.Fatalf("Wall = %v on an open stream, want 0", w)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	wall := st.Timing().Wall
	if wall <= 0 {
		t.Fatalf("Wall = %v after Close", wall)
	}
	time.Sleep(5 * time.Millisecond)
	st.Close()
	if again := st.Timing().Wall; again != wall {
		t.Fatalf("Wall moved after Close: %v then %v", wall, again)
	}
}

// TestServiceRegistry: unknown datasets fail with the typed error,
// duplicate registration is rejected, and registration settles identity
// (cardinality counted once, tag stamped).
func TestServiceRegistry(t *testing.T) {
	su := workload.NewSuite()
	svc := newTestService(t, ServiceConfig{Engine: Config{NumReducers: 2}})
	defer svc.Drain(context.Background())

	if _, _, err := svc.Evaluate(context.Background(), "t", "nope", su.Q1()); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("unknown dataset err = %v, want ErrUnknownDataset", err)
	}
	records := su.Generate(500, workload.Uniform, 1)
	ds := MemoryDataset(su.Schema, records, 4)
	ds.NumRecords = 0 // force the registration-time count
	if err := svc.Register("events", ds); err != nil {
		t.Fatal(err)
	}
	if err := svc.Register("events", MemoryDataset(su.Schema, records, 4)); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	got, err := svc.Dataset("events")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRecords != int64(len(records)) {
		t.Fatalf("registered cardinality = %d, want %d", got.NumRecords, len(records))
	}
	if got.Tag != "svc:events" {
		t.Fatalf("registered tag = %q, want %q", got.Tag, "svc:events")
	}
	if names := svc.Datasets(); len(names) != 1 || names[0] != "events" {
		t.Fatalf("Datasets() = %v", names)
	}
}

// TestServiceBatch: batch submissions run under one admission slot and
// their per-query results match individual evaluations.
func TestServiceBatch(t *testing.T) {
	su := workload.NewSuite()
	records := su.Generate(2000, workload.Uniform, 11)
	svc := newTestService(t, ServiceConfig{Engine: Config{NumReducers: 4}})
	defer svc.Drain(context.Background())
	if err := svc.Register("events", MemoryDataset(su.Schema, records, 6)); err != nil {
		t.Fatal(err)
	}
	var ws []*workflow.Workflow
	for _, q := range []int{1, 2} {
		w, err := su.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	res, tm, err := svc.EvaluateBatch(context.Background(), "t", "events", ws)
	if err != nil {
		t.Fatal(err)
	}
	if tm.Start.IsZero() || tm.Wall <= 0 {
		t.Fatalf("batch timing not stamped: %+v", tm)
	}
	if len(res.Results) != len(ws) {
		t.Fatalf("batch returned %d results, want %d", len(res.Results), len(ws))
	}
	for i, w := range ws {
		seq, _, err := svc.Evaluate(context.Background(), "t", "events", w)
		if err != nil {
			t.Fatal(err)
		}
		assertSameMeasures(t, i, seq, res.Results[i])
	}
	if st := svc.Stats(); st.Evaluations != int64(len(ws)*2) {
		t.Fatalf("evaluations = %d, want %d", st.Evaluations, len(ws)*2)
	}
}
