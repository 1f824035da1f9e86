package mr

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/casm-project/casm/internal/transport"
)

// sumJob builds a job big enough to be mid-flight at any cancel point:
// n numeric records (the rows 0…n-1) mapped to (key mod groups, 1) pairs,
// reduced to per-key counts. SortMemoryItems=2 forces a spill every third
// pair, so cancellation always lands with spill state on disk.
func sumJob(n int, cfg Config) Job {
	return Job{
		Name:  "sum",
		Input: indexInput(n, 8),
		Map: perRow(func(ctx *MapCtx, row []int64) error {
			return ctx.Emit([]byte(strconv.Itoa(int(row[0])%199)), one)
		}),
		Reduce: func(ctx *ReduceCtx, key []byte, values *GroupIter) error {
			total := 0
			for {
				_, ok, err := values.Next()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				total++
			}
			ctx.Emit(key, []byte(strconv.Itoa(total)))
			return nil
		},
		Config: cfg,
	}
}

// assertSpilled fails the test unless some reducer of the job spilled a
// sorted run: the tests that force spills with a tiny grouping budget
// exist to exercise the spill and merge path.
func assertSpilled(t *testing.T, js JobStats) {
	t.Helper()
	for _, rt := range js.ReduceTasks {
		if rt.SpillRuns > 0 {
			return
		}
	}
	t.Fatal("no reducer spilled")
}

// settleGoroutines waits for the goroutine count to stop changing and
// returns it — the baseline for leak assertions. Called after a warm-up
// job so the shared executor's workers and any lazy runtime state are
// already counted.
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
// (teardown is asynchronous — collector services need a moment to observe
// their closed streams).
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
// dir — spill runs are unlinked at creation, so leaked descriptors are
// the only way their disk space survives teardown.
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

// TestCancelAtRandomPoints is the cancellation property test: a job
// cancelled at a randomized point — during the map/shuffle phase (by
// record count or wall-clock timer) or mid-reduce (by group count) —
// must return an error satisfying errors.Is(err, context.Canceled)
// within 2 seconds of the cancel, leave no spill state behind, and leak
// no goroutines. Spills are forced on every third pair.
func TestCancelAtRandomPoints(t *testing.T) {
	// Uncancelled, the job below spills: its teardown has runs to reclaim.
	res, err := Run(sumJob(6000, Config{NumReducers: 3, SortMemoryItems: 2, TempDir: t.TempDir()}))
	if err != nil {
		t.Fatal(err) // also warms the shared executor before baselining
	}
	assertSpilled(t, res.Stats)
	baseline := settleGoroutines(t)

	rng := rand.New(rand.NewSource(7))
	for _, trigger := range []string{"map", "timer", "reduce"} {
		for iter := 0; iter < 3; iter++ {
			// The "channel" name level is kept only so test IDs stay stable.
			name := fmt.Sprintf("channel/%s/%d", trigger, iter)
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var cancelledAt atomic.Int64
				doCancel := func() {
					cancelledAt.CompareAndSwap(0, time.Now().UnixNano())
					cancel()
				}

				job := sumJob(6000, Config{
					NumReducers:     3,
					newTransport:    func(n int) (transport.Transport, error) { return transport.NewChannel(n, 4) }, // senders sit on backpressure
					SortMemoryItems: 2,
					TempDir:         dir,
				})
				var mapped, reduced atomic.Int64
				switch trigger {
				case "map":
					threshold := int64(1 + rng.Intn(6000))
					inner := job.Map
					job.Map = func(ctx *MapCtx, b Batch) error {
						if crossed(&mapped, b.N, threshold) {
							doCancel()
						}
						return inner(ctx, b)
					}
				case "timer":
					// Lands anywhere in the pipeline, including the
					// shuffle drain between map and reduce.
					d := time.Duration(rng.Intn(12_000)) * time.Microsecond
					timer := time.AfterFunc(d, doCancel)
					defer timer.Stop()
				case "reduce":
					threshold := int64(1 + rng.Intn(40))
					inner := job.Reduce
					job.Reduce = func(ctx *ReduceCtx, key []byte, values *GroupIter) error {
						if reduced.Add(1) == threshold {
							doCancel()
						}
						return inner(ctx, key, values)
					}
				}

				_, err := RunContext(ctx, job)
				returned := time.Now().UnixNano()
				if at := cancelledAt.Load(); at != 0 {
					if err == nil {
						// The job can win the race and complete before
						// the cancellation lands; that is a pass.
						t.Logf("job completed before cancellation took effect")
					} else if !errors.Is(err, context.Canceled) {
						t.Fatalf("want context.Canceled, got %v", err)
					}
					if lag := time.Duration(returned - at); lag > 2*time.Second {
						t.Fatalf("teardown took %v after cancel", lag)
					}
				} else if err != nil {
					t.Fatalf("uncancelled job failed: %v", err)
				}

				if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
					t.Fatalf("spill dir not empty after teardown: %v entries, err=%v", len(ents), err)
				}
				if fds := openFDsInDir(t, dir); len(fds) != 0 {
					t.Fatalf("spill descriptors leaked: %v", fds)
				}
			})
		}
	}
	waitForGoroutines(t, baseline)
}

// TestNoGoroutineLeakAcrossOutcomes pins the teardown contract for all
// three job outcomes — success, task failure, external cancel: after
// each, the process returns to its goroutine baseline and holds no
// descriptors into the spill directory.
func TestNoGoroutineLeakAcrossOutcomes(t *testing.T) {
	if _, err := Run(sumJob(500, Config{NumReducers: 2, TempDir: t.TempDir()})); err != nil {
		t.Fatal(err)
	}
	baseline := settleGoroutines(t)

	cfgFor := func(dir string) Config {
		return Config{
			NumReducers:     2,
			newTransport:    func(n int) (transport.Transport, error) { return transport.NewChannel(n, 4) }, // senders sit on backpressure
			SortMemoryItems: 2,
			TempDir:         dir,
		}
	}
	// The "channel" name level is kept only so test IDs stay stable.
	t.Run("channel/success", func(t *testing.T) {
		dir := t.TempDir()
		res, err := Run(sumJob(2000, cfgFor(dir)))
		if err != nil {
			t.Fatal(err)
		}
		assertSpilled(t, res.Stats)
		if fds := openFDsInDir(t, dir); len(fds) != 0 {
			t.Fatalf("spill descriptors leaked: %v", fds)
		}
	})
	t.Run("channel/error", func(t *testing.T) {
		dir := t.TempDir()
		job := sumJob(2000, cfgFor(dir))
		var n atomic.Int64
		inner := job.Map
		job.Map = func(ctx *MapCtx, b Batch) error {
			if crossed(&n, b.N, 1500) {
				return fmt.Errorf("injected map failure")
			}
			return inner(ctx, b)
		}
		_, err := Run(job)
		if err == nil || !strings.Contains(err.Error(), "injected map failure") {
			t.Fatalf("err = %v", err)
		}
		if errors.Is(err, context.Canceled) {
			t.Fatalf("real failure classified as cancellation: %v", err)
		}
		if !strings.Contains(err.Error(), "mr: map task ") {
			t.Fatalf("error lost its task identity: %v", err)
		}
		if fds := openFDsInDir(t, dir); len(fds) != 0 {
			t.Fatalf("spill descriptors leaked: %v", fds)
		}
	})
	t.Run("channel/cancel", func(t *testing.T) {
		dir := t.TempDir()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		job := sumJob(4000, cfgFor(dir))
		var n atomic.Int64
		inner := job.Map
		job.Map = func(mctx *MapCtx, b Batch) error {
			if crossed(&n, b.N, 1000) {
				cancel()
			}
			return inner(mctx, b)
		}
		if _, err := RunContext(ctx, job); !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		if fds := openFDsInDir(t, dir); len(fds) != 0 {
			t.Fatalf("spill descriptors leaked: %v", fds)
		}
	})
	waitForGoroutines(t, baseline)
}

// TestSpillStateReclaimedOnReduceFailure is the spill-lifecycle
// satellite: a job failing mid-reduce — after the collectors have
// spilled runs to disk — must leave the temp directory empty and close
// every spill descriptor on teardown, including the sibling reducer's
// collector that never got iterated.
func TestSpillStateReclaimedOnReduceFailure(t *testing.T) {
	dir := t.TempDir()
	job := sumJob(3000, Config{
		NumReducers:     2,
		SortMemoryItems: 2,
		TempDir:         dir,
	})
	job.Reduce = func(ctx *ReduceCtx, key []byte, values *GroupIter) error {
		return fmt.Errorf("injected reduce failure")
	}
	res, err := Run(job)
	if err == nil {
		t.Fatal("failing reduce succeeded")
	}
	if res != nil {
		t.Fatal("failed job returned a result")
	}
	if !strings.Contains(err.Error(), "mr: reduce task ") {
		t.Fatalf("error lost its task identity: %v", err)
	}
	ents, rdErr := os.ReadDir(dir)
	if rdErr != nil {
		t.Fatal(rdErr)
	}
	if len(ents) != 0 {
		t.Fatalf("%d entries left in spill dir after failure", len(ents))
	}
	if fds := openFDsInDir(t, dir); len(fds) != 0 {
		t.Fatalf("spill descriptors leaked: %v", fds)
	}
}

// TestMultiTaskFailuresAllReported pins the errors.Join satellite: when
// several tasks fail independently, the job error carries each of them,
// labelled, rather than the old first-error-wins single cause.
func TestMultiTaskFailuresAllReported(t *testing.T) {
	job := sumJob(100, Config{
		NumReducers: 2,
		TempDir:     t.TempDir(),
		// Fail two specific reduce tasks: reduce tasks of one group all
		// start together, so both record their error before cancellation
		// propagates from the other.
	})
	job.Reduce = func(ctx *ReduceCtx, key []byte, values *GroupIter) error {
		if err := values.Drain(); err != nil {
			return err
		}
		return fmt.Errorf("reducer boom")
	}
	_, err := Run(job)
	if err == nil {
		t.Fatal("failing job succeeded")
	}
	if !strings.Contains(err.Error(), "reducer boom") || !strings.Contains(err.Error(), "mr: reduce task ") {
		t.Fatalf("err = %v", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("real failure satisfies errors.Is(Canceled): %v", err)
	}
}
