//go:build linux

package exec_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/casm-project/casm/internal/core"
	"github.com/casm-project/casm/internal/exec"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/workload"
)

// countJob is a job big enough to be mid-flight at every fault: n records
// of one column keyed by their value mod 199 and reduced to one item per
// key, over 4 reducers that spill every second pair into runs under dir.
func countJob(n int, dir string) mr.Job[[]byte] {
	rows := make([]int64, n)
	for i := range rows {
		rows[i] = int64(i)
	}
	return mr.Job[[]byte]{
		Name:  "count",
		Input: mr.NewMemoryInput(rows, 1, 8),
		Map: func(ctx *mr.MapCtx, b mr.Batch) error {
			for _, v := range b.Cols[0] {
				if err := ctx.Emit([]byte(strconv.Itoa(int(v%199))), []byte{1}); err != nil {
					return err
				}
			}
			return nil
		},
		Reduce: func(ctx *mr.ReduceCtx[[]byte], key []byte, values *mr.GroupIter) error {
			if err := values.Drain(); err != nil {
				return err
			}
			ctx.Emit(append([]byte(nil), key...), 1)
			return nil
		},
		Config: mr.Config{NumReducers: 4, SortMemoryItems: 2, TempDir: dir},
	}
}

// breakRuns makes every later write to a spill run under dir fail: it puts
// a read-only descriptor in the place of each run file's.
func breakRuns(dir string) (int, error) {
	ro, err := os.Open(dir)
	if err != nil {
		return 0, err
	}
	defer ro.Close()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0, err
	}
	broken := 0
	for _, e := range ents {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		if err != nil || !strings.HasPrefix(target, filepath.Join(dir, "groupx-run-")) {
			continue
		}
		fd, _ := strconv.Atoi(e.Name())
		if err := syscall.Dup3(int(ro.Fd()), fd, 0); err != nil {
			return broken, err
		}
		broken++
	}
	return broken, nil
}

// TestLoansComeBackAfterFaults holds every buffer free list to its
// contract: whatever ends a job — the end of its output, a cancel during
// the shuffle or the reduce, a failing reduce function, a spill-run write
// error or the consumer closing its stream early — every buffer the job
// took is back on its list, or handed on for good, once the job has
// returned.
func TestLoansComeBackAfterFaults(t *testing.T) {
	if _, err := os.Stat("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd to find the spill runs' descriptors in")
	}
	su := workload.NewSuite()
	records := su.Generate(4000, workload.Uniform, 3)
	ds := core.MemoryDataset(su.Schema, records, 8)
	eng, err := core.NewEngine(core.Config{NumReducers: 4})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		// run makes the fault and fails the test if the job does not
		// fail as the fault says.
		run func(t *testing.T, dir string)
	}{
		{"job ends", func(t *testing.T, dir string) {
			if _, err := mr.Run(countJob(20_000, dir)); err != nil {
				t.Fatal(err)
			}
		}},
		{"cancel mid-shuffle", func(t *testing.T, dir string) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			job := countJob(20_000, dir)
			mapFn := job.Map
			var seen atomic.Int32
			job.Map = func(mctx *mr.MapCtx, b mr.Batch) error {
				if seen.Add(1) == 4 {
					cancel()
				}
				return mapFn(mctx, b)
			}
			if _, err := mr.RunContext(ctx, job); !errors.Is(err, context.Canceled) {
				t.Fatalf("got %v, want a cancelled job", err)
			}
		}},
		{"cancel mid-reduce", func(t *testing.T, dir string) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			job := countJob(20_000, dir)
			reduce := job.Reduce
			job.Reduce = func(rctx *mr.ReduceCtx[[]byte], key []byte, values *mr.GroupIter) error {
				cancel()
				return reduce(rctx, key, values)
			}
			if _, err := mr.RunContext(ctx, job); !errors.Is(err, context.Canceled) {
				t.Fatalf("got %v, want a cancelled job", err)
			}
		}},
		{"failing reduce", func(t *testing.T, dir string) {
			job := countJob(20_000, dir)
			job.Reduce = func(*mr.ReduceCtx[[]byte], []byte, *mr.GroupIter) error { return errors.New("injected") }
			if _, err := mr.Run(job); err == nil || !strings.Contains(err.Error(), "injected") {
				t.Fatalf("got %v, want the reduce function's error", err)
			}
		}},
		{"spill-run write error", func(t *testing.T, dir string) {
			job := countJob(20_000, dir)
			mapFn := job.Map
			var once sync.Once
			var broke error
			job.Map = func(mctx *mr.MapCtx, b mr.Batch) error {
				if err := mapFn(mctx, b); err != nil {
					return err
				}
				// The batch's pairs have reached the collector in four full
				// shuffle batches, so it has spilled; break its run file.
				once.Do(func() {
					for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
						n, err := breakRuns(dir)
						if broke = err; err != nil || n > 0 {
							return
						}
						if time.Now().After(deadline) {
							broke = errors.New("no spill run appeared")
							return
						}
					}
				})
				return broke
			}
			job.Config.NumReducers = 1 // one collector: its run exists once it has spilled
			if _, err := mr.Run(job); err == nil || !strings.Contains(err.Error(), "write run") {
				t.Fatalf("got %v, want a spill-run write error", err)
			}
		}},
		{"pipe closed before its end", func(t *testing.T, dir string) {
			pipe, err := mr.RunPipe(context.Background(), countJob(20_000, dir))
			if err != nil {
				t.Fatal(err)
			}
			if _, ok, err := pipe.Next(); !ok || err != nil {
				t.Fatalf("first item: ok=%v err=%v", ok, err)
			}
			if err := pipe.Close(); err != nil {
				t.Fatal(err)
			}
		}},
		{"engine stream closed after its first row", func(t *testing.T, _ string) {
			rs, err := eng.EvaluateStream(context.Background(), su.Q1(), ds)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok, err := rs.Next(); !ok || err != nil {
				t.Fatalf("first row: ok=%v err=%v", ok, err)
			}
			if err := rs.Close(); err != nil {
				t.Fatal(err)
			}
		}},
		{"engine stream cancelled mid-reduce", func(t *testing.T, _ string) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			rs, err := eng.EvaluateStream(ctx, su.Q6(), ds)
			if err != nil {
				t.Fatal(err)
			}
			defer rs.Close()
			for _, ok, err := rs.Next(); ; _, ok, err = rs.Next() {
				cancel()
				if !ok {
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("got %v, want a cancelled stream", err)
					}
					break
				}
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.run(t, t.TempDir())
			for name, n := range exec.Loans() {
				if n != 0 {
					t.Errorf("%s has %d buffers on loan after the job returned", name, n)
				}
			}
		})
	}
}
