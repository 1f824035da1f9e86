package sortx

import (
	"fmt"
	"runtime"
	"syscall"
	"testing"
)

func intCmp(a, b int) int { return a - b }

type intCodec struct{}

func (intCodec) EncodeTo(dst []byte, v int) ([]byte, error) {
	return append(dst, []byte(fmt.Sprintf("%08d", v))...), nil
}
func (intCodec) Decode(b []byte) (int, error) {
	var v int
	_, err := fmt.Sscanf(string(b), "%d", &v)
	return v, err
}

// TestCloseWithoutIterate releases spill runs on the teardown path.
func TestCloseWithoutIterate(t *testing.T) {
	s := New(intCmp, intCodec{}, t.TempDir(), 4)
	for i := 0; i < 20; i++ {
		if err := s.Add(i); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().Runs == 0 {
		t.Fatal("test needs spilled runs")
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Iterate(); err == nil {
		t.Fatal("Iterate after Close succeeded")
	}
}

// TestSpillHoldsOneDescriptor: however many runs a sorter spills, they
// share one open file, so a reducer spilling ten thousand runs works
// under a descriptor limit of 256 and merges them back in order.
func TestSpillHoldsOneDescriptor(t *testing.T) {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		t.Fatal(err)
	}
	low := lim
	low.Cur = min(lim.Cur, 256)
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &low); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
			t.Error(err)
		}
	})

	const runs, budget = 10000, 4
	s := New(intCmp, intCodec{}, t.TempDir(), budget)
	defer s.Close()
	for i := runs*budget - 1; i >= 0; i-- {
		if err := s.Add(i); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().Runs; got != runs {
		t.Fatalf("%d runs, want %d", got, runs)
	}
	it, err := s.Iterate()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	for want := 0; ; want++ {
		got, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if want != runs*budget {
				t.Fatalf("merged %d items, want %d", want, runs*budget)
			}
			return
		}
		if got != want {
			t.Fatalf("item %d is %d", want, got)
		}
	}
}

// TestSpillReusesRunWriter: the 64 KiB run writer belongs to the sorter,
// not to the run — forty more runs cost a span each in the sorter's one
// run file, nowhere near a buffer apiece.
func TestSpillReusesRunWriter(t *testing.T) {
	spillRuns := func(runs int) uint64 {
		s := New(cmpInt64, int64Codec{}, t.TempDir(), 4)
		defer s.Close()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 4*runs; i++ {
			if err := s.Add(int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if s.Stats().Runs != runs {
			t.Fatalf("%d runs, want %d", s.Stats().Runs, runs)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	spillRuns(1) // warm up
	perRun := float64(spillRuns(50)-spillRuns(10)) / 40
	t.Logf("%.0f bytes allocated per additional run", perRun)
	if perRun > 4096 {
		t.Errorf("each additional run allocated %.0f bytes, want well under a 64 KiB writer", perRun)
	}
}
