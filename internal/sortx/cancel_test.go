package sortx

import (
	"context"
	"errors"
	"fmt"
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

// TestSpillAbortsOnCancel cancels before a spill and verifies Add
// surfaces ctx.Err() instead of writing the run.
func TestSpillAbortsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := NewContext(ctx, intCmp, intCodec{}, t.TempDir(), 4)
	for i := 0; i < 3; i++ {
		if err := s.Add(i); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	// The 4th Add triggers the spill, which must abort.
	err := s.Add(3)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled from the spill path, got %v", err)
	}
	if s.Stats().Runs != 0 {
		t.Fatalf("cancelled spill still wrote %d runs", s.Stats().Runs)
	}
	s.Close()
}

// TestMergeAbortsOnCancel cancels mid-merge and verifies the iterator
// surfaces ctx.Err() within one check interval.
func TestMergeAbortsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := NewContext(ctx, intCmp, intCodec{}, t.TempDir(), 8)
	const n = 10 * cancelCheckInterval
	for i := 0; i < n; i++ {
		if err := s.Add(i); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.Iterate()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	cancel()
	sawCancel := false
	for i := 0; i < 2*cancelCheckInterval; i++ {
		if _, _, err := it.Next(); err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			sawCancel = true
			break
		}
	}
	if !sawCancel {
		t.Fatal("merge kept going past a full check interval after cancel")
	}
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
