package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGroupRunsAllTasks(t *testing.T) {
	e := New(4)
	defer e.Close()
	g := e.NewGroup(context.Background(), Options{})
	var n atomic.Int64
	for i := 0; i < 100; i++ {
		g.Go(fmt.Sprintf("t%d", i), nil, func(ctx context.Context) error {
			n.Add(1)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 100 {
		t.Fatalf("ran %d of 100 tasks", n.Load())
	}
}

func TestGroupLimitBoundsConcurrency(t *testing.T) {
	e := New(8)
	defer e.Close()
	g := e.NewGroup(context.Background(), Options{Limit: 2})
	var cur, peak atomic.Int64
	for i := 0; i < 32; i++ {
		g.Go("t", nil, func(ctx context.Context) error {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("peak concurrency %d exceeds group limit 2", p)
	}
}

// TestRoundRobinAcrossGroups starves neither of two groups sharing one
// worker: with FIFO-fair admission, one group cannot monopolize the pool
// even when its whole queue was submitted first.
func TestRoundRobinAcrossGroups(t *testing.T) {
	e := New(1)
	defer e.Close()
	var mu sync.Mutex
	var order []string
	ga := e.NewGroup(context.Background(), Options{})
	gb := e.NewGroup(context.Background(), Options{})
	record := func(tag string) func(context.Context) error {
		return func(ctx context.Context) error {
			mu.Lock()
			order = append(order, tag)
			mu.Unlock()
			return nil
		}
	}
	// Stall the single worker so both queues fill before anything runs.
	gate := make(chan struct{})
	ga.Go("gate", nil, func(ctx context.Context) error { <-gate; return nil })
	for i := 0; i < 3; i++ {
		ga.Go("a", nil, record("a"))
		gb.Go("b", nil, record("b"))
	}
	close(gate)
	if err := ga.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := gb.Wait(); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(order, "")
	// Strict alternation between the two groups (starting with either).
	if got != "ababab" && got != "bababa" {
		t.Fatalf("expected round-robin interleaving, got %q", got)
	}
}

func TestErrorsJoinedWithLabels(t *testing.T) {
	e := New(2)
	defer e.Close()
	g := e.NewGroup(context.Background(), Options{})
	boom1, boom2 := errors.New("boom-1"), errors.New("boom-2")
	g.Go("task-one", nil, func(ctx context.Context) error { return boom1 })
	g.Go("task-two", nil, func(ctx context.Context) error { return boom2 })
	err := g.Wait()
	if err == nil {
		t.Fatal("expected error")
	}
	if !errors.Is(err, boom1) || !errors.Is(err, boom2) {
		t.Fatalf("join lost a member: %v", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "task-one: boom-1") || !strings.Contains(msg, "task-two: boom-2") {
		t.Fatalf("labels missing from %q", msg)
	}
}

// TestWaitSeesTaskError: Wait returns only after a finished task's error
// is recorded. Were the group released before the record, a waiter woken
// in between would read a nil error; many one-task groups give that
// interleaving its chances, pooled and service alike.
func TestWaitSeesTaskError(t *testing.T) {
	e := New(2)
	defer e.Close()
	boom := errors.New("boom")
	for i := 0; i < 5000; i++ {
		g := e.NewGroup(context.Background(), Options{})
		if i%2 == 0 {
			g.Go("pooled", nil, func(ctx context.Context) error { return boom })
		} else {
			g.GoService("service", func(ctx context.Context) error { return boom })
		}
		if err := g.Wait(); !errors.Is(err, boom) {
			t.Fatalf("group %d: Wait = %v, want the task's error", i, err)
		}
	}
}

func TestCancellationClassifiedSeparately(t *testing.T) {
	e := New(2)
	defer e.Close()

	// Pure cancellation: Wait returns the context error.
	ctx, cancel := context.WithCancel(context.Background())
	g := e.NewGroup(ctx, Options{})
	g.Go("t", nil, func(ctx context.Context) error {
		cancel()
		<-ctx.Done()
		return ctx.Err()
	})
	err := g.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}

	// A real error alongside cancellation: the real error wins and the
	// ctx.Err() noise from sibling teardown is not joined in.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	boom := errors.New("boom")
	g2 := e.NewGroup(ctx2, Options{OnError: cancel2})
	g2.Go("bad", nil, func(ctx context.Context) error { return boom })
	g2.Go("victim", nil, func(ctx context.Context) error {
		<-ctx.Done()
		return ctx.Err()
	})
	err = g2.Wait()
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("cancellation noise joined into %q", err)
	}
}

func TestOnErrorFiresOnce(t *testing.T) {
	e := New(4)
	defer e.Close()
	var fires atomic.Int64
	g := e.NewGroup(context.Background(), Options{OnError: func() { fires.Add(1) }})
	for i := 0; i < 8; i++ {
		g.Go("t", nil, func(ctx context.Context) error { return errors.New("x") })
	}
	if err := g.Wait(); err == nil {
		t.Fatal("expected error")
	}
	if fires.Load() != 1 {
		t.Fatalf("OnError fired %d times", fires.Load())
	}
}

func TestGoServiceRunsOutsidePool(t *testing.T) {
	// A 1-worker pool whose only worker is blocked: a service task must
	// still run (that is the collector-vs-backpressure guarantee).
	e := New(1)
	defer e.Close()
	g := e.NewGroup(context.Background(), Options{})
	release := make(chan struct{})
	g.Go("blocker", nil, func(ctx context.Context) error { <-release; return nil })
	done := make(chan struct{})
	g.GoService("svc", func(ctx context.Context) error {
		close(done)
		return nil
	})
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("service task starved by a full pool")
	}
	close(release)
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestTimingStamped(t *testing.T) {
	e := New(1)
	defer e.Close()
	g := e.NewGroup(context.Background(), Options{})
	var tm Timing
	before := time.Now()
	g.Go("t", &tm, func(ctx context.Context) error {
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if tm.Start.Before(before) || tm.Start.IsZero() {
		t.Fatalf("Start not stamped at dispatch: %v", tm.Start)
	}
	if tm.Wall < 5*time.Millisecond {
		t.Fatalf("Wall %v shorter than the task's sleep", tm.Wall)
	}
}

func TestSharedExecutorManyGroups(t *testing.T) {
	e := New(4)
	defer e.Close()
	var n atomic.Int64
	var wg sync.WaitGroup
	for j := 0; j < 8; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := e.NewGroup(context.Background(), Options{Limit: 2})
			for i := 0; i < 50; i++ {
				g.Go("t", nil, func(ctx context.Context) error {
					n.Add(1)
					return nil
				})
			}
			if err := g.Wait(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n.Load() != 400 {
		t.Fatalf("ran %d of 400 tasks", n.Load())
	}
}
