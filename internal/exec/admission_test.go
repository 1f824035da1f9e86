package exec

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestAdmissionPerTenantLimit(t *testing.T) {
	a := NewAdmission(AdmissionConfig{PerTenant: 2, Queue: 8})
	t1, err := a.Admit(context.Background(), "alice", nil)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := a.Admit(context.Background(), "alice", nil)
	if err != nil {
		t.Fatal(err)
	}
	// A second tenant is unaffected by alice being at her limit.
	b1, err := a.Admit(context.Background(), "bob", nil)
	if err != nil {
		t.Fatal(err)
	}
	b1.Release()

	// Third alice admission must wait for a release, and the wait must be
	// stamped into Timing.Queue: at least the time from seeing it queued
	// (after its Admit began) to the release (before it is admitted).
	var tm Timing
	admitted := make(chan *Ticket)
	go func() {
		tk, err := a.Admit(context.Background(), "alice", &tm)
		if err != nil {
			t.Error(err)
		}
		admitted <- tk
	}()
	waitForQueued(t, a, 1)
	queuedAt := time.Now()
	select {
	case <-admitted:
		t.Fatal("third admission should have queued")
	case <-time.After(50 * time.Millisecond):
	}
	if st := a.Stats(); st.Queued != 1 || st.TenantInFlight["alice"] != 2 {
		t.Fatalf("stats before release: %+v", st)
	}
	held := time.Since(queuedAt)
	t1.Release()
	tk := <-admitted
	if tm.Queue < held {
		t.Fatalf("Timing.Queue = %v, want >= the %v of admission wait observed", tm.Queue, held)
	}
	if tm.Start.IsZero() {
		t.Fatal("Timing.Start not stamped")
	}
	tk.Release()
	t2.Release()

	st := a.Stats()
	if st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("not idle after releases: %+v", st)
	}
	if st.TenantPeak["alice"] != 2 {
		t.Fatalf("alice peak = %d, want 2", st.TenantPeak["alice"])
	}
	if st.Admitted != 4 {
		t.Fatalf("admitted = %d, want 4", st.Admitted)
	}
}

func TestAdmissionQueueFull(t *testing.T) {
	a := NewAdmission(AdmissionConfig{PerTenant: 1, Queue: 1})
	tk, err := a.Admit(context.Background(), "t", nil)
	if err != nil {
		t.Fatal(err)
	}
	// One waiter fits the queue...
	queued := make(chan error, 1)
	go func() {
		w, err := a.Admit(context.Background(), "t", nil)
		if w != nil {
			w.Release()
		}
		queued <- err
	}()
	waitForQueued(t, a, 1)
	// ...the next is rejected immediately with the typed error.
	if _, err := a.Admit(context.Background(), "t", nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	tk.Release()
	if err := <-queued; err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.RejectedQueueFull != 1 {
		t.Fatalf("rejected_queue_full = %d, want 1", st.RejectedQueueFull)
	}
}

func TestAdmissionContextCancelWhileQueued(t *testing.T) {
	a := NewAdmission(AdmissionConfig{PerTenant: 1, Queue: 4})
	tk, err := a.Admit(context.Background(), "t", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := a.Admit(ctx, "t", nil)
		done <- err
	}()
	waitForQueued(t, a, 1)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := a.Stats(); st.Queued != 0 {
		t.Fatalf("cancelled waiter still queued: %+v", st)
	}
	// The slot is untouched: a release still admits cleanly.
	tk.Release()
	tk2, err := a.Admit(context.Background(), "t", nil)
	if err != nil {
		t.Fatal(err)
	}
	tk2.Release()
}

func TestAdmissionDrain(t *testing.T) {
	a := NewAdmission(AdmissionConfig{PerTenant: 1, Queue: 4})
	tk, err := a.Admit(context.Background(), "t", nil)
	if err != nil {
		t.Fatal(err)
	}
	// A queued waiter fails with ErrDraining the moment Drain begins.
	queued := make(chan error, 1)
	go func() {
		_, err := a.Admit(context.Background(), "t", nil)
		queued <- err
	}()
	waitForQueued(t, a, 1)

	// Drain with work in flight times out with the context's error; the
	// drain stays in effect.
	short, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := a.Drain(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain with running work = %v, want DeadlineExceeded", err)
	}
	if err := <-queued; !errors.Is(err, ErrDraining) {
		t.Fatalf("queued waiter err = %v, want ErrDraining", err)
	}
	// New submissions are rejected immediately.
	if _, err := a.Admit(context.Background(), "u", nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain Admit = %v, want ErrDraining", err)
	}

	// Once the running job releases, Drain completes.
	done := make(chan error, 1)
	go func() { done <- a.Drain(context.Background()) }()
	time.Sleep(10 * time.Millisecond)
	tk.Release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Idempotent once idle.
	if err := a.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if !st.Draining || st.InFlight != 0 || st.RejectedDraining != 2 {
		t.Fatalf("post-drain stats: %+v", st)
	}
}

// TestAdmissionConcurrentLimitRace hammers one controller from many
// goroutines across several tenants and asserts — via the controller's
// own peak accounting plus an independent per-tenant counter — that no
// tenant ever exceeds its in-flight limit.
func TestAdmissionConcurrentLimitRace(t *testing.T) {
	const (
		perTenant = 3
		tenants   = 4
		workers   = 8
		rounds    = 50
	)
	a := NewAdmission(AdmissionConfig{PerTenant: perTenant, Queue: workers * tenants})
	var mu sync.Mutex
	cur := make(map[string]int)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < rounds; i++ {
				tenant := string(rune('a' + rng.Intn(tenants)))
				tk, err := a.Admit(context.Background(), tenant, nil)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				cur[tenant]++
				if cur[tenant] > perTenant {
					t.Errorf("tenant %s at %d in flight, limit %d", tenant, cur[tenant], perTenant)
				}
				mu.Unlock()
				time.Sleep(time.Duration(rng.Intn(100)) * time.Microsecond)
				mu.Lock()
				cur[tenant]--
				mu.Unlock()
				tk.Release()
			}
		}(g)
	}
	wg.Wait()
	st := a.Stats()
	if st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("not idle: %+v", st)
	}
	for tenant, p := range st.TenantPeak {
		if p > perTenant {
			t.Fatalf("tenant %s peak %d exceeds limit %d", tenant, p, perTenant)
		}
	}
	if err := a.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func waitForQueued(t *testing.T, a *Admission, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for a.Stats().Queued < n {
		if time.Now().After(deadline) {
			t.Fatalf("waiter never queued (have %d, want %d)", a.Stats().Queued, n)
		}
		time.Sleep(time.Millisecond)
	}
}
