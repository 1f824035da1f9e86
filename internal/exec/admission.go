package exec

import (
	"context"
	"errors"
	"sync"
	"time"
)

// ErrDraining is returned by Admit once Drain has begun (and surfaces from
// every resident-service submission path after shutdown started). Servers
// map it to 503 Service Unavailable.
var ErrDraining = errors.New("exec: draining, not admitting new work")

// ErrQueueFull is returned by Admit when the bounded admission queue is
// already holding its maximum number of waiters. Servers map it to 429 Too
// Many Requests — the caller should back off and retry.
var ErrQueueFull = errors.New("exec: admission queue full")

// Admission defaults.
const (
	// DefaultPerTenant bounds one tenant's concurrently admitted jobs.
	DefaultPerTenant = 4
	// DefaultAdmissionQueue bounds the total number of waiting admissions
	// across all tenants.
	DefaultAdmissionQueue = 64
)

// AdmissionConfig parameterizes an admission controller.
type AdmissionConfig struct {
	// PerTenant bounds each tenant's concurrently admitted jobs
	// (<= 0 = DefaultPerTenant). A tenant at its limit queues.
	PerTenant int
	// Queue bounds the total number of queued admissions across all
	// tenants (<= 0 = DefaultAdmissionQueue). A full queue rejects with
	// ErrQueueFull instead of building unbounded backlog.
	Queue int
}

// Admission is the resident service's front door over the shared Executor
// pool: jobs are admitted per tenant up to a fixed in-flight limit, excess
// submissions wait in one bounded FIFO queue, and Drain stops admission
// and waits for the in-flight work to finish. Where the Executor bounds
// how many *tasks* run at once, Admission bounds how many *jobs* (whole
// evaluations) each tenant may have in flight — one misbehaving tenant
// can saturate neither the pool nor the queue.
//
// The zero value is not usable; use NewAdmission. Safe for concurrent use.
type Admission struct {
	perTenant int
	queueCap  int

	mu       sync.Mutex
	inflight map[string]int
	peak     map[string]int
	total    int
	queue    []*admWaiter
	draining bool
	idle     chan struct{} // non-nil while a Drain waits; closed at total==0

	admitted         int64
	rejectedFull     int64
	rejectedDraining int64
}

// admWaiter is one queued admission. ready is closed exactly once, after
// err is set (nil = admitted, the slot is already accounted to the
// tenant).
type admWaiter struct {
	tenant string
	ready  chan struct{}
	err    error
}

// NewAdmission returns an admission controller with the given limits.
func NewAdmission(cfg AdmissionConfig) *Admission {
	if cfg.PerTenant <= 0 {
		cfg.PerTenant = DefaultPerTenant
	}
	if cfg.Queue <= 0 {
		cfg.Queue = DefaultAdmissionQueue
	}
	return &Admission{
		perTenant: cfg.PerTenant,
		queueCap:  cfg.Queue,
		inflight:  make(map[string]int),
		peak:      make(map[string]int),
	}
}

// Ticket is one granted admission. Release returns the tenant's slot;
// it is idempotent and must be called on every path once the admitted
// work has finished (including failures and cancellations).
type Ticket struct {
	a      *Admission
	tenant string
	once   sync.Once
}

// Release hands the tenant's in-flight slot back, admitting the oldest
// eligible waiter. Idempotent.
func (t *Ticket) Release() {
	t.once.Do(func() { t.a.release(t.tenant) })
}

// Admit blocks until the tenant has an in-flight slot free (FIFO among
// the tenant's waiters), the context is cancelled, the queue is full
// (ErrQueueFull, immediately), or draining has begun (ErrDraining —
// immediately for new submissions, and delivered to already-queued
// waiters when Drain starts). tm, when non-nil, records the admission
// wait in Timing.Queue and the admission instant in Timing.Start.
func (a *Admission) Admit(ctx context.Context, tenant string, tm *Timing) (*Ticket, error) {
	enqueued := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	a.mu.Lock()
	if a.draining {
		a.rejectedDraining++
		a.mu.Unlock()
		return nil, ErrDraining
	}
	if a.inflight[tenant] < a.perTenant && !a.tenantQueuedLocked(tenant) {
		a.admitLocked(tenant)
		a.mu.Unlock()
		a.stamp(tm, enqueued)
		return &Ticket{a: a, tenant: tenant}, nil
	}
	if len(a.queue) >= a.queueCap {
		a.rejectedFull++
		a.mu.Unlock()
		return nil, ErrQueueFull
	}
	w := &admWaiter{tenant: tenant, ready: make(chan struct{})}
	a.queue = append(a.queue, w)
	a.mu.Unlock()

	select {
	case <-w.ready:
		if w.err != nil {
			return nil, w.err
		}
		a.stamp(tm, enqueued)
		return &Ticket{a: a, tenant: tenant}, nil
	case <-ctx.Done():
		a.mu.Lock()
		for i, q := range a.queue {
			if q == w {
				a.queue = append(a.queue[:i], a.queue[i+1:]...)
				a.mu.Unlock()
				return nil, ctx.Err()
			}
		}
		a.mu.Unlock()
		// The waiter left the queue concurrently with the cancellation:
		// its outcome is already decided. An admitted slot is handed
		// straight back.
		<-w.ready
		if w.err == nil {
			(&Ticket{a: a, tenant: tenant}).Release()
		}
		return nil, ctx.Err()
	}
}

// stamp records the admission wait and dispatch time.
func (a *Admission) stamp(tm *Timing, enqueued time.Time) {
	if tm == nil {
		return
	}
	tm.Start = time.Now()
	tm.Queue = tm.Start.Sub(enqueued)
}

// tenantQueuedLocked reports whether the tenant already has a queued
// waiter — later submissions must not overtake it (FIFO per tenant).
func (a *Admission) tenantQueuedLocked(tenant string) bool {
	for _, w := range a.queue {
		if w.tenant == tenant {
			return true
		}
	}
	return false
}

func (a *Admission) admitLocked(tenant string) {
	a.inflight[tenant]++
	a.total++
	if a.inflight[tenant] > a.peak[tenant] {
		a.peak[tenant] = a.inflight[tenant]
	}
	a.admitted++
}

// release returns one slot and promotes eligible waiters.
func (a *Admission) release(tenant string) {
	a.mu.Lock()
	a.inflight[tenant]--
	if a.inflight[tenant] <= 0 {
		delete(a.inflight, tenant)
	}
	a.total--
	a.promoteLocked()
	var idle chan struct{}
	if a.draining && a.total == 0 && a.idle != nil {
		idle, a.idle = a.idle, nil
	}
	a.mu.Unlock()
	if idle != nil {
		close(idle)
	}
}

// promoteLocked admits every queued waiter whose tenant has headroom, in
// FIFO order.
func (a *Admission) promoteLocked() {
	i := 0
	for i < len(a.queue) {
		w := a.queue[i]
		if a.inflight[w.tenant] < a.perTenant {
			a.queue = append(a.queue[:i], a.queue[i+1:]...)
			a.admitLocked(w.tenant)
			close(w.ready)
			continue
		}
		i++
	}
}

// Drain stops admission — queued waiters fail with ErrDraining, new Admit
// calls are rejected immediately — and waits for every admitted job to
// Release. It returns nil once the controller is idle, or ctx's error if
// the deadline passes with work still in flight (the drain stays in
// effect either way; a later Drain call resumes the wait). Idempotent and
// safe to call concurrently.
func (a *Admission) Drain(ctx context.Context) error {
	a.mu.Lock()
	if !a.draining {
		a.draining = true
		for _, w := range a.queue {
			w.err = ErrDraining
			a.rejectedDraining++
			close(w.ready)
		}
		a.queue = nil
	}
	if a.total == 0 {
		a.mu.Unlock()
		return nil
	}
	if a.idle == nil {
		a.idle = make(chan struct{})
	}
	idle := a.idle
	a.mu.Unlock()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Drain has begun.
func (a *Admission) Draining() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.draining
}

// AdmissionStats is a point-in-time snapshot of the controller.
type AdmissionStats struct {
	// InFlight is the number of currently admitted jobs; Queued the
	// number of waiters.
	InFlight int `json:"in_flight"`
	Queued   int `json:"queued"`
	// Admitted / RejectedQueueFull / RejectedDraining count outcomes
	// since construction (context-cancelled waits are none of the three).
	Admitted          int64 `json:"admitted"`
	RejectedQueueFull int64 `json:"rejected_queue_full"`
	RejectedDraining  int64 `json:"rejected_draining"`
	// Draining reports whether Drain has begun.
	Draining bool `json:"draining"`
	// TenantInFlight / TenantPeak are the current and high-water
	// in-flight counts per tenant (peaks survive the tenant going idle).
	TenantInFlight map[string]int `json:"tenant_in_flight,omitempty"`
	TenantPeak     map[string]int `json:"tenant_peak,omitempty"`
}

// Stats snapshots the controller.
func (a *Admission) Stats() AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := AdmissionStats{
		InFlight:          a.total,
		Queued:            len(a.queue),
		Admitted:          a.admitted,
		RejectedQueueFull: a.rejectedFull,
		RejectedDraining:  a.rejectedDraining,
		Draining:          a.draining,
		TenantInFlight:    make(map[string]int, len(a.inflight)),
		TenantPeak:        make(map[string]int, len(a.peak)),
	}
	for k, v := range a.inflight {
		st.TenantInFlight[k] = v
	}
	for k, v := range a.peak {
		st.TenantPeak[k] = v
	}
	return st
}
