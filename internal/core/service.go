package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/casm-project/casm/internal/blockstore"
	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/exec"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/optimizer"
	"github.com/casm-project/casm/internal/workflow"
)

// ErrUnknownDataset is returned by Service submission paths naming a
// dataset that was never registered. Servers map it to 404 Not Found.
var ErrUnknownDataset = errors.New("core: unknown dataset")

// ServiceConfig parameterizes a resident service.
type ServiceConfig struct {
	// Engine is the per-evaluation configuration every session call runs
	// under (NumReducers is required, as for NewEngine).
	// Engine.DecisionCache is a seed of the resident state: leave it nil
	// and the service builds (and owns) its own.
	Engine Config
	// Workers sizes the service's executor pool (<= 0 = the exec
	// package's default sizing).
	Workers int
	// DecisionCacheSize bounds the owned decision cache when
	// Engine.DecisionCache is nil (<= 0 = the optimizer's default).
	DecisionCacheSize int
	// PerTenantInFlight / AdmissionQueue parameterize admission control
	// (<= 0 = the exec package defaults).
	PerTenantInFlight int
	AdmissionQueue    int
	// Store, when non-nil, is the service's persistent block store: the
	// backing for RegisterStore datasets and the write-behind home of the
	// owned result cache. The caller keeps ownership (Drain flushes it but
	// does not close it).
	Store *blockstore.Store
	// ResultCacheBytes bounds the owned result cache built when
	// Engine.ResultCache is nil (> 0, or Store non-nil with 0 for the
	// default budget). When both are zero/nil, result reuse is off.
	ResultCacheBytes int64
}

// Service is the resident, multi-tenant form of the engine: where Engine
// is a stateless per-call configuration wrapper, a Service owns the
// long-lived execution state — one shared exec.Executor pool, one
// optimizer.DecisionCache, and a named Dataset registry — and turns
// Evaluate/EvaluateBatch/EvaluateStream into thin session calls against
// it. Every submission passes admission control (per-tenant in-flight
// limits over one bounded queue); Drain stops admission, lets running
// jobs finish, and tears the owned state down leak-free.
//
// Safe for concurrent use.
type Service struct {
	eng *Engine
	adm *exec.Admission

	execu  *exec.Executor
	dcache *optimizer.DecisionCache

	store    *blockstore.Store
	rcache   *blockstore.ResultCache
	ownCache bool

	mu       sync.Mutex
	datasets map[string]*Dataset

	evals int64
	drain sync.Once
}

// NewService validates the configuration and returns a resident service.
func NewService(cfg ServiceConfig) (*Service, error) {
	s := &Service{datasets: make(map[string]*Dataset)}
	ecfg := cfg.Engine
	s.execu = exec.New(cfg.Workers)
	ecfg.executor = s.execu
	if ecfg.DecisionCache == nil {
		ecfg.DecisionCache = optimizer.NewDecisionCache(cfg.DecisionCacheSize)
	}
	s.dcache = ecfg.DecisionCache
	s.store = cfg.Store
	if ecfg.ResultCache == nil && (cfg.Store != nil || cfg.ResultCacheBytes > 0) {
		rc, err := blockstore.NewResultCache(cfg.Store, cfg.ResultCacheBytes)
		if err != nil {
			s.execu.Close()
			return nil, fmt.Errorf("core: opening result cache: %w", err)
		}
		ecfg.ResultCache = rc
		s.ownCache = true
	}
	s.rcache = ecfg.ResultCache
	eng, err := NewEngine(ecfg)
	if err != nil {
		s.execu.Close()
		if s.ownCache {
			s.rcache.Close()
		}
		return nil, err
	}
	s.eng = eng
	s.adm = exec.NewAdmission(exec.AdmissionConfig{
		PerTenant: cfg.PerTenantInFlight,
		Queue:     cfg.AdmissionQueue,
	})
	return s, nil
}

// Engine returns the service's underlying engine (resident executor and
// decision cache already wired in). Calls on it bypass admission control
// — session paths should go through the Service methods.
func (s *Service) Engine() *Engine { return s.eng }

// Executor returns the service's resident executor pool.
func (s *Service) Executor() *exec.Executor { return s.execu }

// Register adds a dataset to the registry under name. The dataset's
// cardinality is counted once here when unknown, and an empty Tag is
// stamped with the registry name, so every later session call plans
// against settled identity — no per-query counting scans, and distinct
// registered datasets never collide in the decision cache. Registering a
// taken name is an error (the registry is the service's source of truth;
// replacing a dataset under running queries would be a lifecycle hazard).
func (s *Service) Register(name string, ds *Dataset) error {
	if name == "" {
		return fmt.Errorf("core: empty dataset name")
	}
	if ds == nil || ds.Schema == nil || ds.Input == nil {
		return fmt.Errorf("core: dataset %q needs a schema and an input", name)
	}
	d := *ds
	var err error
	// Register's signature carries no context; registration happens at
	// service start-up, before there is a request to cancel.
	if d.NumRecords, err = cardinality(context.TODO(), ds); err != nil {
		return fmt.Errorf("core: counting dataset %q: %w", name, err)
	}
	if d.Tag == "" {
		d.Tag = "svc:" + name
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.datasets[name]; ok {
		return fmt.Errorf("core: dataset %q already registered", name)
	}
	s.datasets[name] = &d
	return nil
}

// RegisterStore registers a block store file as a dataset. Cardinality
// and schema identity come from the store's own block footers and
// metadata — no scan at all — so a restarted service reopens its
// datasets exactly as it left them.
func (s *Service) RegisterStore(name string, schema *cube.Schema, st *blockstore.Store, file string) error {
	if st == nil {
		st = s.store
	}
	if st == nil {
		return fmt.Errorf("core: RegisterStore %q: no store", name)
	}
	info, err := st.FileInfo(file)
	if err != nil {
		return fmt.Errorf("core: opening store file %q: %w", file, err)
	}
	if d := workflow.SchemaDigest(schema); info.SchemaDigest != "" && info.SchemaDigest != d {
		return fmt.Errorf("core: store file %q was ingested under a different schema", file)
	}
	return s.Register(name, &Dataset{
		Schema:     schema,
		Input:      mr.NewStoreInput(st, file),
		NumRecords: info.Records,
		Tag:        st.DatasetTag(file),
	})
}

// Dataset returns the registered dataset, or ErrUnknownDataset.
func (s *Service) Dataset(name string) (*Dataset, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ds, ok := s.datasets[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	return ds, nil
}

// Datasets lists the registered dataset names, sorted.
func (s *Service) Datasets() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.datasets))
	for n := range s.datasets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Evaluate runs one workflow for the tenant against a registered dataset:
// admission (blocking while the tenant is at its in-flight limit), then a
// plain EvaluateContext over the resident executor and decision cache.
// The returned Timing carries the admission wait (Queue), dispatch time
// (Start), and run duration (Wall). Fails fast with ErrUnknownDataset,
// exec.ErrDraining, or exec.ErrQueueFull.
func (s *Service) Evaluate(ctx context.Context, tenant, dataset string, w *workflow.Workflow) (*Result, exec.Timing, error) {
	var tm exec.Timing
	ds, err := s.Dataset(dataset)
	if err != nil {
		return nil, tm, err
	}
	tk, err := s.adm.Admit(ctx, tenant, &tm)
	if err != nil {
		return nil, tm, err
	}
	defer tk.Release()
	res, err := s.eng.EvaluateContext(ctx, w, ds)
	tm.Wall = time.Since(tm.Start)
	if err != nil {
		return nil, tm, err
	}
	s.countEval(1)
	return res, tm, nil
}

// EvaluateBatch runs a workflow batch for the tenant against a registered
// dataset under one admission slot (the batch is one submission, however
// many queries and jobs it carries).
func (s *Service) EvaluateBatch(ctx context.Context, tenant, dataset string, ws []*workflow.Workflow) (*BatchResult, exec.Timing, error) {
	var tm exec.Timing
	ds, err := s.Dataset(dataset)
	if err != nil {
		return nil, tm, err
	}
	tk, err := s.adm.Admit(ctx, tenant, &tm)
	if err != nil {
		return nil, tm, err
	}
	defer tk.Release()
	res, err := s.eng.EvaluateBatchContext(ctx, ws, ds)
	tm.Wall = time.Since(tm.Start)
	if err != nil {
		return nil, tm, err
	}
	s.countEval(int64(len(ws)))
	return res, tm, nil
}

// ServiceStream is a ResultStream holding a service admission slot: the
// tenant's in-flight slot is released when the stream is closed (or the
// consumer drains it and closes), not when the call returns — a slow
// streaming consumer counts against its tenant's limit for as long as
// the job lives. Close is idempotent.
type ServiceStream struct {
	*ResultStream
	tk     *exec.Ticket
	tm     exec.Timing
	s      *Service
	closed bool
}

// Close tears down the stream and releases the tenant's admission slot.
// The first Close also stamps Timing().Wall and, when the stream was
// consumed to its end without error, counts one completed evaluation.
func (st *ServiceStream) Close() error {
	err := st.ResultStream.Close()
	if !st.closed {
		st.closed = true
		st.tm.Wall = time.Since(st.tm.Start)
		st.tk.Release()
		if st.ended && err == nil {
			st.s.countEval(1)
		}
	}
	return err
}

// Timing returns the stream's admission/dispatch timing; Wall is filled
// in by Close (or stays zero if never closed).
func (st *ServiceStream) Timing() exec.Timing { return st.tm }

// EvaluateStream starts a streaming evaluation for the tenant against a
// registered dataset. The returned stream owns the tenant's admission
// slot until Close.
func (s *Service) EvaluateStream(ctx context.Context, tenant, dataset string, w *workflow.Workflow) (*ServiceStream, error) {
	ds, err := s.Dataset(dataset)
	if err != nil {
		return nil, err
	}
	var tm exec.Timing
	tk, err := s.adm.Admit(ctx, tenant, &tm)
	if err != nil {
		return nil, err
	}
	rs, err := s.eng.EvaluateStream(ctx, w, ds)
	if err != nil {
		tk.Release()
		return nil, err
	}
	return &ServiceStream{ResultStream: rs, tk: tk, tm: tm, s: s}, nil
}

// Draining reports whether Drain has begun.
func (s *Service) Draining() bool { return s.adm.Draining() }

// Drain gracefully shuts the service down: admission stops (queued
// waiters fail with exec.ErrDraining, new submissions are rejected),
// running jobs finish, and — once idle — the owned executor pool is torn
// down. Returns ctx's error if the deadline passes with jobs still in
// flight; the drain stays in effect and a later call resumes the wait.
func (s *Service) Drain(ctx context.Context) error {
	if err := s.adm.Drain(ctx); err != nil {
		return err
	}
	s.drain.Do(s.execu.Close)
	// Materialized results and their manifests reach the store before the
	// process exits; a restart then serves warm queries from disk. An
	// owned cache is closed outright, a caller-provided one only flushed.
	if s.rcache != nil {
		if s.ownCache {
			s.rcache.Close()
		} else {
			s.rcache.Flush()
		}
	}
	if s.store != nil {
		if err := s.store.Flush(); err != nil {
			return err
		}
	}
	return nil
}

func (s *Service) countEval(n int64) {
	s.mu.Lock()
	s.evals += n
	s.mu.Unlock()
}

// ServiceStats is a point-in-time snapshot of the resident state.
type ServiceStats struct {
	Admission exec.AdmissionStats `json:"admission"`
	// PlanCacheHits/Misses/Entries describe the shared decision cache.
	PlanCacheHits   int64 `json:"plan_cache_hits"`
	PlanCacheMisses int64 `json:"plan_cache_misses"`
	PlanCacheSize   int   `json:"plan_cache_entries"`
	// Datasets lists the registered dataset names.
	Datasets []string `json:"datasets"`
	// Evaluations counts completed query evaluations (batch members
	// counted individually).
	Evaluations int64 `json:"evaluations"`
	// ResultCache snapshots the materialized result cache (nil when
	// result reuse is off).
	ResultCache *blockstore.CacheStats `json:"result_cache,omitempty"`
	// Store snapshots the persistent block store's health and traffic
	// counters (nil when the service has no store).
	Store *blockstore.Stats `json:"store,omitempty"`
}

// Stats snapshots the service.
func (s *Service) Stats() ServiceStats {
	st := ServiceStats{
		Admission:       s.adm.Stats(),
		PlanCacheHits:   s.dcache.Hits(),
		PlanCacheMisses: s.dcache.Misses(),
		PlanCacheSize:   s.dcache.Len(),
		Datasets:        s.Datasets(),
	}
	if s.rcache != nil {
		cs := s.rcache.Stats()
		st.ResultCache = &cs
	}
	if s.store != nil {
		ss := s.store.Stats()
		st.Store = &ss
	}
	s.mu.Lock()
	st.Evaluations = s.evals
	s.mu.Unlock()
	return st
}
