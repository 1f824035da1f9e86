// Command casmserve runs the resident query service: a long-lived HTTP
// server over one shared executor pool, a named dataset registry, and a
// shared plan-decision cache, with per-tenant admission control. Unlike
// casmrun — plan, run, exit — casmserve keeps data registered and plans
// cached across queries, so repeated submissions skip planning entirely.
// It serves files of the persistent block store at -store (ingested by
// casmgen); -data name=file registers one under a dataset name:
//
//	casmgen -n 1000000 -store /var/casm/store -o events.casm
//	casmserve -store /var/casm/store -data events=events.casm -addr :8080
//
//	# unary query
//	curl -s -X POST 'localhost:8080/query?dataset=events&limit=3' \
//	     -H 'X-Casm-Tenant: alice' \
//	     --data 'MEASURE hits = COUNT(*) AT (a1:value, t1:hour);'
//
//	# streaming (NDJSON) query
//	curl -sN -X POST 'localhost:8080/query?dataset=events&stream=1' \
//	     --data 'MEASURE hits = COUNT(*) AT (a1:value, t1:hour);'
//
// The store also backs a materialized result cache (bound it with
// -resultcache), so repeated queries are answered without scanning input
// — across restarts, since cardinality, schema digests, and cached
// results all persist.
//
// SIGTERM (or SIGINT) triggers a graceful drain: admission stops — new
// queries get 503 — running queries finish, and the process exits 0 with
// no goroutines or spill files left behind.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/casm-project/casm/internal/blockstore"
	"github.com/casm-project/casm/internal/core"
	"github.com/casm-project/casm/internal/serve"
	"github.com/casm-project/casm/internal/workload"
)

// errUsage marks a command line casmserve cannot act on (exit status 2).
var errUsage = errors.New("usage")

// datasetFlags collects repeatable -data name=file mappings.
type datasetFlags []string

func (d *datasetFlags) String() string     { return strings.Join(*d, ",") }
func (d *datasetFlags) Set(v string) error { *d = append(*d, v); return nil }

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "casmserve: %v\n", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("casmserve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var datasets datasetFlags
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		reducers = fs.Int("reducers", 8, "number of reducers per query (m)")
		workers  = fs.Int("workers", 0, "shared executor pool size (0 = GOMAXPROCS)")
		tenantIF = fs.Int("tenant-inflight", 0, "per-tenant in-flight query limit (0 = default)")
		queue    = fs.Int("queue", 0, "bounded admission queue size (0 = default)")
		cacheSz  = fs.Int("cache", 0, "decision cache capacity (0 = default)")
		tmpDir   = fs.String("tmp", "", "directory for reducer spill files (default OS temp)")
		storeDir = fs.String("store", "", "directory of the persistent block store to serve from (required)")
		rcBytes  = fs.Int64("resultcache", 0, "materialized result cache in-memory bound in bytes (0 = default)")
		skew     = fs.String("skew", "none", "skew handling: none | sampling")
		drainT   = fs.Duration("drain-timeout", 30*time.Second, "graceful drain deadline on SIGTERM")
	)
	fs.Var(&datasets, "data", "dataset as name=file inside the store (repeatable); a bare file registers as \"default\"")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(stdout)
			fs.PrintDefaults()
			return nil
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if *storeDir == "" {
		return fmt.Errorf("%w: -store DIR is required (ingest datasets with casmgen -store DIR -o FILE)", errUsage)
	}
	if len(datasets) == 0 {
		return fmt.Errorf("%w: at least one -data name=file is required", errUsage)
	}

	ecfg := core.Config{NumReducers: *reducers, TempDir: *tmpDir}
	switch *skew {
	case "none":
	case "sampling":
		ecfg.SkewMode = core.SkewSampling
	default:
		return fmt.Errorf("unknown skew mode %q", *skew)
	}

	st, err := blockstore.Open(blockstore.Config{Dir: *storeDir, Replication: 3, NumNodes: 10, Seed: 1})
	if err != nil {
		return err
	}
	defer st.Close()
	svc, err := core.NewService(core.ServiceConfig{
		Engine:            ecfg,
		Workers:           *workers,
		DecisionCacheSize: *cacheSz,
		PerTenantInFlight: *tenantIF,
		AdmissionQueue:    *queue,
		Store:             st,
		ResultCacheBytes:  *rcBytes,
	})
	if err != nil {
		return err
	}

	// All datasets serve the paper's workload schema (casmgen's output).
	su := workload.NewSuite()
	for _, spec := range datasets {
		name, file := "default", spec
		if i := strings.IndexByte(spec, '='); i >= 0 {
			name, file = spec[:i], spec[i+1:]
		}
		if err := svc.RegisterStore(name, su.Schema, st, file); err != nil {
			return err
		}
		ds, _ := svc.Dataset(name)
		fmt.Fprintf(stdout, "registered %s: %d records from store file %s (footer cardinality, no scan)\n",
			name, ds.NumRecords, file)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := serve.NewHTTPServer(svc)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Fprintf(stdout, "casmserve listening on %s (workers=%d reducers=%d)\n",
		ln.Addr(), svc.Executor().Workers(), *reducers)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, os.Interrupt)
	select {
	case sig := <-sigCh:
		fmt.Fprintf(stdout, "casmserve: %v — draining (deadline %s)\n", sig, *drainT)
	case err := <-serveErr:
		return err
	}

	// Graceful drain: stop admission and wait for in-flight queries, while
	// the HTTP server stops accepting and waits for in-flight responses.
	// Shutdown after Drain — by then every handler's evaluation has
	// finished or been rejected, so responses flush quickly.
	ctx, cancel := context.WithTimeout(context.Background(), *drainT)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		httpSrv.Close()
		return fmt.Errorf("drain: %w", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("shutdown: %w", err)
	}
	stats := svc.Stats()
	fmt.Fprintf(stdout, "casmserve: drained cleanly (%d queries served, %d plan-cache hits)\n",
		stats.Evaluations, stats.PlanCacheHits)
	if rc := stats.ResultCache; rc != nil {
		fmt.Fprintf(stdout, "casmserve: result cache %d hits, %d misses, %d bytes materialized, %d evictions\n",
			rc.Hits, rc.Misses, rc.BytesMaterialized, rc.Evictions)
	}
	return nil
}
