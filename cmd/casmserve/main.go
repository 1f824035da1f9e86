// Command casmserve runs the resident query service: a long-lived HTTP
// server over one shared executor pool, a named dataset registry, and a
// shared plan-decision cache, with per-tenant admission control. Unlike
// casmrun — plan, run, exit — casmserve keeps data registered and plans
// cached across queries, so repeated submissions skip planning entirely.
//
//	casmgen -n 1000000 -out data.casm
//	casmserve -data events=data.casm -addr :8080
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
// With -store DIR the service runs over the persistent block store at
// DIR: -data name=file registers files already ingested there (casmgen
// -store), while -ingest makes -data name=path ingest flat casmgen files
// into the store under the dataset's name first. Either way the store
// also backs a materialized result cache (bound it with -resultcache),
// so repeated queries are answered without scanning input — across
// restarts, since cardinality, schema digests, and cached results all
// persist:
//
//	casmgen -n 1000000 -store /var/casm/store -o events.casm
//	casmserve -store /var/casm/store -data events=events.casm
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
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/casm-project/casm/internal/blockstore"
	"github.com/casm-project/casm/internal/core"
	"github.com/casm-project/casm/internal/recio"
	"github.com/casm-project/casm/internal/serve"
	"github.com/casm-project/casm/internal/workload"
)

// datasetFlags collects repeatable -data name=path mappings.
type datasetFlags []string

func (d *datasetFlags) String() string     { return strings.Join(*d, ",") }
func (d *datasetFlags) Set(v string) error { *d = append(*d, v); return nil }

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "casmserve: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var datasets datasetFlags
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		blockSz  = flag.Int("block", 4<<20, "block size used by casmgen")
		reducers = flag.Int("reducers", 8, "number of reducers per query (m)")
		workers  = flag.Int("workers", 0, "shared executor pool size (0 = GOMAXPROCS)")
		tenantIF = flag.Int("tenant-inflight", 0, "per-tenant in-flight query limit (0 = default)")
		queue    = flag.Int("queue", 0, "bounded admission queue size (0 = default)")
		cacheSz  = flag.Int("cache", 0, "decision cache capacity (0 = default)")
		tmpDir   = flag.String("tmp", "", "directory for reducer spill files (default OS temp)")
		inMem    = flag.Bool("mem", false, "load datasets fully into memory instead of streaming off disk")
		storeDir = flag.String("store", "", "serve from the persistent block store at this directory; -data names files inside it")
		ingest   = flag.Bool("ingest", false, "with -store: -data name=path ingests the flat file at path into the store as name")
		rcBytes  = flag.Int64("resultcache", 0, "materialized result cache in-memory bound in bytes (0 = default; needs -store)")
		skew     = flag.String("skew", "none", "skew handling: none | sampling")
		drainT   = flag.Duration("drain-timeout", 30*time.Second, "graceful drain deadline on SIGTERM")
	)
	flag.Var(&datasets, "data", "dataset as name=path (repeatable); bare path registers as \"default\"")
	flag.Parse()
	if len(datasets) == 0 {
		return fmt.Errorf("at least one -data name=path is required")
	}

	ecfg := core.Config{NumReducers: *reducers, TempDir: *tmpDir}
	switch *skew {
	case "none":
	case "sampling":
		ecfg.SkewMode = core.SkewSampling
	default:
		return fmt.Errorf("unknown skew mode %q", *skew)
	}

	// The store is opened before registration so a process killed during
	// -ingest leaves at worst a torn segment tail, which the next open
	// detects by checksum and truncates to the last committed block.
	var st *blockstore.Store
	if *storeDir != "" {
		var err error
		st, err = blockstore.Open(blockstore.Config{
			Dir: *storeDir, BlockSize: *blockSz, Replication: 3, NumNodes: 10, Seed: 1,
		})
		if err != nil {
			return err
		}
		defer st.Close()
	} else if *ingest {
		return fmt.Errorf("-ingest writes into the block store; add -store")
	}
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
		name, path := "default", spec
		if i := strings.IndexByte(spec, '='); i >= 0 {
			name, path = spec[:i], spec[i+1:]
		}
		switch {
		case st != nil && *ingest:
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			records, err := recio.DecodeAll(data, *blockSz, su.Schema.NumAttrs())
			if err != nil {
				return fmt.Errorf("decoding %s: %w", path, err)
			}
			// Replace, not append: a re-run after a crashed ingest must
			// converge to exactly the flat file's contents.
			if _, err := st.FileInfo(name); err == nil {
				if err := st.Delete(name); err != nil {
					return err
				}
			}
			if err := workload.WriteStore(st, name, su.Schema, records); err != nil {
				return fmt.Errorf("ingesting %s: %w", path, err)
			}
			if err := svc.RegisterStore(name, su.Schema, st, name); err != nil {
				return err
			}
			fmt.Printf("ingested %s: %d records from %s into store %s\n", name, len(records), path, *storeDir)
			continue
		case st != nil:
			if err := svc.RegisterStore(name, su.Schema, st, path); err != nil {
				return err
			}
			ds, _ := svc.Dataset(name)
			fmt.Printf("registered %s: %d records from store file %s (footer cardinality, no scan)\n",
				name, ds.NumRecords, path)
			continue
		}
		if *inMem {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			records, err := recio.DecodeAll(data, *blockSz, su.Schema.NumAttrs())
			if err != nil {
				return fmt.Errorf("decoding %s: %w", path, err)
			}
			if err := svc.Register(name, core.MemoryDataset(su.Schema, records, 4**reducers)); err != nil {
				return err
			}
			fmt.Printf("registered %s: %d records in memory from %s\n", name, len(records), path)
		} else {
			if err := svc.RegisterFile(name, su.Schema, path, *blockSz); err != nil {
				return err
			}
			ds, _ := svc.Dataset(name)
			fmt.Printf("registered %s: %d records streaming from %s\n", name, ds.NumRecords, path)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: serve.New(svc)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Printf("casmserve listening on %s (workers=%d reducers=%d)\n",
		ln.Addr(), svc.Executor().Workers(), *reducers)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, os.Interrupt)
	select {
	case sig := <-sigCh:
		fmt.Printf("casmserve: %v — draining (deadline %s)\n", sig, *drainT)
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
	fmt.Printf("casmserve: drained cleanly (%d queries served, %d plan-cache hits)\n",
		stats.Evaluations, stats.PlanCacheHits)
	if rc := stats.ResultCache; rc != nil {
		fmt.Printf("casmserve: result cache %d hits, %d misses, %d bytes materialized, %d evictions\n",
			rc.Hits, rc.Misses, rc.BytesMaterialized, rc.Evictions)
	}
	return nil
}
