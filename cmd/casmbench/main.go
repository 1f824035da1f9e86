// Command casmbench regenerates the paper's evaluation (Figure 4, panels
// (a)–(f)) at laptop scale and prints one table per panel:
//
//	casmbench                 # all panels at the default scale
//	casmbench -panel c        # one panel
//	casmbench -scale 2.5      # larger datasets
//	casmbench -json           # machine-readable snapshot on stdout
//	casmbench -morselskew     # add the morsel vs fixed-split comparison
//	casmbench -sharedscan     # add the batched vs sequential multi-query comparison
//	casmbench -serveload      # add the resident-service concurrent-load study
//	casmbench -resultreuse    # add the cold vs warm materialized-result-reuse study
//	casmbench -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Panels execute real engine runs; the reported numbers are simulated
// response times on the paper's 100-machine cluster (see DESIGN.md for
// the substitution rationale). EXPERIMENTS.md records the paper-vs-
// reproduced comparison for each panel. The -json snapshot carries the
// raw panel data plus run metadata, so CI can archive comparable
// baselines across commits (BENCH_PR10.json is the committed one).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"github.com/casm-project/casm/internal/blockstore"
	"github.com/casm-project/casm/internal/exec"
	"github.com/casm-project/casm/internal/figures"
	"github.com/casm-project/casm/internal/optimizer"
)

// snapshot is the -json output document.
type snapshot struct {
	Scale       float64                `json:"scale"`
	Seed        int64                  `json:"seed"`
	GoVersion   string                 `json:"go_version"`
	GOOS        string                 `json:"goos"`
	GOARCH      string                 `json:"goarch"`
	GeneratedAt string                 `json:"generated_at"`
	Panels      map[string]panelResult `json:"panels"`
	// MorselSkew is the -morselskew comparison. It lives outside Panels
	// on purpose: casmbenchdiff compares the union of the two snapshots'
	// panel keys, and this section is a reproduction-extension study, not
	// one of the paper's figures it guards.
	MorselSkew *panelResult `json:"morsel_skew,omitempty"`
	// Memory is the host-side memory footprint of the panel (a) run. Also
	// outside Panels: allocation totals and peak heap are properties of
	// this Go process on this machine — tracked across PRs for the
	// bounded-memory work, but never bit-guarded like simulated seconds.
	Memory *memoryResult `json:"memory,omitempty"`
	// SharedScan is the -sharedscan batched-vs-sequential comparison.
	// Outside Panels for the same reason as MorselSkew: it studies a
	// reproduction extension (multi-query shared-scan batching), not one
	// of the paper's figures, and its wall-clock arms are host-dependent.
	SharedScan *panelResult `json:"shared_scan,omitempty"`
	// ServeLoad is the -serveload resident-service concurrency study
	// (qps and latency percentiles through a real HTTP server). Outside
	// Panels like the others: a reproduction-extension study in host
	// wall-clock terms, never bit-guarded.
	ServeLoad *panelResult `json:"serve_load,omitempty"`
	// DecisionCache reports the shared decision cache's traffic across the
	// whole panel run: the panels all execute through one resident
	// executor and one decision cache (the casmserve state model), so
	// repeated (workflow, dataset, config) runs skip planning. Cache hits
	// are an observation the cost model cannot see and skew-handled runs
	// bypass the cache, so the published panel numbers are unchanged.
	DecisionCache *planCacheResult `json:"plan_cache,omitempty"`
	// ResultReuse is the -resultreuse cold-vs-warm materialized-result
	// study over the persistent block store. Outside Panels like the
	// other extension studies: it evaluates this reproduction's result
	// cache, not one of the paper's figures.
	ResultReuse *panelResult `json:"result_reuse,omitempty"`
	// ResultCache carries the result cache's cumulative counters from the
	// -resultreuse run (hits, misses, bytes materialized, evictions).
	ResultCache *blockstore.CacheStats `json:"result_cache,omitempty"`
}

type planCacheResult struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
}

// memoryResult is the allocation accounting bracket around one panel:
// AllocBytes/Mallocs are the runtime.MemStats TotalAlloc/Mallocs deltas
// (the B/op and allocs/op equivalents for a 1-iteration run), and
// PeakHeapInuse the maximum HeapInuse a background sampler observed while
// the panel ran — the number a GOMEMLIMIT bound would have to accommodate.
type memoryResult struct {
	Panel              string `json:"panel"`
	AllocBytes         uint64 `json:"alloc_bytes"`
	Mallocs            uint64 `json:"mallocs"`
	PeakHeapInuseBytes uint64 `json:"peak_heap_inuse_bytes"`
}

// measureMemory runs fn bracketed by MemStats reads, with a 10ms sampler
// tracking peak in-use heap (ReadMemStats briefly stops the world, so the
// interval trades resolution against perturbing the measured run).
func measureMemory(panel string, fn func()) memoryResult {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	stop := make(chan struct{})
	peakCh := make(chan uint64)
	go func() {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		var peak uint64
		for {
			select {
			case <-stop:
				peakCh <- peak
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapInuse > peak {
					peak = ms.HeapInuse
				}
			}
		}
	}()
	fn()
	close(stop)
	peak := <-peakCh
	runtime.ReadMemStats(&after)
	if after.HeapInuse > peak {
		peak = after.HeapInuse
	}
	return memoryResult{
		Panel:              panel,
		AllocBytes:         after.TotalAlloc - before.TotalAlloc,
		Mallocs:            after.Mallocs - before.Mallocs,
		PeakHeapInuseBytes: peak,
	}
}

type panelResult struct {
	Title       string  `json:"title"`
	RealSeconds float64 `json:"real_seconds"`
	// Data is the panel's raw result struct (figures.PanelA–PanelF).
	Data any `json:"data"`
}

func main() {
	var (
		panel      = flag.String("panel", "all", "panel to run: a|b|c|d|e|f|all")
		scale      = flag.Float64("scale", 1.0, "dataset scale multiplier")
		seed       = flag.Int64("seed", 1, "data generation seed")
		asJSON     = flag.Bool("json", false, "emit a machine-readable JSON snapshot instead of tables")
		morselSkew = flag.Bool("morselskew", false, "also run the morsel vs fixed-split skew comparison")
		sharedScan = flag.Bool("sharedscan", false, "also run the shared-scan batched vs sequential comparison")
		serveLoad  = flag.Bool("serveload", false, "also run the resident-service concurrent-load study")
		resReuse   = flag.Bool("resultreuse", false, "also run the cold vs warm materialized-result-reuse study")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if !strings.Contains("abcdef all", *panel) {
		fmt.Fprintf(os.Stderr, "casmbench: unknown panel %q\n", *panel)
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "casmbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "casmbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	// Ctrl-C cancels the in-flight panel run: the engine tears the current
	// job down (senders unblock, spill runs are reclaimed) and the process
	// exits with the conventional 130 instead of abandoning goroutines
	// mid-shuffle. A second signal kills the process the hard way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The panels share one resident executor pool and decision cache, the
	// same state model casmserve keeps across queries.
	pool := exec.New(0)
	defer pool.Close()
	dcache := optimizer.NewDecisionCache(0)
	cfg := figures.Config{Scale: *scale, Seed: *seed, TempDir: os.TempDir(),
		Executor: pool, DecisionCache: dcache}
	snap := snapshot{
		Scale:       *scale,
		Seed:        *seed,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Panels:      map[string]panelResult{},
	}

	type tabler interface{ Table() figures.Table }
	run := func(name string, f func(figures.Config) (tabler, error)) {
		if *panel != "all" && *panel != name {
			return
		}
		start := time.Now()
		var p tabler
		var err error
		if name == "a" {
			// Panel (a) doubles as the memory benchmark: the scale-up sweep
			// is the biggest single-process data plane exercise here.
			mem := measureMemory(name, func() { p, err = f(cfg) })
			if err == nil {
				snap.Memory = &mem
			}
		} else {
			p, err = f(cfg)
		}
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "casmbench: interrupted\n")
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "casmbench: panel %s: %v\n", name, err)
			os.Exit(1)
		}
		elapsed := time.Since(start).Seconds()
		t := p.Table()
		if *asJSON {
			snap.Panels[name] = panelResult{Title: t.Title, RealSeconds: elapsed, Data: p}
			return
		}
		fmt.Print(t.String())
		fmt.Printf("(panel %s regenerated in %.1fs real time)\n\n", name, elapsed)
		if m := snap.Memory; m != nil && m.Panel == name {
			fmt.Printf("(panel %s memory: %.1f MB allocated in %d mallocs, peak heap in use %.1f MB)\n\n",
				name, float64(m.AllocBytes)/(1<<20), m.Mallocs, float64(m.PeakHeapInuseBytes)/(1<<20))
		}
	}

	run("a", func(c figures.Config) (tabler, error) { return figures.Fig4a(ctx, c) })
	run("b", func(c figures.Config) (tabler, error) { return figures.Fig4b(ctx, c) })
	run("c", func(c figures.Config) (tabler, error) { return figures.Fig4c(ctx, c) })
	run("d", func(c figures.Config) (tabler, error) { return figures.Fig4d(ctx, c) })
	run("e", func(c figures.Config) (tabler, error) { return figures.Fig4e(ctx, c) })
	run("f", func(c figures.Config) (tabler, error) { return figures.Fig4f(ctx, c) })

	if *morselSkew {
		start := time.Now()
		p, err := figures.MorselSkewPanel(ctx, cfg)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "casmbench: interrupted\n")
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "casmbench: morselskew: %v\n", err)
			os.Exit(1)
		}
		elapsed := time.Since(start).Seconds()
		t := p.Table()
		if *asJSON {
			snap.MorselSkew = &panelResult{Title: t.Title, RealSeconds: elapsed, Data: p}
		} else {
			fmt.Print(t.String())
			fmt.Printf("(morselskew regenerated in %.1fs real time)\n\n", elapsed)
		}
	}

	if *sharedScan {
		start := time.Now()
		p, err := figures.SharedScanPanel(ctx, cfg)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "casmbench: interrupted\n")
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "casmbench: sharedscan: %v\n", err)
			os.Exit(1)
		}
		elapsed := time.Since(start).Seconds()
		t := p.Table()
		if *asJSON {
			snap.SharedScan = &panelResult{Title: t.Title, RealSeconds: elapsed, Data: p}
		} else {
			fmt.Print(t.String())
			fmt.Printf("(sharedscan regenerated in %.1fs real time)\n\n", elapsed)
		}
	}

	if *serveLoad {
		start := time.Now()
		p, err := figures.ServeLoadPanel(ctx, cfg)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "casmbench: interrupted\n")
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "casmbench: serveload: %v\n", err)
			os.Exit(1)
		}
		elapsed := time.Since(start).Seconds()
		t := p.Table()
		if *asJSON {
			snap.ServeLoad = &panelResult{Title: t.Title, RealSeconds: elapsed, Data: p}
		} else {
			fmt.Print(t.String())
			fmt.Printf("(serveload regenerated in %.1fs real time)\n\n", elapsed)
		}
	}

	if *resReuse {
		start := time.Now()
		p, err := figures.ResultReusePanel(ctx, cfg)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "casmbench: interrupted\n")
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "casmbench: resultreuse: %v\n", err)
			os.Exit(1)
		}
		elapsed := time.Since(start).Seconds()
		t := p.Table()
		snap.ResultCache = p.Cache
		if *asJSON {
			snap.ResultReuse = &panelResult{Title: t.Title, RealSeconds: elapsed, Data: p}
		} else {
			fmt.Print(t.String())
			fmt.Printf("(resultreuse regenerated in %.1fs real time)\n\n", elapsed)
		}
	}

	snap.DecisionCache = &planCacheResult{Hits: dcache.Hits(), Misses: dcache.Misses(), Entries: dcache.Len()}
	if !*asJSON {
		fmt.Printf("(plan cache across panels: %d hits, %d misses, %d entries)\n",
			dcache.Hits(), dcache.Misses(), dcache.Len())
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			fmt.Fprintf(os.Stderr, "casmbench: json: %v\n", err)
			os.Exit(1)
		}
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "casmbench: memprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "casmbench: memprofile: %v\n", err)
			os.Exit(1)
		}
	}
}
