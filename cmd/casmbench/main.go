// Command casmbench regenerates the paper's evaluation (Figure 4, panels
// (a)–(f)) at laptop scale and prints one table per panel:
//
//	casmbench                 # all panels at the default scale
//	casmbench -panel c        # one panel
//	casmbench -scale 2.5      # larger datasets
//	casmbench -json           # machine-readable snapshot on stdout
//	casmbench -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Panels execute real engine runs; the reported numbers are simulated
// response times on the paper's 100-machine cluster (see DESIGN.md for
// the substitution rationale). EXPERIMENTS.md records the paper-vs-
// reproduced comparison for each panel. The -json snapshot carries the
// raw panel data plus run metadata; casmbenchdiff compares it against the
// committed baseline BENCH_FIG4.json. Wall-clock measurement lives in
// benchmark/ (see its README), not here.
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
	"slices"
	"syscall"
	"time"

	"github.com/casm-project/casm/internal/figures"
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
}

type panelResult struct {
	Title string `json:"title"`
	// Data is the panel's raw result struct (figures.PanelA–PanelF).
	Data any `json:"data"`
}

func main() {
	var (
		panel      = flag.String("panel", "all", "panel to run: a|b|c|d|e|f|all")
		scale      = flag.Float64("scale", 1.0, "dataset scale multiplier")
		seed       = flag.Int64("seed", 1, "data generation seed")
		asJSON     = flag.Bool("json", false, "emit a machine-readable JSON snapshot instead of tables")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if !slices.Contains([]string{"a", "b", "c", "d", "e", "f", "all"}, *panel) {
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

	cfg := figures.Config{Scale: *scale, Seed: *seed, TempDir: os.TempDir()}
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
		p, err := f(cfg)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "casmbench: interrupted\n")
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "casmbench: panel %s: %v\n", name, err)
			os.Exit(1)
		}
		t := p.Table()
		if *asJSON {
			snap.Panels[name] = panelResult{Title: t.Title, Data: p}
			return
		}
		fmt.Println(t.String())
	}

	run("a", func(c figures.Config) (tabler, error) { return figures.Fig4a(ctx, c) })
	run("b", func(c figures.Config) (tabler, error) { return figures.Fig4b(ctx, c) })
	run("c", func(c figures.Config) (tabler, error) { return figures.Fig4c(ctx, c) })
	run("d", func(c figures.Config) (tabler, error) { return figures.Fig4d(ctx, c) })
	run("e", func(c figures.Config) (tabler, error) { return figures.Fig4e(ctx, c) })
	run("f", func(c figures.Config) (tabler, error) { return figures.Fig4f(ctx, c) })

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
