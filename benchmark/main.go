// Command benchmark is CASM's wall-clock benchmark: four workloads, the
// end-to-end metrics a casmrun or casmserve user sees, and the per-layer
// metrics that say where the time went. See README.md in this directory.
//
//	go run ./benchmark                                  all workloads, both passes
//	go run ./benchmark -workload scan_earlyagg -seed 3  one workload, end-to-end metrics
//	go run ./benchmark -workload serve_mixed -trace 1   one workload, per-layer metrics
//	go run ./benchmark -compare A.jsonl B.jsonl         compare two sets of runs
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
	"slices"
	"sort"
	"syscall"

	"github.com/casm-project/casm/internal/workload"
)

// runRecord is one line of the -out file: a run's result with what is
// needed to compare and reproduce it.
type runRecord struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Trace      int               `json:"trace"`
	Seconds    float64           `json:"seconds"`
	Quick      bool              `json:"quick,omitempty"`
	GoVersion  string            `json:"go"`
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Answers    map[string]string `json:"answers"`
	result
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames())+" (default: all, both passes)")
		seed    = flag.Int64("seed", 1, "seed for data generation and the serve_mixed schedule")
		seconds = flag.Float64("seconds", 20, "length of the measured window, in seconds")
		trace   = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run and layer kernels, per-layer metrics")
		quick   = flag.Bool("quick", false, "tiny datasets and a fixed 3 operations per client (the test's configuration)")
		out     = flag.String("out", "", "append each run's result to this file, one JSON object per line")
		spans   = flag.String("spans", "", "with -trace 1: write the recorded spans to this file at exit")
		compare = flag.Bool("compare", false, "compare two -out files given as arguments under BENCHMARK.json's bounds; exit 1 if any metric got worse")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare needs two files")
		}
		return compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	names := workloadNames()
	traces := []int{0, 1}
	if *name != "" {
		if !slices.Contains(names, *name) {
			return fmt.Errorf("unknown workload %q (want one of %v)", *name, names)
		}
		if *trace != 0 && *trace != 1 {
			return fmt.Errorf("-trace %d: want 0 or 1", *trace)
		}
		names, traces = []string{*name}, []int{*trace}
	}

	// SIGINT/SIGTERM cancel the run; the deferred clean-up still happens.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	tmp, err := os.MkdirTemp("", "casm-benchmark-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	e := &env{seed: *seed, quick: *quick, tmp: tmp, clients: min(runtime.NumCPU(), 4), suite: workload.NewSuite()}
	fmt.Printf("machine: nproc=%d GOMAXPROCS=%d %s %s/%s (Go before 1.25 sizes GOMAXPROCS from the host's CPUs and ignores a cgroup CPU quota)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	for _, w := range names {
		for _, t := range traces {
			spansPath := *spans
			if spansPath != "" && len(names) > 1 {
				spansPath += "." + w // all workloads: one spans file each
			}
			p, err := runPass(ctx, e, w, *seconds, t == 1, spansPath)
			if err != nil {
				return err
			}
			if err := report(p, runRecord{
				Workload: w, Seed: *seed, Trace: t, Seconds: *seconds, Quick: *quick,
				GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			}, *out); err != nil {
				return err
			}
		}
	}
	return nil
}

// report prints the pass as `workload metric value unit` lines, appends
// it to the -out file, and prints the result object as the last line.
func report(p *pass, rec runRecord, out string) error {
	fmt.Printf("%s: seed=%d trace=%d closed loop: %d operations (%.2f/s), %d failed; whole-window latency ms q1=%.3f median=%.3f q3=%.3f p90=%.3f\n",
		rec.Workload, rec.Seed, rec.Trace, p.latency.n, p.latency.perSecond, p.Failed, p.latency.q1, p.latency.median, p.latency.q3, p.latency.p90)
	names := make([]string, 0, len(p.Metrics))
	for n := range p.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %s %.6g %s\n", rec.Workload, n, p.Metrics[n].Value, p.Metrics[n].Unit)
	}
	rec.result = p.result
	rec.Answers = make(map[string]string, len(p.answers))
	for k, id := range p.answers {
		rec.Answers[k] = fmt.Sprintf("%016x", id)
	}
	if out != "" {
		line, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		f, err := os.OpenFile(out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	last, err := json.Marshal(p.result)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}
