package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"github.com/casm-project/casm/internal/workload"
)

func quickEnv(t *testing.T) *env {
	t.Helper()
	return &env{seed: 7, quick: true, tmp: t.TempDir(), clients: min(runtime.NumCPU(), 4), suite: workload.NewSuite()}
}

// TestQuickRunsRepeatExactly runs the -quick configuration of every
// workload twice and asserts that what should be a pure function of the
// seed is: every answer digest and every count metric. It also checks
// that no operation fails and that each workload's predicted layer shows.
func TestQuickRunsRepeatExactly(t *testing.T) {
	exact := []string{
		"distkey.blocks_per_record",
		"mr.shuffled_mb_per_op",
		"mr.pairs_out_per_record",
		"sortx.spill_mb_per_op",
		"blockstore.stored_bytes_per_user_byte",
		"localeval.out_rows_per_record",
		"localeval.window_lookups_per_op",
		"blockstore.block_reads_per_op",
	}
	ctx := context.Background()
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			var runs [2]*pass
			for i := range runs {
				p, err := runPass(ctx, quickEnv(t), name, 1, true, "")
				if err != nil {
					t.Fatal(err)
				}
				if !p.Correct || p.Failed != 0 || p.Attempted == 0 {
					t.Fatalf("run %d: correct=%v attempted=%d failed=%d", i, p.Correct, p.Attempted, p.Failed)
				}
				if len(p.Metrics) != len(perLayer()) {
					t.Fatalf("run %d: %d per-layer metrics, want %d", i, len(p.Metrics), len(perLayer()))
				}
				runs[i] = p
			}
			for _, m := range exact {
				if a, b := runs[0].Metrics[m].Value, runs[1].Metrics[m].Value; a != b {
					t.Errorf("%s differs between identical runs: %v vs %v", m, a, b)
				}
			}
			if len(runs[0].answers) == 0 {
				t.Error("no answer digests recorded")
			}
			for kind, id := range runs[0].answers {
				if runs[1].answers[kind] != id {
					t.Errorf("answer digest of %s differs between identical runs", kind)
				}
			}
			v := func(m string) float64 { return runs[0].Metrics[m].Value }
			switch name {
			case scanEarlyAgg:
				if v("mr.reduce_busy_ms") >= v("mr.map_busy_ms") {
					t.Errorf("map side should dominate: map busy %v ms, reduce busy %v ms", v("mr.map_busy_ms"), v("mr.reduce_busy_ms"))
				}
			case reduceFineOut:
				if v("blockstore.block_reads_per_op") != 0 {
					t.Errorf("reduce_fineout bypasses the block store, saw %v block reads per op", v("blockstore.block_reads_per_op"))
				}
				if v("localeval.out_rows_per_record") < 2 {
					t.Errorf("out_rows_per_record = %v, want >= 2", v("localeval.out_rows_per_record"))
				}
			case serveMixed:
				if r := v("blockstore.resultcache_hit_ratio"); r <= 0 || r >= 1 {
					t.Errorf("resultcache_hit_ratio = %v, want strictly between 0 and 1", r)
				}
			}
			if spill := v("sortx.spill_mb_per_op"); (spill > 0) != (name == windowStream) {
				t.Errorf("spill_mb_per_op = %v: only window_stream should spill", spill)
			}
		})
	}
}

// TestEndToEndMetricsAreNeverZero runs the untraced pass of every
// workload in the -quick configuration.
func TestEndToEndMetricsAreNeverZero(t *testing.T) {
	for _, name := range workloadNames() {
		p, err := runPass(context.Background(), quickEnv(t), name, 1, false, "")
		if err != nil {
			t.Fatal(err)
		}
		if !p.Correct {
			t.Errorf("%s: %d of %d operations failed", name, p.Failed, p.Attempted)
		}
		for _, d := range endToEnd() {
			if mv, ok := p.Metrics[d.name]; !ok || mv.Value <= 0 || mv.Unit != d.unit {
				t.Errorf("%s: %s = %+v, want a positive value in %s", name, d.name, mv, d.unit)
			}
		}
	}
}

// TestBenchmarkJSONMatchesSpec holds BENCHMARK.json to the driver's
// limits and to the metric tables this package reports from.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(data) > 64<<10 || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("file size %d or run_seconds %d out of range", len(data), spec.RunSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", spec.Paths)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 || len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed the limits", n, len(spec.EndToEnd), len(spec.PerLayer))
	}
	// All runs, with their set-up and two builds, must end within 3420 s.
	// Beside its window a run spends 2-4 s on set-up, references and
	// kernels on a 2-core sandbox; allow 12 s, and 120 s per build.
	if runs := 4 + 22*len(spec.Workloads); runs*(spec.RunSeconds+12)+2*120 > 3420 {
		t.Errorf("%d runs of %d s leave no room for set-up and builds within 3420 s", runs, spec.RunSeconds)
	}
	for i, w := range spec.Workloads {
		checkName(w.Name)
		if w.Name != workloadNames()[i] || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %+v", i, w)
		}
	}
	match := func(kind string, got []metric, want []metricDef, bounded bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
		}
		for i, g := range got {
			checkName(g.Name)
			if g.Name != want[i].name || g.Unit != want[i].unit || g.Better != want[i].better || !unitRE.MatchString(g.Unit) {
				t.Errorf("%s metric %d: %+v, spec.go has %+v", kind, i, g, want[i])
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound <= 0 || *g.Bound > 0.25)) {
				t.Errorf("%s metric %s: bound %v", kind, g.Name, g.Bound)
			}
		}
	}
	match("end_to_end", spec.EndToEnd, endToEnd(), true)
	match("per_layer", spec.PerLayer, perLayer(), false)
	if !seen["setup_s"] {
		t.Error("setup_s missing")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.q1 != 2.75 || s.median != 5.5 || s.q3 != 8.25 || s.n != 10 {
		t.Errorf("quartiles = %+v", s)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 []float64, qps float64) string {
		var buf bytes.Buffer
		for _, v := range p50 {
			rec := runRecord{Workload: scanEarlyAgg}
			rec.Metrics = map[string]metricValue{"op_p50_ms": {v, "ms"}, "queries_per_s": {qps, "1/s"}, "op_p90_ms": {v, "ms"}}
			line, _ := json.Marshal(rec)
			buf.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := filepath.Join(dir, "spec.json")
	os.WriteFile(spec, []byte(`{"end_to_end":[
		{"name":"op_p50_ms","unit":"ms","better":"lower","bound":0.1},
		{"name":"queries_per_s","unit":"1/s","better":"higher","bound":0.1}]}`), 0o644)
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	slower := []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	a := write("a", steady, 10)
	cases := []struct {
		b       string
		verdict string
		fails   bool
	}{
		{write("same", steady, 10.5), "same", false},
		{write("worse", slower, 10), "worse", true},
		{write("noisy", noisy, 10), "unresolved", false},
		{write("fewer", steady, 8), "worse", true}, // higher is better: a drop is worse
	}
	for _, c := range cases {
		var out bytes.Buffer
		err := compareFiles(&out, spec, a, c.b)
		if (err != nil) != c.fails || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: err=%v, output:\n%s", filepath.Base(c.b), err, out.String())
		}
	}
}
