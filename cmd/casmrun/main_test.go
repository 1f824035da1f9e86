package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	casm "github.com/casm-project/casm"
	"github.com/casm-project/casm/internal/workload"
)

// testStore ingests a 5k-record dataset, cut into several blocks, into a
// store laid out the way casmrun opens one.
func testStore(t *testing.T) (dir string, su *workload.Suite) {
	t.Helper()
	dir, su = t.TempDir(), workload.NewSuite()
	st, err := casm.OpenStore(casm.StoreConfig{Dir: dir, BlockSize: 16 << 10, Replication: 3, NumNodes: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteStore(st, "data", su.Schema, su.Generate(5000, workload.Uniform, 22)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, su
}

// engineCounts evaluates the named query with the engine called directly
// and returns its per-measure record counts.
func engineCounts(t *testing.T, dir string, su *workload.Suite, query string) map[string]int {
	t.Helper()
	st, err := casm.OpenStore(casm.StoreConfig{Dir: dir, Replication: 3, NumNodes: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ds, err := casm.StoreDataset(su.Schema, st, "data")
	if err != nil {
		t.Fatal(err)
	}
	q, err := pickQuery(su, query)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := casm.NewEngine(casm.Config{NumReducers: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.EvaluateContext(context.Background(), q, ds)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for name, recs := range res.Measures {
		counts[name] = len(recs)
	}
	return counts
}

var measureLine = regexp.MustCompile(`(?m)^measure (\S+)\s+(\d+) records$`)

// printedCounts parses the "measure NAME N records" lines casmrun prints.
func printedCounts(t *testing.T, out string) map[string]int {
	t.Helper()
	counts := map[string]int{}
	for _, m := range measureLine.FindAllStringSubmatch(out, -1) {
		n, err := strconv.Atoi(m[2])
		if err != nil {
			t.Fatal(err)
		}
		counts[m[1]] = n
	}
	return counts
}

// TestRunMatchesEngine: every way of running a query from the command line
// prints the measure counts the engine produces when called directly.
func TestRunMatchesEngine(t *testing.T) {
	dir, su := testStore(t)
	want := engineCounts(t, dir, su, "q1")
	batchWant := engineCounts(t, dir, su, "q6")
	for name, n := range want {
		batchWant[name] = n
	}
	for _, tc := range []struct {
		name   string
		args   []string
		want   map[string]int
		prints string // a line fragment only this mode prints
	}{
		{"query", []string{"-query", "q1"}, want, "early-agg=false"},
		{"stream", []string{"-query", "q1", "-stream"}, want, "streamed "},
		{"batch", []string{"-query", "q1,q6"}, batchWant, "q1,q6 shared one scan"},
		{"early", []string{"-query", "q1", "-early", "auto"}, want, "early-agg=true"},
		{"morsel", []string{"-query", "q1", "-morselbytes", "4096"}, want, "early-agg=false"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			args := append([]string{"-store", dir, "-data", "data", "-tmp", t.TempDir()}, tc.args...)
			if err := run(args, &out); err != nil {
				t.Fatalf("run %v: %v", args, err)
			}
			if !strings.Contains(out.String(), tc.prints) {
				t.Errorf("output lacks %q:\n%s", tc.prints, out.String())
			}
			got := printedCounts(t, out.String())
			if len(got) != len(tc.want) {
				t.Fatalf("printed measures %v, want %v\n%s", got, tc.want, out.String())
			}
			for name, n := range tc.want {
				if got[name] != n {
					t.Errorf("measure %s: printed %d records, engine %d", name, got[name], n)
				}
			}
		})
	}
}

// TestShownRowsGolden pins the printed row form, "  <region> = <%g>", on
// an integer, a fractional and a second-grain measure of q6.
func TestShownRowsGolden(t *testing.T) {
	dir, _ := testStore(t)
	var out bytes.Buffer
	if err := run([]string{"-store", dir, "-data", "data", "-tmp", t.TempDir(), "-query", "q6", "-show", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"\n  [a2=0@high, t1=0@hour] = 212\n",
		"\n  [a2=0@high, t1=1@day] = 27.887323943661972\n",
		"\n  [a2=0@high, t1=0@hour] = 7.534733441033926\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

// readTree returns every file under dir by relative path.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		files[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestSaveIsByteIdenticalAcrossMapModes: -save writes the same bytes
// whether the map side combines or not and whether it runs fixed splits
// or morsels — what `diff -r` checks from the shell.
func TestSaveIsByteIdenticalAcrossMapModes(t *testing.T) {
	dir, _ := testStore(t)
	var first map[string][]byte
	for _, mode := range [][]string{
		{"-early", "off"},
		{"-early", "auto"},
		{"-early", "off", "-morselbytes", "4096"},
		{"-early", "auto", "-morselbytes", "4096", "-localagg", "64"},
	} {
		save := filepath.Join(t.TempDir(), "out")
		args := append([]string{"-store", dir, "-data", "data", "-query", "q1", "-save", save}, mode...)
		if err := run(args, io.Discard); err != nil {
			t.Fatalf("run %v: %v", args, err)
		}
		got := readTree(t, save)
		if len(got) == 0 {
			t.Fatalf("%v saved nothing", mode)
		}
		if first == nil {
			first = got
			continue
		}
		if len(got) != len(first) {
			t.Fatalf("%v saved %d files, %v saved %d", mode, len(got), []string{"-early", "off"}, len(first))
		}
		for name, data := range first {
			if !bytes.Equal(got[name], data) {
				t.Errorf("%v: saved file %s differs from the -early off run", mode, name)
			}
		}
	}
}

// TestUsageErrors: a command line without a store, with a flag this
// program does not have, with a query list where one query is needed, or
// asking -explain for output only a run makes, is refused — never
// silently accepted.
func TestUsageErrors(t *testing.T) {
	dir, _ := testStore(t)
	save := filepath.Join(t.TempDir(), "out")
	for _, args := range [][]string{
		{"-data", "data", "-query", "q1"},
		{"-store", dir, "-data", "data", "-block", "4096"},
		{"-store", dir, "-data", "data", "-stage", "sort"},
		{"-store", dir, "-data", "data", "-batch", "q1"},
		{"-store", dir, "-data", "data", "-query", "q1,q6", "-stream"},
		{"-store", dir, "-data", "data", "-query", "q1,q6", "-save", save},
		{"-store", dir, "-data", "data", "-explain", "-save", save},
	} {
		if err := run(args, io.Discard); !errors.Is(err, errUsage) {
			t.Errorf("run %v: %v, want a usage error", args, err)
		}
	}
}

var (
	totalLine = regexp.MustCompile(`simulated response time on the paper's cluster: map \S+ \+ reduce \S+ = (\S+)\n`)
	stageLine = regexp.MustCompile(`\n  Figure 4\(d\) stages: Map-Only=\S+ MR=\S+ Sort=\S+ Sort\+Eval=(\S+)\n`)
)

// TestStageBarsEndAtTotal: the unary, the streamed and a shared job's
// run print the Figure 4(d) bars priced from the run, and the last,
// Sort+Eval, is the simulated response time printed above it — sampling
// passes included, every member's in a shared job.
func TestStageBarsEndAtTotal(t *testing.T) {
	dir, _ := testStore(t)
	for _, mode := range [][]string{
		{"-query", "q6"},
		{"-query", "q5", "-stream", "-skew", "sampling"},
		{"-query", "q5,q6", "-skew", "sampling"},
	} {
		var out bytes.Buffer
		if err := run(append([]string{"-store", dir, "-data", "data", "-tmp", t.TempDir()}, mode...), &out); err != nil {
			t.Fatalf("run %v: %v", mode, err)
		}
		total, bars := totalLine.FindStringSubmatch(out.String()), stageLine.FindStringSubmatch(out.String())
		if total == nil || bars == nil || bars[1] != total[1] {
			t.Errorf("%v: total %q, stage bars %q; want the Sort+Eval bar to print the total:\n%s", mode, total, bars, out.String())
		}
	}
}

var (
	jobLine  = regexp.MustCompile(`(?m)^job \d+: .*$`)
	planLine = regexp.MustCompile(`(?m)^plan: .*\(sampled=.*$`)
)

// runOut runs casmrun over the test store with a fresh spill directory and
// returns what it printed.
func runOut(t *testing.T, dir string, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	args = append([]string{"-store", dir, "-data", "data", "-tmp", t.TempDir()}, args...)
	if err := run(args, &out); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	return out.String()
}

// TestExplainPrintsTheRunsJobs: -explain plans through the engine's own
// planner, so the job lines it prints for a mixed list — combining queries
// alone, the rest sharing one scan — are the ones the run prints.
func TestExplainPrintsTheRunsJobs(t *testing.T) {
	dir, _ := testStore(t)
	list := []string{"-early", "auto", "-query", "q1,q5,ds0,q6,q6"}
	explained := jobLine.FindAllString(runOut(t, dir, append(list, "-explain")...), -1)
	ran := jobLine.FindAllString(runOut(t, dir, list...), -1)
	if len(ran) != 4 || !slices.Equal(explained, ran) {
		t.Errorf("-explain prints jobs %q, the run %q (want 4)", explained, ran)
	}
}

// TestExplainPlanIsTheRunsPlan: under each setting that moves the planner
// off its default — a forced clustering factor, a minimum number of blocks
// per reducer, a plan chosen from a sample — -explain prints the plan line
// the run prints.
func TestExplainPlanIsTheRunsPlan(t *testing.T) {
	dir, _ := testStore(t)
	for _, setting := range [][]string{{"-cf", "10"}, {"-minblocks", "4"}, {"-skew", "sampling"}} {
		args := append([]string{"-query", "q5"}, setting...)
		explained := planLine.FindAllString(runOut(t, dir, append(args, "-explain")...), -1)
		ran := planLine.FindAllString(runOut(t, dir, args...), -1)
		if len(ran) != 1 || !slices.Equal(explained, ran) {
			t.Errorf("%v: -explain prints %q, the run %q", setting, explained, ran)
		}
	}
}

// TestExplainPlanIsTheCachedRunsPlan: a combining query answered whole
// from the materialized cache ran no job, and still prints the plan line
// -explain prints — early aggregation included — beside the line saying
// the answer came from the cache.
func TestExplainPlanIsTheCachedRunsPlan(t *testing.T) {
	dir, _ := testStore(t)
	args := []string{"-query", "q1", "-early", "auto", "-resultcache"}
	cold := runOut(t, dir, args...)
	warm := runOut(t, dir, args...)
	if strings.Contains(cold, "materialized cache") || !strings.Contains(warm, "result assembled from the materialized cache") {
		t.Fatalf("the second run was not served from the cache:\n%s", warm)
	}
	explained := planLine.FindAllString(runOut(t, dir, append(args, "-explain")...), -1)
	for _, out := range []string{cold, warm} {
		if ran := planLine.FindAllString(out, -1); len(ran) != 1 || !slices.Equal(explained, ran) ||
			!strings.Contains(ran[0], "early-agg=true") {
			t.Errorf("-explain prints %q, the run %q (want early-agg=true)", explained, ran)
		}
	}
}

// TestExplainRunsNothing: -explain prints the plan and its candidates but
// no measure counts, no shuffle and no spill: its -tmp stays empty.
func TestExplainRunsNothing(t *testing.T) {
	dir, _ := testStore(t)
	tmp := t.TempDir()
	var out bytes.Buffer
	args := []string{"-store", dir, "-data", "data", "-tmp", tmp, "-sortmem", "2", "-query", "q1,q6", "-explain"}
	if err := run(args, &out); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	for _, want := range []string{"fingerprint: ", "minimal feasible key: ", "cand[0]: ", "job 0: q1,q6 shared one scan"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-explain lacks %q:\n%s", want, out.String())
		}
	}
	if measureLine.MatchString(out.String()) || strings.Contains(out.String(), "shuffled:") {
		t.Errorf("-explain printed a run's lines:\n%s", out.String())
	}
	if entries, err := os.ReadDir(tmp); err != nil || len(entries) != 0 {
		t.Errorf("-explain left %d entries in -tmp (%v)", len(entries), err)
	}
}
