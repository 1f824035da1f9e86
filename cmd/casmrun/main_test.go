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
		{"batch", []string{"-batch", "q1,q6"}, batchWant, "q1,q6 shared one scan"},
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

// TestUsageErrors: a command line without a store, or with a flag this
// program does not have, is refused — never silently accepted.
func TestUsageErrors(t *testing.T) {
	dir, _ := testStore(t)
	for _, args := range [][]string{
		{"-data", "data", "-query", "q1"},
		{"-store", dir, "-data", "data", "-block", "4096"},
	} {
		if err := run(args, io.Discard); !errors.Is(err, errUsage) {
			t.Errorf("run %v: %v, want a usage error", args, err)
		}
	}
}
