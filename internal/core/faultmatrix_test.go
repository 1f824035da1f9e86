package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/casm-project/casm/internal/blockstore"
	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/workload"
)

// TestFaultMatrix drives the failure semantics end to end: every injected
// storage fault must leave the query answer byte-identical to the healthy
// baseline, and every run must leave its spill directory empty. The
// matrix covers the four failure windows the store and cache are designed
// around: a torn segment tail from a crash mid-append, a bit-flip caught
// by block checksums, a replica lost while a scan is underway, and a
// crash between result-cache entry writes and the manifest commit.
func TestFaultMatrix(t *testing.T) {
	su := workload.NewSuite()
	records := su.Generate(2500, workload.Uniform, 41)
	w := su.Q2()
	want := oracle(t, w, records)

	// Baseline: healthy store, no cache. Its canonical result bytes are
	// the reference every fault scenario must reproduce exactly.
	baseDir := t.TempDir()
	baseSpill := t.TempDir()
	st := openFaultStore(t, baseDir, records, su)
	res := runEngine(t, Config{NumReducers: 3, TempDir: baseSpill}, w, faultDataset(st, su))
	compare(t, "baseline", want, flatten(res))
	baseline := resultBytes(t, res)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	assertEmptyDir(t, "baseline", baseSpill)

	t.Run("torn-tail", func(t *testing.T) {
		dir := t.TempDir()
		st := openFaultStore(t, dir, records, su)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		// A crash mid-append leaves a partial entry at the end of a
		// segment; garbage past the last committed block models it.
		for _, seg := range segmentFiles(t, dir) {
			f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("torn tail garbage, not a valid entry")); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
		st2, err := blockstore.Open(faultStoreConfig(dir))
		if err != nil {
			t.Fatalf("reopen after torn tails: %v", err)
		}
		defer st2.Close()
		if got := st2.Stats().TornTails; got == 0 {
			t.Fatal("open did not report any torn tails")
		}
		spill := t.TempDir()
		res := runEngine(t, Config{NumReducers: 3, TempDir: spill}, w, faultDataset(st2, su))
		if !bytes.Equal(baseline, resultBytes(t, res)) {
			t.Fatal("answer after torn-tail recovery not byte-identical to baseline")
		}
		assertEmptyDir(t, "torn-tail", spill)
	})

	t.Run("bit-flip", func(t *testing.T) {
		dir := t.TempDir()
		st := openFaultStore(t, dir, records, su)
		defer st.Close()
		// Trash one node's replicas wholesale (every byte past the magic):
		// each read that tries that node first fails its checksum and must
		// fail over to a surviving replica.
		trashed := false
		for _, seg := range segmentFiles(t, dir) {
			if filepath.Base(filepath.Dir(seg)) != "n1" {
				continue
			}
			fi, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() <= 8 {
				continue
			}
			junk := bytes.Repeat([]byte{0xFF}, int(fi.Size()-8))
			f, err := os.OpenFile(seg, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(junk, 8); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			trashed = true
		}
		if !trashed {
			t.Fatal("node n1 held no segment data to corrupt")
		}
		spill := t.TempDir()
		res := runEngine(t, Config{NumReducers: 3, TempDir: spill}, w, faultDataset(st, su))
		if !bytes.Equal(baseline, resultBytes(t, res)) {
			t.Fatal("answer after bit-flip failover not byte-identical to baseline")
		}
		if st.Stats().ChecksumFailovers == 0 {
			t.Fatal("no checksum failovers recorded — corruption was never exercised")
		}
		assertEmptyDir(t, "bit-flip", spill)
	})

	t.Run("replica-loss-mid-scan", func(t *testing.T) {
		dir := t.TempDir()
		st := openFaultStore(t, dir, records, su)
		defer st.Close()
		// The first split to open takes node 2 down before it reads; every
		// block, that one included, is read from the survivors by the
		// store's per-read failover, and no task runs twice.
		var down sync.Once
		ds := faultDataset(st, su)
		ds.Input = openHook{Input: ds.Input, hook: func(string) error {
			down.Do(func() { st.FailNode(2) })
			return nil
		}}
		spill := t.TempDir()
		res := runEngine(t, Config{NumReducers: 3, TempDir: spill}, w, ds)
		down.Do(func() { t.Fatal("no split was opened") })
		if !bytes.Equal(baseline, resultBytes(t, res)) {
			t.Fatal("answer after replica loss mid-scan not byte-identical to baseline")
		}
		for _, m := range res.Stats.MapTasks {
			if m.Attempts != 1 {
				t.Errorf("task %s took %d attempts, want 1", m.Task, m.Attempts)
			}
		}
		for _, r := range res.Stats.ReduceTasks {
			if r.Attempts != 1 {
				t.Errorf("task %s took %d attempts, want 1", r.Task, r.Attempts)
			}
		}
		assertEmptyDir(t, "replica-loss", spill)
	})

	t.Run("crash-before-commit", func(t *testing.T) {
		dir := t.TempDir()
		st := openFaultStore(t, dir, records, su)
		defer st.Close()
		ds := faultDataset(st, su)

		// First process: a streaming run fills per-block cache entries but
		// crashes (here: closes) before any manifest commit.
		rc1, err := blockstore.NewResultCache(st, 0)
		if err != nil {
			t.Fatal(err)
		}
		eng1, err := NewEngine(Config{NumReducers: 3, TempDir: t.TempDir(), ResultCache: rc1})
		if err != nil {
			t.Fatal(err)
		}
		str, err := eng1.EvaluateStream(context.Background(), w, ds)
		if err != nil {
			t.Fatal(err)
		}
		for {
			_, ok, err := str.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
		if err := str.Close(); err != nil {
			t.Fatal(err)
		}
		rc1.Close()

		// Second process: the reloaded cache has entries but no manifest,
		// so the run is not manifest-served — it re-reduces from per-block
		// hits and must still match the baseline exactly.
		rc2, err := blockstore.NewResultCache(st, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer rc2.Close()
		if rc2.Stats().Manifests != 0 {
			t.Fatal("a manifest survived the crash window")
		}
		spill := t.TempDir()
		res := runEngine(t, Config{NumReducers: 3, TempDir: spill, ResultCache: rc2}, w, ds)
		if res.ResultReused {
			t.Fatal("manifest-served run without a committed manifest")
		}
		hits, misses, _ := sumReduce(res)
		if hits == 0 || misses != 0 {
			t.Fatalf("recovered cache: hits=%d misses=%d, want all hits", hits, misses)
		}
		if !bytes.Equal(baseline, resultBytes(t, res)) {
			t.Fatal("answer after crash-before-commit not byte-identical to baseline")
		}
		assertEmptyDir(t, "crash-before-commit", spill)

		// The completed run committed its manifest; the next one is served
		// without touching the input at all.
		res2 := runEngine(t, Config{NumReducers: 3, TempDir: t.TempDir(), ResultCache: rc2}, w, ds)
		if !res2.ResultReused {
			t.Fatal("manifest committed by the recovered run was not used")
		}
		if !bytes.Equal(baseline, resultBytes(t, res2)) {
			t.Fatal("manifest-served answer not byte-identical to baseline")
		}
	})
}

func faultStoreConfig(dir string) blockstore.Config {
	return blockstore.Config{Dir: dir, BlockSize: 4096, Replication: 3, NumNodes: 4, Seed: 11}
}

func openFaultStore(t *testing.T, dir string, records []cube.Record, su *workload.Suite) *blockstore.Store {
	t.Helper()
	st, err := blockstore.Open(faultStoreConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteStore(st, "data", su.Schema, records); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	return st
}

func faultDataset(st *blockstore.Store, su *workload.Suite) *Dataset {
	info, err := st.FileInfo("data")
	if err != nil {
		panic(err)
	}
	return &Dataset{
		Schema:     su.Schema,
		Input:      mr.NewStoreInput(st, "data"),
		NumRecords: info.Records,
		Tag:        "store:data",
	}
}

func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "n*", "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("no segment files found")
	}
	return segs
}

func assertEmptyDir(t *testing.T, label, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("%s: spill dir not empty after run: %v", label, names)
	}
}
