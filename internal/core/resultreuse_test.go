package core

import (
	"bytes"
	"context"
	"testing"

	"github.com/casm-project/casm/internal/blockstore"
	"github.com/casm-project/casm/internal/costmodel"
	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/workflow"
	"github.com/casm-project/casm/internal/workload"
)

// storeDataset builds a tagged, store-backed dataset for reuse tests.
func storeDataset(t *testing.T, su *workload.Suite, records []cube.Record) (*blockstore.Store, *Dataset) {
	t.Helper()
	st, err := blockstore.Open(blockstore.Config{Dir: t.TempDir(), BlockSize: 8192, Replication: 2, NumNodes: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := workload.WriteStore(st, "data", su.Schema, records); err != nil {
		t.Fatal(err)
	}
	return st, &Dataset{
		Schema:     su.Schema,
		Input:      mr.NewStoreInput(st, "data"),
		NumRecords: int64(len(records)),
		Tag:        "store:data",
	}
}

// resultBytes renders a result's measures in canonical byte form so
// byte-identity (not just value equality) can be asserted.
func resultBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	names := make([]string, 0, len(res.Measures))
	for n := range res.Measures {
		names = append(names, n)
	}
	// Measures iterate in map order; sort for a stable rendering.
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	var enc []byte
	for _, n := range names {
		buf.WriteString(n)
		for _, r := range res.Measures[n] {
			enc = appendMeasureRecord(enc[:0], r.Region.Coord, r.Value)
			buf.Write(enc)
		}
	}
	return buf.Bytes()
}

func sumReduce(res *Result) (hits, misses, bytesServed int64) {
	for _, rt := range res.Stats.ReduceTasks {
		hits += rt.ResultCacheHits
		misses += rt.ResultCacheMisses
		bytesServed += rt.ResultCacheBytes
	}
	return
}

func bytesRead(res *Result) int64 {
	var n int64
	for _, mt := range res.Stats.MapTasks {
		n += mt.BytesRead
	}
	return n
}

// TestResultReuseWarmRun: the second identical run assembles from the
// committed manifest — byte-identical answer, zero input bytes, no job.
func TestResultReuseWarmRun(t *testing.T) {
	su := workload.NewSuite()
	records := su.Generate(3000, workload.Uniform, 17)
	_, ds := storeDataset(t, su, records)
	rc, err := blockstore.NewResultCache(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	w := su.Q3()
	want := oracle(t, w, records)

	eng, err := NewEngine(Config{NumReducers: 3, ResultCache: rc, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := eng.Run(w, ds)
	if err != nil {
		t.Fatal(err)
	}
	compare(t, "cold", want, flatten(cold))
	if cold.ResultReused {
		t.Fatal("cold run claims reuse")
	}
	if _, misses, _ := sumReduce(cold); misses == 0 {
		t.Fatal("cold run recorded no cache misses")
	}
	if bytesRead(cold) == 0 {
		t.Fatal("cold run read no input")
	}

	warm, err := eng.Run(w, ds)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.ResultReused {
		t.Fatal("warm run did not reuse the materialized result")
	}
	if got := bytesRead(warm); got != 0 {
		t.Fatalf("warm run read %d input bytes, want 0", got)
	}
	if hits, _, served := sumReduce(warm); hits == 0 || served == 0 {
		t.Fatalf("warm run counters: hits=%d bytes=%d", hits, served)
	}
	if !bytes.Equal(resultBytes(t, cold), resultBytes(t, warm)) {
		t.Fatal("warm result not byte-identical to cold result")
	}
	// Answering from the manifest is priced as one task start-up and
	// nothing else.
	overhead := costmodel.DefaultCluster().Machine.TaskOverheadSec
	if got := warm.Estimate.Total(); got != overhead || got >= cold.Estimate.Total() {
		t.Fatalf("warm run priced at %gs, want one task overhead (%gs) below the cold run's %gs",
			got, overhead, cold.Estimate.Total())
	}
}

// TestResultReuseRenamedWorkflow: a structurally identical workflow with
// different measure names reuses the cached rows under its own names.
func TestResultReuseRenamedWorkflow(t *testing.T) {
	su := workload.NewSuite()
	records := su.Generate(2500, workload.Uniform, 29)
	_, ds := storeDataset(t, su, records)
	rc, err := blockstore.NewResultCache(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	w1 := su.Q1()
	eng, err := NewEngine(Config{NumReducers: 3, ResultCache: rc, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := eng.Run(w1, ds)
	if err != nil {
		t.Fatal(err)
	}

	// Rebuild Q1 under fresh measure names: same structure, same
	// fingerprint, different labels.
	w2, renames := renameAll(t, w1)
	if err := w2.Validate(); err != nil {
		t.Fatal(err)
	}
	res2, err := eng.Run(w2, ds)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.ResultReused {
		t.Fatal("renamed workflow did not reuse the materialized result")
	}
	for oldName, newName := range renames {
		a, b := res1.Measures[oldName], res2.Measures[newName]
		if len(a) != len(b) {
			t.Fatalf("%s→%s: %d vs %d records", oldName, newName, len(a), len(b))
		}
		for i := range a {
			if a[i].Value != b[i].Value {
				t.Fatalf("%s→%s[%d]: %v vs %v", oldName, newName, i, a[i].Value, b[i].Value)
			}
		}
	}
}

// TestResultReusePerBlockWithoutManifest: a streaming run fills block
// entries but never commits a manifest (it cannot know the consumer
// drained everything) — the next full run hits per block, still reads
// the input metadata but skips evaluation, and matches the oracle. This
// is also exactly the crash-between-entry-write-and-commit window.
func TestResultReusePerBlockWithoutManifest(t *testing.T) {
	su := workload.NewSuite()
	records := su.Generate(2500, workload.Uniform, 31)
	_, ds := storeDataset(t, su, records)
	rc, err := blockstore.NewResultCache(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	w := su.Q2()
	want := oracle(t, w, records)

	eng, err := NewEngine(Config{NumReducers: 3, ResultCache: rc, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.EvaluateStream(context.Background(), w, ds)
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, ok, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := eng.Run(w, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResultReused {
		t.Fatal("full-query reuse without a committed manifest")
	}
	hits, misses, _ := sumReduce(res)
	if hits == 0 {
		t.Fatal("no per-block hits after the streaming run filled the cache")
	}
	if misses != 0 {
		t.Fatalf("%d misses on a fully warmed cache", misses)
	}
	compare(t, "per-block warm", want, flatten(res))

	// The manifest committed by the completed run unlocks the fast path.
	res2, err := eng.Run(w, ds)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.ResultReused {
		t.Fatal("manifest from completed run not used")
	}
	compare(t, "manifest warm", want, flatten(res2))
}

// TestResultReuseDisabledWithoutTag: anonymous datasets must not probe
// or fill the cache (their identity is unsettled).
func TestResultReuseDisabledWithoutTag(t *testing.T) {
	su := workload.NewSuite()
	records := su.Generate(1000, workload.Uniform, 37)
	ds := MemoryDataset(su.Schema, records, 4) // no Tag
	rc, err := blockstore.NewResultCache(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	eng, err := NewEngine(Config{NumReducers: 2, ResultCache: rc, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, err := eng.Run(su.Q1(), ds)
		if err != nil {
			t.Fatal(err)
		}
		if res.ResultReused {
			t.Fatal("anonymous dataset reused a result")
		}
		if hits, misses, _ := sumReduce(res); hits != 0 || misses != 0 {
			t.Fatalf("anonymous dataset touched the cache: hits=%d misses=%d", hits, misses)
		}
	}
	if cs := rc.Stats(); cs.Entries != 0 {
		t.Fatalf("cache holds %d entries from an anonymous dataset", cs.Entries)
	}
}

// TestResultReuseInvalidatedByReingest: Delete + re-ingest under the
// same name with *identical cardinality* must not serve the previous
// incarnation's cached results — the store's delete generation folds
// into the dataset tag, giving the replacement a fresh identity.
func TestResultReuseInvalidatedByReingest(t *testing.T) {
	su := workload.NewSuite()
	st, err := blockstore.Open(blockstore.Config{Dir: t.TempDir(), BlockSize: 8192, Replication: 2, NumNodes: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	recsA := su.Generate(3000, workload.Uniform, 41)
	if err := workload.WriteStore(st, "data", su.Schema, recsA); err != nil {
		t.Fatal(err)
	}
	dataset := func() *Dataset {
		info, err := st.FileInfo("data")
		if err != nil {
			t.Fatal(err)
		}
		return &Dataset{
			Schema:     su.Schema,
			Input:      mr.NewStoreInput(st, "data"),
			NumRecords: info.Records,
			Tag:        st.DatasetTag("data"),
		}
	}

	rc, err := blockstore.NewResultCache(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	w := su.Q1()
	eng, err := NewEngine(Config{NumReducers: 3, ResultCache: rc, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(w, dataset()); err != nil {
		t.Fatal(err)
	}
	warm, err := eng.Run(w, dataset())
	if err != nil {
		t.Fatal(err)
	}
	if !warm.ResultReused {
		t.Fatal("warm run before re-ingest did not reuse")
	}

	// Replace the file with different records of the same cardinality.
	recsB := su.Generate(3000, workload.Uniform, 43)
	if err := st.Delete("data"); err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteStore(st, "data", su.Schema, recsB); err != nil {
		t.Fatal(err)
	}
	ds2 := dataset()
	if ds2.Tag == "store:data" {
		t.Fatalf("tag %q unchanged across re-ingest", ds2.Tag)
	}
	res, err := eng.Run(w, ds2)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResultReused {
		t.Fatal("stale cached result served for re-ingested data")
	}
	compare(t, "re-ingest", oracle(t, w, recsB), flatten(res))

	// The new incarnation warms up under its own identity.
	warm2, err := eng.Run(w, ds2)
	if err != nil {
		t.Fatal(err)
	}
	if !warm2.ResultReused {
		t.Fatal("re-ingested dataset did not warm up under its new tag")
	}
	compare(t, "re-ingest warm", oracle(t, w, recsB), flatten(warm2))
}

// renameAll rebuilds a workflow with every measure renamed, preserving
// structure; returns the new workflow and the old→new name mapping.
func renameAll(t *testing.T, w *workflow.Workflow) (*workflow.Workflow, map[string]string) {
	t.Helper()
	order, err := w.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	out := workflow.New(w.Schema())
	renames := make(map[string]string, len(order))
	for _, m := range order {
		renames[m.Name] = "renamed_" + m.Name
	}
	for _, m := range order {
		name := renames[m.Name]
		srcs := make([]string, len(m.Sources))
		for i, s := range m.Sources {
			srcs[i] = renames[s]
		}
		switch m.Kind {
		case workflow.Basic:
			attr := ""
			if m.InputAttr >= 0 {
				attr = w.Schema().Attr(m.InputAttr).Name()
			}
			err = out.AddBasic(name, m.Grain, m.Agg, attr)
		case workflow.Self:
			err = out.AddSelf(name, m.Grain, m.Expr, srcs...)
		case workflow.Rollup:
			err = out.AddRollup(name, m.Grain, m.Agg, srcs[0])
		case workflow.Inherit:
			err = out.AddInherit(name, m.Grain, srcs[0])
		case workflow.Sliding:
			err = out.AddSliding(name, m.Grain, m.Agg, srcs[0], m.Window...)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return out, renames
}
