package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/casm-project/casm/internal/blockstore"
	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/distkey"
	"github.com/casm-project/casm/internal/exec"
	"github.com/casm-project/casm/internal/measure"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/workflow"
	"github.com/casm-project/casm/internal/workload"
)

// earlyAggWorkflows are the combining workflows the row-path tests run:
// one basic of every mergeable kind at a shared grain, and Figure 4(e)'s
// two combining datasets.
func earlyAggWorkflows(t *testing.T, su *workload.Suite) map[string]*workflow.Workflow {
	t.Helper()
	out := map[string]*workflow.Workflow{"seven-kinds": mergeableBasicsWorkflow(t, su)}
	for i := 0; i < 2; i++ {
		w, err := su.DS(i)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("ds%d", i)] = w
	}
	return out
}

// observedAgg sums the unpriced combiner observations of a job's map
// tasks.
func observedAgg(js mr.JobStats) (o struct{ hits, spills, merges int64 }) {
	for _, t := range js.MapTasks {
		o.hits += t.LocalAggHits
		o.spills += t.LocalAggSpills
		o.merges += t.CombineMerges
	}
	return o
}

// TestStoreRowsMatchMemory: a job answers a store dataset and the same
// records held in memory with the same bytes — both read rows, the store's
// decoded from its columns, memory's from one slab — for a combining job
// under a local table that spills on every fold, every few folds, or
// never, with fixed splits and with morsels. The two inputs carve different
// splits, so a combining job's partial states differ between them; a job
// that ships the record ships the same pairs from both: see
// shippedRecordsMatchMemory.
func TestStoreRowsMatchMemory(t *testing.T) {
	su := workload.NewSuite()
	records := su.Generate(3000, workload.Uniform, 17)
	st, err := blockstore.Open(blockstore.Config{Dir: t.TempDir(), BlockSize: 4096, Replication: 2, NumNodes: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := workload.WriteStore(st, "data", su.Schema, records); err != nil {
		t.Fatal(err)
	}
	storeDS := &Dataset{Schema: su.Schema, Input: mr.NewStoreInput(st, "data"), NumRecords: int64(len(records))}
	memDS := MemoryDataset(su.Schema, records, 6)
	if blocks, _ := st.Blocks("data"); len(blocks) < 8 {
		t.Fatalf("only %d store blocks: too few map tasks to mean anything", len(blocks))
	}

	for name, w := range earlyAggWorkflows(t, su) {
		for _, budget := range []int{1, 7, 0} {
			for _, morselBytes := range []int{0, 512} {
				t.Run(fmt.Sprintf("%s/budget=%d/morsel=%d", name, budget, morselBytes), func(t *testing.T) {
					cfg := Config{NumReducers: 3, EarlyAggregation: EarlyAggAuto,
						LocalAggBudget: budget, MorselBytes: morselBytes}
					store, mem := runEngine(t, cfg, w, storeDS), runEngine(t, cfg, w, memDS)
					if !store.EarlyAggregated || !mem.EarlyAggregated {
						t.Fatal("a run did not combine")
					}
					if !bytes.Equal(resultBytes(t, store), resultBytes(t, mem)) {
						t.Error("store rows and memory rows answer differently")
					}
					if budget == 1 && observedAgg(store.Stats).spills == 0 {
						t.Error("a one-state budget never spilled")
					}
				})
			}
		}
	}
	t.Run("shipped", func(t *testing.T) { shippedRecordsMatchMemory(t, su) })
}

// shippedRecordsMatchMemory is TestStoreRowsMatchMemory for jobs that
// shuffle the record itself: the suite's non-combining shapes, a workflow
// that reads all six attributes and one that reads none, and a batch whose
// two geometries share one scan — with a grouping budget that spills
// often, rarely or never, fixed splits and morsels. Store and memory answer the same bytes, and since both ship
// each record's read columns and, one map task at a time, deliver each
// reducer its pairs in record order, every priced counter sum and every
// spill and group observation is equal too — except BytesRead, which
// counts a store block's frames and a memory split's bare records. Q5, Q6
// and the 24-hour window evaluate blocks large enough for the reducer to
// sort them as packed integers, so the identity covers that sort too.
func shippedRecordsMatchMemory(t *testing.T, su *workload.Suite) {
	s := su.Schema
	serial := exec.New(1)
	defer serial.Close()
	records := su.Generate(3000, workload.SkewedTime, 29)
	st, err := blockstore.Open(blockstore.Config{Dir: t.TempDir(), BlockSize: 4096, Replication: 1, NumNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := workload.WriteStore(st, "data", s, records); err != nil {
		t.Fatal(err)
	}
	storeDS := &Dataset{Schema: s, Input: mr.NewStoreInput(st, "data"), NumRecords: int64(len(records))}
	memDS := MemoryDataset(s, records, 6)

	basic := func(fn measure.Func, attr string, specs ...cube.GrainSpec) *workflow.Workflow {
		w := workflow.New(s)
		if err := w.AddBasic("m", s.MustGrain(specs...), measure.Spec{Func: fn}, attr); err != nil {
			t.Fatal(err)
		}
		return w
	}
	w24 := basic(measure.Sum, "a2", cube.GrainSpec{Attr: "a1", Level: "high"}, cube.GrainSpec{Attr: "t1", Level: "hour"})
	t1, _ := s.AttrIndex("t1")
	if err := w24.AddSliding("win", w24.Measures()[0].Grain, measure.Spec{Func: measure.Sum}, "m",
		workflow.RangeAnn{Attr: t1, Low: -23, High: 0}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		ws   []*workflow.Workflow
		// bigBlocks: the job's blocks average at least 96 records, the
		// size from which a reducer sorts a block as packed integers.
		bigBlocks bool
	}{
		{"q1", []*workflow.Workflow{su.Q1()}, false},
		{"q5", []*workflow.Workflow{su.Q5()}, true},
		{"q6", []*workflow.Workflow{su.Q6()}, true},
		{"24h", []*workflow.Workflow{w24}, true},
		{"q1+q5", []*workflow.Workflow{su.Q1(), su.Q5()}, false},
		{"all six", []*workflow.Workflow{basic(measure.Sum, "a3",
			cube.GrainSpec{Attr: "a1", Level: "high"}, cube.GrainSpec{Attr: "a2", Level: "high"}, cube.GrainSpec{Attr: "a4", Level: "high"},
			cube.GrainSpec{Attr: "t1", Level: "day"}, cube.GrainSpec{Attr: "t2", Level: "day"})}, false},
		{"none", []*workflow.Workflow{basic(measure.Count, "")}, false},
	}
	type shipped struct {
		answers [][]byte
		stats   mr.JobStats
	}
	run := func(t *testing.T, cfg Config, ws []*workflow.Workflow, ds *Dataset) shipped {
		t.Helper()
		cfg.TempDir = t.TempDir()
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := eng.EvaluateBatchContext(context.Background(), ws, ds)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch.Jobs) != 1 {
			t.Fatalf("%d jobs, want the one shared job", len(batch.Jobs))
		}
		out := shipped{stats: batch.Jobs[0].Stats}
		for _, res := range batch.Results {
			if res.EarlyAggregated {
				t.Fatal("the job combined")
			}
			out.answers = append(out.answers, resultBytes(t, res))
		}
		return out
	}
	for _, tc := range cases {
		for _, sortMem := range []int{64, 4096, 0} {
			for _, morselBytes := range []int{0, 512} {
				t.Run(fmt.Sprintf("%s/mem=%d/morsel=%d", tc.name, sortMem, morselBytes), func(t *testing.T) {
					// One map task at a time: arrival order at each
					// reducer, and so which pairs spill, repeats.
					cfg := Config{NumReducers: 3, SortMemoryItems: sortMem,
						MorselBytes: morselBytes, executor: serial}
					store, mem := run(t, cfg, tc.ws, storeDS), run(t, cfg, tc.ws, memDS)
					for i := range tc.ws {
						if !bytes.Equal(store.answers[i], mem.answers[i]) {
							t.Errorf("query %d: store and memory answer differently", i)
						}
					}
					if tc.bigBlocks && sortMem != 64 { // no spill splits a group
						var items, groups int64
						for _, rt := range store.stats.ReduceTasks {
							items, groups = items+rt.GroupSortItems, groups+rt.HashGroups
						}
						if items < 96*groups {
							t.Errorf("%d records sorted in %d blocks: too few for a packed in-block sort", items, groups)
						}
					}
					got, want := pricedSums(store.stats, true), pricedSums(mem.stats, true)
					var spilled int64
					for _, rt := range store.stats.ReduceTasks {
						spilled += rt.SpillRuns
					}
					if sortMem == 64 && spilled == 0 {
						t.Error("a 64-pair budget never spilled")
					}
					got.Map.BytesRead, want.Map.BytesRead = 0, 0
					if got != want || store.stats.Shuffled != mem.stats.Shuffled {
						t.Errorf("priced counters differ beyond BytesRead:\nstore  %+v, shuffled %d\nmemory %+v, shuffled %d",
							got, store.stats.Shuffled, want, mem.stats.Shuffled)
					}
					observed := func(js mr.JobStats) (o struct{ runs, groups, arena, lookups int64 }) {
						for _, rt := range js.ReduceTasks {
							o.runs += rt.SpillRuns
							o.groups += rt.HashGroups
							o.arena += rt.EvalArenaBytes
							o.lookups += rt.WindowLookups
						}
						return o
					}
					if got, want := observed(store.stats), observed(mem.stats); got != want {
						t.Errorf("observations differ: store %+v, memory %+v", got, want)
					}
				})
			}
		}
	}
}

// TestEarlyAggRowPathFailsOver: a combining scan whose first-choice
// replicas are corrupt reads its rows from the survivors and answers the
// same bytes.
func TestEarlyAggRowPathFailsOver(t *testing.T) {
	su := workload.NewSuite()
	records := su.Generate(2500, workload.Uniform, 41)
	w, err := su.DS(1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st := openFaultStore(t, dir, records, su)
	defer st.Close()
	cfg := Config{NumReducers: 3, EarlyAggregation: EarlyAggAuto}
	healthy := resultBytes(t, runEngine(t, cfg, w, faultDataset(st, su)))

	// Scribble over everything node 1 holds: each block whose placement
	// lists that node first fails its checksum there.
	for _, seg := range segmentFiles(t, dir) {
		if !strings.Contains(seg, string(os.PathSeparator)+"n1"+string(os.PathSeparator)) {
			continue
		}
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 8; i < len(data); i++ {
			data[i] ^= 0x5A
		}
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := st.Stats().ChecksumFailovers
	res := runEngine(t, cfg, w, faultDataset(st, su))
	if !bytes.Equal(healthy, resultBytes(t, res)) {
		t.Fatal("answer through failover differs from the healthy one")
	}
	if st.Stats().ChecksumFailovers == before {
		t.Fatal("no row read failed over")
	}
}

// TestFlatStateWireBytes pins the shuffle wire format: for every mergeable
// kind the state bytes the table flushes are the bytes that kind's
// Aggregator serializes after the same values — on negative inputs, a
// single value, ties for the extreme, and sums at the edge of float64's
// integers — so the reduce side's MergeState cannot tell which produced them.
func TestFlatStateWireBytes(t *testing.T) {
	su := workload.NewSuite()
	w := mergeableBasicsWorkflow(t, su)
	basics := w.Basics()
	cases := map[string][]int64{
		"negatives": {-3, -7, -1, -7},
		"single":    {42},
		"zero":      {0},
		"ties":      {5, 5, 5},
		"tie-last":  {9, 2, 9, 2},
		"2^53":      {1 << 53, 1 << 53, 1, -1},
		"mixed":     {1 << 40, -(1 << 40), 3, 1 << 52},
	}
	for name, inputs := range cases {
		t.Run(name, func(t *testing.T) {
			var st mr.MapTaskStats
			comb := newEarlyAggCombiner(t, su.Schema, basics, &st)
			rec := make(cube.Record, su.Schema.NumAttrs())
			aggs := make([]measure.Aggregator, len(basics))
			for i, b := range basics {
				aggs[i] = b.Agg.New()
			}
			for _, v := range inputs {
				for i, b := range basics {
					if b.InputAttr >= 0 {
						rec[b.InputAttr] = v
						aggs[i].Add(float64(v))
					} else {
						aggs[i].Add(0)
					}
				}
				if err := foldRow(comb, 0, rec); err != nil {
					t.Fatal(err)
				}
			}
			seen := 0
			err := comb.Flush(func(key, value []byte) error {
				idx, _, state, err := splitPartial(value)
				if err != nil {
					return err
				}
				if want := aggs[idx].State(); !bytes.Equal(state, want) {
					t.Errorf("%s: table flushed state %x, aggregator serializes %x", basics[idx].Name, state, want)
				}
				seen++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if seen != len(basics) {
				t.Fatalf("flushed %d partials for %d basics in one region", seen, len(basics))
			}
		})
	}
}

// TestEarlyAggTablesRecycleUnderConcurrency runs many map tasks' worth of
// combiners from one plan on four goroutines — every Flush returns its
// table to aggTables, every next fold takes one back, mid-task spills
// included — and demands each task flush exactly the bytes the same task
// flushes when it runs alone. Run with -race -count=10.
func TestEarlyAggTablesRecycleUnderConcurrency(t *testing.T) {
	su := workload.NewSuite()
	w := mergeableBasicsWorkflow(t, su)
	basics := w.Basics()
	const tasks, workers, perTask = 16, 4, 400
	records := su.Generate(tasks*perTask, workload.SkewedTime, 23)

	// runTask folds one task's records (spilling every 97) and returns the
	// concatenated flush stream.
	runTask := func(comb *earlyAggCombiner, task int) ([]byte, error) {
		var out []byte
		sink := func(k, v []byte) error {
			out = append(append(append(out, k...), 0), v...)
			return nil
		}
		for i, rec := range records[task*perTask : (task+1)*perTask] {
			if err := foldRow(comb, uint64(rec[0]%3)*300, rec); err != nil {
				return nil, err
			}
			if (i+1)%97 == 0 {
				if err := comb.Flush(sink); err != nil {
					return nil, err
				}
			}
		}
		return out, comb.Flush(sink)
	}

	want := make([][]byte, tasks)
	for task := range want {
		var st mr.MapTaskStats
		var err error
		if want[task], err = runTask(newEarlyAggCombiner(t, su.Schema, basics, &st), task); err != nil {
			t.Fatal(err)
		}
	}

	plan, bm := newEarlyAggPlan(su.Schema, basics), testBlocks(t, su.Schema, basics)
	got := make([][]byte, tasks)
	next := make(chan int)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for task := range next {
				var st mr.MapTaskStats
				out, err := runTask(plan.newCombiner(bm, &st), task)
				if err != nil {
					t.Error(err)
				}
				got[task] = out
			}
		}()
	}
	for task := 0; task < tasks; task++ {
		next <- task
	}
	close(next)
	wg.Wait()
	for task := range want {
		if !bytes.Equal(got[task], want[task]) {
			t.Errorf("task %d: recycled tables flushed different bytes than fresh ones", task)
		}
	}
}

// oneBlockDS1 is one store block of n records — the same 4096 records
// repeated, so every n flushes the same partial states — its plan for DS1,
// and an engine that runs the whole job: scan → row map → combiner →
// flush → shuffle → merge → assembly.
func oneBlockDS1(tb testing.TB, n int) (run func()) {
	tb.Helper()
	su := workload.NewSuite()
	records := su.Generate(4096, workload.Uniform, 9)
	for len(records) < n {
		records = append(records, records[:4096]...)
	}
	st, err := blockstore.Open(blockstore.Config{Dir: tb.TempDir(), BlockSize: 64 << 20, Replication: 1, NumNodes: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	if err := workload.WriteStore(st, "data", su.Schema, records); err != nil {
		tb.Fatal(err)
	}
	if blocks, _ := st.Blocks("data"); len(blocks) != 1 {
		tb.Fatalf("%d blocks, want one", len(blocks))
	}
	ds := &Dataset{Schema: su.Schema, Input: mr.NewStoreInput(st, "data"), NumRecords: int64(n)}
	w, err := su.DS(1)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := NewEngine(Config{NumReducers: 8, EarlyAggregation: EarlyAggAuto, TempDir: tb.TempDir()})
	if err != nil {
		tb.Fatal(err)
	}
	ctx := context.Background()
	outcome, err := eng.PlanContext(ctx, w, ds)
	if err != nil {
		tb.Fatal(err)
	}
	return func() {
		res, err := eng.RunWithPlanContext(ctx, w, ds, outcome)
		if err != nil {
			tb.Fatal(err)
		}
		if mt := res.Stats.MapTasks; len(mt) != 1 || mt[0].Records != int64(n) || mt[0].CombineInputs != int64(n) || mt[0].PairsOut == 0 {
			tb.Fatalf("map side did not scan, combine and flush %d records: %+v", n, mt)
		}
	}
}

// TestEarlyAggMapBlockAllocs is the allocation ceiling of the row
// pipeline, measured the way mr's TestEmitShuffleGroupAllocs measures the
// shuffle: whole-job allocations over one block at two sizes, the
// difference divided by the extra records. What a job and a task cost
// once cancels out (plan, pipe, executor groups, the task's key-gen
// session, and — the big block repeating the small one's records — the
// flushed partial states' shuffle, merge and assembly: logged); what is
// left is what a record costs, and that is zero — four times the records
// may only add the few doublings of a fresh table's arrays.
func TestEarlyAggMapBlockAllocs(t *testing.T) {
	const small, big = 4096, 16384
	runSmall, runBig := oneBlockDS1(t, small), oneBlockDS1(t, big)
	runSmall()
	runBig()
	allocsSmall := testing.AllocsPerRun(5, runSmall)
	allocsBig := testing.AllocsPerRun(5, runBig)
	perRecord := (allocsBig - allocsSmall) / (big - small)
	t.Logf("allocs per one-block job: %.0f @ %d records, %.0f @ %d records => %.5f allocs/record",
		allocsSmall, small, allocsBig, big, perRecord)
	if perRecord > 0.01 {
		t.Errorf("the row pipeline costs %.5f allocs/record, want 0 (amortized growth only)", perRecord)
	}
	if extra := allocsBig - allocsSmall; extra > 64 {
		t.Errorf("%d more records cost %.0f more allocations, want a constant handful", big-small, extra)
	}
}

// TestEarlyAggFoldAllocatesNothing is the fold's own ceiling, without a
// job around it: a table recycled by a flush folds a block's batches again
// — key-gen to block ordinals, region ordinals summed column by column,
// the probes and the states — with no allocation at all, for DS0's and
// DS1's keys (overlapping or not) and one basic of every mergeable kind.
func TestEarlyAggFoldAllocatesNothing(t *testing.T) {
	su := workload.NewSuite()
	records := su.Generate(4096, workload.Uniform, 9)
	for name, w := range earlyAggWorkflows(t, su) {
		t.Run(name, func(t *testing.T) {
			key, _, err := distkey.Derive(w)
			if err != nil {
				t.Fatal(err)
			}
			bm, err := distkey.NewBlockMapper(su.Schema, key, 1)
			if err != nil {
				t.Fatal(err)
			}
			var st mr.MapTaskStats
			plan := newEarlyAggPlan(su.Schema, w.Basics())
			comb, ss := plan.newCombiner(bm, &st), bm.NewSession()
			batches := columnBatches(records)
			fold := func() {
				for _, b := range batches {
					ords, rows := ss.Walk(b.Cols)
					if n, _, err := comb.Fold(b, ords, rows, math.MaxInt); err != nil || n != len(ords) {
						t.Fatalf("folded %d of %d pairs: %v", n, len(ords), err)
					}
				}
			}
			fold()
			if err := comb.Flush(func(k, v []byte) error { return nil }); err != nil {
				t.Fatal(err)
			}
			// Each run folds into the recycled table, then empties it as a
			// flush does, without the flush's output buffer.
			if n := testing.AllocsPerRun(5, func() { fold(); comb.t.reset() }); n != 0 {
				t.Errorf("folding %d records allocated %.0f times, want 0", len(records), n)
			}
			if st.CombineMerges == 0 {
				t.Error("no fold merged into an entry")
			}
		})
	}
}

// TestMapBatchesAllocateNothing is the per-batch ceiling of a warmed
// combining map task: once a store block of four batches is read and its
// reader open, decoding each batch, validating its columns, walking its
// blocks and folding the pairs into the task's table allocates nothing,
// for DS0's and DS1's keys and one basic of every mergeable kind. (The
// block read and the reader's buffers are once per block, and pooled.)
func TestMapBatchesAllocateNothing(t *testing.T) {
	su := workload.NewSuite()
	st, err := blockstore.Open(blockstore.Config{Dir: t.TempDir(), BlockSize: 64 << 20, Replication: 1, NumNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := workload.WriteStore(st, "data", su.Schema, su.Generate(4*1024, workload.Uniform, 9)); err != nil {
		t.Fatal(err)
	}
	for name, w := range earlyAggWorkflows(t, su) {
		t.Run(name, func(t *testing.T) {
			key, _, err := distkey.Derive(w)
			if err != nil {
				t.Fatal(err)
			}
			bm, err := distkey.NewBlockMapper(su.Schema, key, 1)
			if err != nil {
				t.Fatal(err)
			}
			var mst mr.MapTaskStats
			comb, ss := newEarlyAggPlan(su.Schema, w.Basics()).newCombiner(bm, &mst), bm.NewSession()
			// scan reads the block and returns the allocations its batches
			// cost, from the first Next to the last.
			scan := func() (mallocs uint64) {
				rr, err := st.ReadBlockRows("data", 0)
				if err != nil {
					t.Fatal(err)
				}
				defer rr.Close()
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				for batches := 0; ; batches++ {
					b, ok, err := rr.Next()
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						if batches != 4 {
							t.Fatalf("%d batches, want 4", batches)
						}
						break
					}
					if err := su.Schema.ValidateColumns(b.Cols); err != nil {
						t.Fatal(err)
					}
					ords, rows := ss.Walk(b.Cols)
					if _, _, err := comb.Fold(b, ords, rows, math.MaxInt); err != nil {
						t.Fatal(err)
					}
				}
				runtime.ReadMemStats(&m1)
				comb.t.reset() // as a flush empties it, keeping the table
				return m1.Mallocs - m0.Mallocs
			}
			// After a warming scan, in which the session's and the table's
			// buffers grow once, the fewest of five scans: a per-batch
			// allocation shows in every scan, a runtime one in some.
			scan()
			fewest := scan()
			for i := 0; i < 4; i++ {
				fewest = min(fewest, scan())
			}
			if fewest != 0 {
				t.Errorf("four batches allocated %d times, want 0", fewest)
			}
		})
	}
}

// BenchmarkEarlyAggMapBlock is scan_earlyagg's DS1 as one job over one
// 16k-record store block: block read, row decode, key-gen, combiner and
// flush, then the partial states' shuffle, merge and assembly, in ns and
// bytes per record.
func BenchmarkEarlyAggMapBlock(b *testing.B) {
	const n = 16384
	run := oneBlockDS1(b, n)
	run()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	records := float64(b.N) * n
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/records, "ns/record")
	b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/records, "B/record")
}
