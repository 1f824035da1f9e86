package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/casm-project/casm/internal/blockstore"
	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/measure"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/workflow"
	"github.com/casm-project/casm/internal/workload"
)

// bytesOnlyInput is a store input with the row capability hidden: the
// same splits, blocks and morsels, reachable through Open alone. Running
// a query over it and over the bare input compares the two map-side data
// paths with everything else — split carving, task count, byte
// accounting — held equal.
type bytesOnlyInput struct{ mr.Input }

func (in bytesOnlyInput) Splits() ([]mr.Split, error) {
	splits, err := in.Input.Splits()
	for i, sp := range splits {
		splits[i] = bytesOnlySplit{sp.(mr.MorselSplit)}
	}
	return splits, err
}

type bytesOnlySplit struct{ mr.MorselSplit }

func (sp bytesOnlySplit) Morsels(targetBytes int) ([]mr.Split, error) {
	subs, err := sp.MorselSplit.Morsels(targetBytes)
	for i, sub := range subs {
		subs[i] = struct{ mr.Split }{sub}
	}
	return subs, err
}

// rowsOnlyInput is the converse: every split still offers rows, and
// opening one as bytes fails the task.
type rowsOnlyInput struct{ mr.Input }

var errBytesPathOpened = errors.New("store split opened as record bytes")

func (in rowsOnlyInput) Splits() ([]mr.Split, error) {
	splits, err := in.Input.Splits()
	for i, sp := range splits {
		splits[i] = rowsOnlySplit{sp.(mr.RowSplit)}
	}
	return splits, err
}

type rowsOnlySplit struct{ mr.RowSplit }

func (rowsOnlySplit) Open() (mr.RecordIter, error) { return nil, errBytesPathOpened }

func (sp rowsOnlySplit) Morsels(targetBytes int) ([]mr.Split, error) {
	subs, err := sp.RowSplit.(mr.MorselSplit).Morsels(targetBytes)
	for i, sub := range subs {
		subs[i] = rowsOnlySplit{sub.(mr.RowSplit)}
	}
	return subs, err
}

func withInput(ds *Dataset, in mr.Input) *Dataset {
	cp := *ds
	cp.Input = in
	return &cp
}

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

// TestRowPathIsBytesPath is the row capability's property: a job answers
// a store dataset through decoded rows, the same store with the capability
// hidden through record bytes, and the same records held in memory through
// record bytes, and all three results are byte-identical. Between the two
// store runs — equal splits, so equal tasks — a combining job's every
// priced counter sum and combiner observation is equal too, under a local
// table that spills on every fold, every few folds, or never, with fixed
// splits and with morsels. (The memory dataset carves different splits and
// counts unframed bytes, so its counters are not comparable, only its
// answer.) A job that ships the record ships, over rows, only the columns
// it reads: see shippedRecordRowPath.
func TestRowPathIsBytesPath(t *testing.T) {
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
	rowsDS := &Dataset{Schema: su.Schema, Input: mr.NewStoreInput(st, "data"), NumRecords: int64(len(records))}
	bytesDS := withInput(rowsDS, bytesOnlyInput{rowsDS.Input})
	memDS := MemoryDataset(su.Schema, records, 6)
	if blocks, _ := st.Blocks("data"); len(blocks) < 8 {
		t.Fatalf("only %d store blocks: too few map tasks to mean anything", len(blocks))
	}

	for name, w := range earlyAggWorkflows(t, su) {
		for _, budget := range []int{1, 7, 0} {
			for _, morselBytes := range []int{0, 512} {
				t.Run(fmt.Sprintf("%s/budget=%d/morsel=%d", name, budget, morselBytes), func(t *testing.T) {
					cfg := Config{NumReducers: 3, EarlyAggregation: EarlyAggAuto,
						LocalAggBudget: budget, MorselBytes: morselBytes, MapParallelism: 4}
					if morselBytes > 0 {
						// Which worker's table a morsel lands in follows the
						// steal order; one worker makes the counters repeat.
						cfg.MapParallelism = 1
					}
					rows, viaBytes, mem := runEngine(t, cfg, w, rowsDS), runEngine(t, cfg, w, bytesDS), runEngine(t, cfg, w, memDS)
					if !rows.EarlyAggregated || !viaBytes.EarlyAggregated || !mem.EarlyAggregated {
						t.Fatal("a run did not combine")
					}
					want := resultBytes(t, rows)
					if !bytes.Equal(want, resultBytes(t, viaBytes)) {
						t.Error("row path and bytes path over the same store differ")
					}
					if !bytes.Equal(want, resultBytes(t, mem)) {
						t.Error("store rows and memory bytes differ")
					}
					if got, want := pricedSums(rows.Stats, true), pricedSums(viaBytes.Stats, true); got != want {
						t.Errorf("priced counters differ:\nrows  %+v\nbytes %+v", got, want)
					}
					if got, want := observedAgg(rows.Stats), observedAgg(viaBytes.Stats); got != want {
						t.Errorf("combiner observations differ: rows %+v, bytes %+v", got, want)
					}
					if budget == 1 && observedAgg(rows.Stats).spills == 0 {
						t.Error("a one-state budget never spilled")
					}
				})
			}
		}
	}
	t.Run("shipped", func(t *testing.T) { shippedRecordRowPath(t, su) })
}

// shippedRecordRowPath is TestRowPathIsBytesPath for jobs that shuffle the
// record itself: the suite's non-combining shapes, a workflow that reads
// all six attributes and one that reads none, and a batch whose two
// geometries share one scan — with two-pass and combined-key sorting, a
// grouping budget that spills often, rarely or never, fixed splits and
// morsels. Store rows, the same store with rows hidden, and memory answer
// the same bytes. Between the two store runs every priced counter and the
// spill and group observations are equal, except the four byte counters:
// over rows a pair carries only the columns the job reads, so BytesOut,
// BytesIn and Shuffled are lower by exactly the unread attributes' bytes
// of every pair (twice that under a combined key, which embeds the value),
// and SpillBytes by those of every spilled pair. Every record here encodes
// each attribute at a fixed width, which makes "exactly" a product. Q5, Q6
// and the 24-hour window evaluate blocks large enough for the reducer to
// sort them as packed integers, so the identity covers that sort too.
func shippedRecordRowPath(t *testing.T, su *workload.Suite) {
	s := su.Schema
	widths := []int64{2, 2, 2, 2, 3, 3}
	records := su.Generate(3000, workload.SkewedTime, 29)
	for _, r := range records {
		for a := range r {
			r[a] |= 1 << (7 * (widths[a] - 1)) // a 2-byte uvarint is ≥ 128, a 3-byte one ≥ 16384
		}
		if err := s.Validate(r); err != nil {
			t.Fatal(err)
		}
	}
	st, err := blockstore.Open(blockstore.Config{Dir: t.TempDir(), BlockSize: 4096, Replication: 1, NumNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := workload.WriteStore(st, "data", s, records); err != nil {
		t.Fatal(err)
	}
	rowsDS := &Dataset{Schema: s, Input: mr.NewStoreInput(st, "data"), NumRecords: int64(len(records))}
	hiddenDS := withInput(rowsDS, bytesOnlyInput{rowsDS.Input})
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
		name   string
		ws     []*workflow.Workflow
		unread int64 // encoded bytes of the attributes no workflow of the job reads
		// bigBlocks: the job's blocks average at least 96 records, the
		// size from which a reducer sorts a block as packed integers.
		bigBlocks bool
	}{
		{"q1", []*workflow.Workflow{su.Q1()}, 2 + 3, false},    // a3, t2
		{"q5", []*workflow.Workflow{su.Q5()}, 2 + 2 + 3, true}, // a3, a4, t2
		{"q6", []*workflow.Workflow{su.Q6()}, 2 + 2 + 3, true}, // a3, a4, t2
		{"24h", []*workflow.Workflow{w24}, 2 + 2 + 3, true},    // a3, a4, t2
		{"q1+q5", []*workflow.Workflow{su.Q1(), su.Q5()}, 2 + 3, false},
		{"all six", []*workflow.Workflow{basic(measure.Sum, "a3",
			cube.GrainSpec{Attr: "a1", Level: "high"}, cube.GrainSpec{Attr: "a2", Level: "high"}, cube.GrainSpec{Attr: "a4", Level: "high"},
			cube.GrainSpec{Attr: "t1", Level: "day"}, cube.GrainSpec{Attr: "t2", Level: "day"})}, 0, false},
		{"none", []*workflow.Workflow{basic(measure.Count, "")}, 14, false},
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
		for _, sortMode := range []SortMode{TwoPassSort, CombinedKeySort} {
			for _, sortMem := range []int{64, 4096, 0} {
				for _, morselBytes := range []int{0, 512} {
					t.Run(fmt.Sprintf("%s/sort=%d/mem=%d/morsel=%d", tc.name, sortMode, sortMem, morselBytes), func(t *testing.T) {
						// One map task at a time: arrival order at each
						// reducer, and so which pairs spill, repeats.
						cfg := Config{NumReducers: 3, SortMode: sortMode, SortMemoryItems: sortMem,
							MorselBytes: morselBytes, MapParallelism: 1}
						rows, hidden, mem := run(t, cfg, tc.ws, rowsDS), run(t, cfg, tc.ws, hiddenDS), run(t, cfg, tc.ws, memDS)
						for i := range tc.ws {
							if !bytes.Equal(rows.answers[i], hidden.answers[i]) {
								t.Errorf("query %d: row path and bytes path over the same store differ", i)
							}
							if !bytes.Equal(rows.answers[i], mem.answers[i]) {
								t.Errorf("query %d: store rows and memory bytes differ", i)
							}
						}
						if tc.bigBlocks && sortMode == TwoPassSort && sortMem != 64 { // no spill splits a group
							var items, groups int64
							for _, rt := range rows.stats.ReduceTasks {
								items, groups = items+rt.GroupSortItems, groups+rt.HashGroups
							}
							if items < 96*groups {
								t.Errorf("%d records sorted in %d blocks: too few for a packed in-block sort", items, groups)
							}
						}
						perPair := tc.unread
						if sortMode == CombinedKeySort {
							perPair *= 2
						}
						got, want := pricedSums(rows.stats, true), pricedSums(hidden.stats, true)
						var spilled int64
						for _, rt := range rows.stats.ReduceTasks {
							spilled += rt.SpillRuns * int64(sortMem)
						}
						if sortMem == 64 && spilled == 0 {
							t.Error("a 64-pair budget never spilled")
						}
						for _, c := range []struct {
							name        string
							rows, bytes *int64
							pairs       int64
						}{
							{"BytesOut", &got.Map.BytesOut, &want.Map.BytesOut, got.Map.PairsOut},
							{"BytesIn", &got.Reduce.BytesIn, &want.Reduce.BytesIn, got.Reduce.PairsIn},
							{"Shuffled", &rows.stats.Shuffled, &hidden.stats.Shuffled, got.Map.PairsOut},
							{"SpillBytes", &got.Reduce.SpillBytes, &want.Reduce.SpillBytes, spilled},
						} {
							if saved := *c.bytes - *c.rows; saved != c.pairs*perPair {
								t.Errorf("%s: rows %d, bytes %d: %d saved, want %d pairs × %d unread bytes = %d",
									c.name, *c.rows, *c.bytes, saved, c.pairs, perPair, c.pairs*perPair)
							}
							*c.rows, *c.bytes = 0, 0
						}
						if got != want {
							t.Errorf("priced counters differ beyond the four byte counters:\nrows  %+v\nbytes %+v", got, want)
						}
						observed := func(js mr.JobStats) (o struct{ batches, runs, groups, spills, arena, lookups int64 }) {
							for _, mt := range js.MapTasks {
								o.batches += mt.BatchesSent
							}
							for _, rt := range js.ReduceTasks {
								o.runs += rt.SpillRuns
								o.groups += rt.HashGroups
								o.spills += rt.GroupSpills
								o.arena += rt.EvalArenaBytes
								o.lookups += rt.WindowLookups
							}
							return o
						}
						if got, want := observed(rows.stats), observed(hidden.stats); got != want {
							t.Errorf("observations differ: rows %+v, bytes %+v", got, want)
						}
					})
				}
			}
		}
	}
}

// TestStoreJobNeverOpensFrames shows by construction what a profile shows
// by absence: over a store dataset every job's map tasks read rows and
// nothing else — splits and morsels whose byte form fails to open still
// answer, the same bytes — so no frame is parsed for them
// (recio.DecodeRecordInto) and, outside morsel carving, none built. That
// holds for a combining job, which ships partial states, and for every job
// that ships the record: unary, streamed, a batch sharing one scan, and
// stopped at each stage.
func TestStoreJobNeverOpensFrames(t *testing.T) {
	su := workload.NewSuite()
	records := su.Generate(2000, workload.Uniform, 3)
	_, ds := storeDataset(t, su, records)
	poisoned := withInput(ds, rowsOnlyInput{ds.Input})
	ds1, err := su.DS(1)
	if err != nil {
		t.Fatal(err)
	}
	ws := []*workflow.Workflow{ds1, su.Q1(), su.Q5(), su.Q6()}
	for _, morselBytes := range []int{0, 1024} {
		t.Run(fmt.Sprintf("morsel=%d", morselBytes), func(t *testing.T) {
			var unary [][]byte
			for i, w := range ws {
				cfg := Config{NumReducers: 3, MorselBytes: morselBytes}
				if i == 0 {
					cfg.EarlyAggregation = EarlyAggAuto
				}
				got := runEngine(t, cfg, w, poisoned)
				if got.EarlyAggregated != (i == 0) {
					t.Fatalf("query %d: combined = %v", i, got.EarlyAggregated)
				}
				unary = append(unary, resultBytes(t, got))
				if !bytes.Equal(unary[i], resultBytes(t, runEngine(t, cfg, w, ds))) {
					t.Errorf("query %d: rows-only input changed the answer", i)
				}
				compare(t, fmt.Sprintf("rows-only query %d", i), oracle(t, w, records), flatten(got))
			}
			cfg := Config{NumReducers: 3, MorselBytes: morselBytes}
			if got := resultBytes(t, streamToResult(t, cfg, ws[3], poisoned)); !bytes.Equal(got, unary[3]) {
				t.Error("streamed answer differs from the materialized one")
			}
			cfg.TempDir = t.TempDir()
			eng, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := eng.EvaluateBatchContext(context.Background(), ws[1:], poisoned)
			if err != nil {
				t.Fatal(err)
			}
			if batch.SharedScanQueries() != 3 {
				t.Fatalf("batch shared %d queries, want 3", batch.SharedScanQueries())
			}
			for i, res := range batch.Results {
				if !bytes.Equal(resultBytes(t, res), unary[i+1]) {
					t.Errorf("batch query %d differs from its unary answer", i)
				}
			}
			for _, stage := range []Stage{StageMapOnly, StageShuffle, StageSort} {
				cfg.Stage = stage
				runEngine(t, cfg, ws[2], poisoned)
			}
		})
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
			comb := newEarlyAggCombiner(su.Schema, basics, &st)
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
				if err := comb.AddRow([]byte("b"), rec); err != nil {
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
// table to the plan, every next fold takes one back, mid-task spills
// included — and demands each task flush exactly the bytes a combiner with
// buffers of its own flushes. Run with -race -count=10.
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
			block := []byte{byte('a' + rec[0]%3)}
			if err := comb.AddRow(block, rec); err != nil {
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
		if want[task], err = runTask(newEarlyAggCombiner(su.Schema, basics, &st), task); err != nil {
			t.Fatal(err)
		}
	}

	plan := newEarlyAggPlan(su.Schema, basics)
	got := make([][]byte, tasks)
	next := make(chan int)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for task := range next {
				var st mr.MapTaskStats
				out, err := runTask(plan.newCombiner(&st), task)
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
	if n := len(plan.free); n == 0 || n > workers {
		t.Errorf("%d tables on the free list after %d tasks on %d workers", n, tasks, workers)
	}
}

// oneBlockDS1 is one store block of n records, its plan for DS1, and an
// engine that runs the map side only: scan → row map → combiner → flush,
// with the pairs counted instead of shuffled.
func oneBlockDS1(tb testing.TB, n int) (run func()) {
	tb.Helper()
	su := workload.NewSuite()
	records := su.Generate(n, workload.Uniform, 9)
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
	eng, err := NewEngine(Config{NumReducers: 8, EarlyAggregation: EarlyAggAuto, Stage: StageMapOnly, TempDir: tb.TempDir()})
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
// once cancels out (plan, pipe, executor groups, the task's block-key
// intern cache: logged); what is left is what a record costs, and that is
// zero — four times the records may only add the few doublings of a
// fresh table's arrays.
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

// BenchmarkEarlyAggMapBlock is the map side of scan_earlyagg's DS1 on one
// 16k-record store block: block read, row decode, key-gen, combiner and
// flush, in ns and bytes per record.
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
