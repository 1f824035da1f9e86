package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/casm-project/casm/internal/blockstore"
	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/distkey"
	"github.com/casm-project/casm/internal/measure"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/transport"
	"github.com/casm-project/casm/internal/workflow"
	"github.com/casm-project/casm/internal/workload"
)

// mapTaskDump renders a job's map tasks for a pin: the counter sums, and an
// FNV-64a digest of every task's every counter (priced and observed,
// timings aside), tasks in label order. Observations print as the pins
// were taken: the counters of that time, in that order.
func mapTaskDump(js mr.JobStats) (sums, digest string) {
	var lines []string
	var tot mr.MapTaskStats
	for _, t := range js.MapTasks {
		o := t.MapObserved
		lines = append(lines, fmt.Sprintf("%s %+v {BatchesSent:%d CombineMerges:%d LocalAggHits:%d LocalAggSpills:%d MorselsDispatched:%d MorselSteals:%d PlanCacheHits:%d SharedScanQueries:%d SharedScanBytesSaved:%d}",
			t.Task, t.MapWork, o.BatchesSent, o.CombineMerges, o.LocalAggHits, o.LocalAggSpills, o.MorselsDispatched, o.MorselSteals,
			o.PlanCacheHits, o.SharedScanQueries, t.SharedScanBytesSaved()))
		tot.Records += t.Records
		tot.CombineInputs += t.CombineInputs
		tot.PairsOut += t.PairsOut
		tot.BytesOut += t.BytesOut
		tot.BatchesSent += t.BatchesSent
		tot.CombineMerges += t.CombineMerges
		tot.LocalAggHits += t.LocalAggHits
		tot.LocalAggSpills += t.LocalAggSpills
	}
	slices.Sort(lines)
	h := fnv.New64a()
	h.Write([]byte(strings.Join(lines, "\n")))
	return fmt.Sprintf("tasks=%d records=%d inputs=%d pairs=%d bytes=%d batches=%d merges=%d hits=%d spills=%d",
		len(js.MapTasks), tot.Records, tot.CombineInputs, tot.PairsOut, tot.BytesOut, tot.BatchesSent,
		tot.CombineMerges, tot.LocalAggHits, tot.LocalAggSpills), fmt.Sprintf("%016x", h.Sum64())
}

// TestEarlyAggBudgetPinned holds the combining map side to the counters
// and shuffle bytes the record-at-a-time map produced before it took
// batches (the values below were captured from that implementation): for
// LocalAggBudget 1, 7, 1 024 and 1 025 — a spill on every pair, every few
// pairs, at a batch's size and one past it — over a store and a memory
// dataset, for DS1 (not overlapping) and Q5 (overlapping, so a record
// folds into several blocks), every map task's every counter, and a digest
// of the pairs the reducers receive. A fold that stopped at a batch edge
// instead of right after the pair that fills the table, or counted hits
// per batch, moves them. The engine's own run gives the counters; the same
// map body in a job whose reducers digest what they receive gives the
// pairs (the per-task counters of the two must agree).
func TestEarlyAggBudgetPinned(t *testing.T) {
	su := workload.NewSuite()
	s := su.Schema
	records := su.Generate(12000, workload.Uniform, 23)
	st, err := blockstore.Open(blockstore.Config{Dir: t.TempDir(), BlockSize: 48 << 10, Replication: 1, NumNodes: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := workload.WriteStore(st, "data", s, records); err != nil {
		t.Fatal(err)
	}
	datasets := map[string]*Dataset{
		"store":  {Schema: s, Input: mr.NewStoreInput(st, "data"), NumRecords: int64(len(records))},
		"memory": MemoryDataset(s, records, 3),
	}
	ds1, err := su.DS(1)
	if err != nil {
		t.Fatal(err)
	}
	queries := map[string]*workflow.Workflow{"ds1": ds1, "q5": su.Q5()}
	for _, pin := range []struct {
		dataset, query string
		budget         int
		sums, tasks    string
		shuffle        string // pairs/bytes/sum of the pairs' FNV-64a hashes
	}{
		{"store", "ds1", 1, "tasks=4 records=12000 inputs=12000 pairs=12000 bytes=305768 batches=51 merges=0 hits=0 spills=12000", "a73c0050ecbce0fc", "12000/305768/e6865f6954481129"},
		{"store", "ds1", 7, "tasks=4 records=12000 inputs=12000 pairs=11998 bytes=305720 batches=51 merges=2 hits=2 spills=1712", "a53a3e43cd28b7fc", "11998/305720/d12e629f08216d24"},
		{"store", "ds1", 1024, "tasks=4 records=12000 inputs=12000 pairs=11257 bytes=286836 batches=48 merges=743 hits=743 spills=9", "db3779d4e096ce9e", "11257/286836/1f8bf4cef7ae2455"},
		{"store", "ds1", 1025, "tasks=4 records=12000 inputs=12000 pairs=11258 bytes=286860 batches=48 merges=742 hits=742 spills=9", "ba93d648c686431f", "11258/286860/fae6780be1dac82a"},
		{"store", "q5", 1, "tasks=4 records=12000 inputs=13117 pairs=13117 bytes=324566 batches=58 merges=0 hits=0 spills=13117", "19ff09bdc285baf5", "13117/324566/6ce12ce4aee59dc2"},
		{"store", "q5", 7, "tasks=4 records=12000 inputs=13117 pairs=13103 bytes=324223 batches=58 merges=14 hits=14 spills=1870", "bb5f55ee940f383c", "13103/324223/43fd6aacf185226d"},
		{"store", "q5", 1024, "tasks=4 records=12000 inputs=13117 pairs=9772 bytes=241773 batches=42 merges=3345 hits=3345 spills=7", "72621e8a3ffe9fa8", "9772/241773/dce2e7d8ba6fb1f0"},
		{"store", "q5", 1025, "tasks=4 records=12000 inputs=13117 pairs=9772 bytes=241773 batches=42 merges=3345 hits=3345 spills=7", "5b17c5d488263cf1", "9772/241773/fa7a3663d89cbde7"},
		{"memory", "ds1", 1, "tasks=3 records=12000 inputs=12000 pairs=12000 bytes=305768 batches=54 merges=0 hits=0 spills=12000", "0ef196c19ab8a167", "12000/305768/e6865f6954481129"},
		{"memory", "ds1", 7, "tasks=3 records=12000 inputs=12000 pairs=11998 bytes=305718 batches=54 merges=2 hits=2 spills=1713", "2fadea385e280d7c", "11998/305718/da05645b0b4bb5aa"},
		{"memory", "ds1", 1024, "tasks=3 records=12000 inputs=12000 pairs=11221 bytes=285926 batches=46 merges=779 hits=779 spills=9", "4d064508a434500b", "11221/285926/5de517456e2a8627"},
		{"memory", "ds1", 1025, "tasks=3 records=12000 inputs=12000 pairs=11222 bytes=285950 batches=46 merges=778 hits=778 spills=9", "3c5db7251ffe0d79", "11222/285950/7d624c7cd5b9e467"},
		{"memory", "q5", 1, "tasks=3 records=12000 inputs=13117 pairs=13117 bytes=324566 batches=54 merges=0 hits=0 spills=13117", "7d45472ded713ffb", "13117/324566/6ce12ce4aee59dc2"},
		{"memory", "q5", 7, "tasks=3 records=12000 inputs=13117 pairs=13107 bytes=324319 batches=54 merges=10 hits=10 spills=1871", "8921ffe0fe015ed6", "13107/324319/6111ceba7c080f5f"},
		{"memory", "q5", 1024, "tasks=3 records=12000 inputs=13117 pairs=9763 bytes=241563 batches=44 merges=3354 hits=3354 spills=9", "467587a4c03e772f", "9763/241563/95372203bf93278f"},
		{"memory", "q5", 1025, "tasks=3 records=12000 inputs=13117 pairs=9762 bytes=241540 batches=44 merges=3355 hits=3355 spills=9", "77890e536f80caf5", "9762/241540/285b13c5f4b8ecf0"},
	} {
		ds, w := datasets[pin.dataset], queries[pin.query]
		eng, err := NewEngine(Config{NumReducers: 3, EarlyAggregation: EarlyAggAuto, LocalAggBudget: pin.budget, TempDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		outcome, err := eng.PlanContext(ctx, w, ds)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.RunWithPlanContext(ctx, w, ds, outcome)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("%s/%s/budget=%d", pin.dataset, pin.query, pin.budget)
		if !res.EarlyAggregated {
			t.Fatalf("%s: the job did not combine", label)
		}
		if sums, tasks := mapTaskDump(res.Stats); sums != pin.sums || tasks != pin.tasks {
			t.Errorf("%s: map tasks %s (digest %s), pinned %s (digest %s)", label, sums, tasks, pin.sums, pin.tasks)
		}

		bm, err := distkey.NewBlockMapper(s, outcome.Plan.Key, outcome.Plan.ClusteringFactor)
		if err != nil {
			t.Fatal(err)
		}
		plan := newEarlyAggPlan(s, w.Basics())
		var mu sync.Mutex
		var sum, n, size uint64
		job := mr.Job[transport.Pair]{Input: ds.Input, Config: mr.Config{
			NumReducers: 3, LocalAggBudget: pin.budget,
			NewCombiner: func(st *mr.MapTaskStats) mr.Combiner { return plan.newCombiner(bm, st) },
			NewMapLocal: func(*mr.MapTaskStats) any { return bm.NewSession() },
		}}
		job.Map = func(ctx *mr.MapCtx, b mr.Batch) error {
			if err := s.ValidateColumns(b.Cols); err != nil {
				return err
			}
			blocks, rows := ctx.Local.(*distkey.Session).Walk(b.Cols)
			return ctx.Fold(b, blocks, rows)
		}
		job.Reduce = func(ctx *mr.ReduceCtx[transport.Pair], _ []byte, values *mr.GroupIter) error {
			for {
				p, ok, err := values.Next()
				if err != nil || !ok {
					return err
				}
				h := fnv.New64a()
				h.Write([]byte{byte(len(p.Key))})
				h.Write(p.Key)
				h.Write(p.Value)
				mu.Lock()
				sum, n, size = sum+h.Sum64(), n+1, size+uint64(len(p.Key)+len(p.Value))
				mu.Unlock()
			}
		}
		mres, err := mr.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		for i := range mres.Stats.MapTasks {
			mres.Stats.MapTasks[i].SharedScanQueries = 1 // what the engine stamps on a job of one
		}
		if _, tasks := mapTaskDump(mres.Stats); tasks != pin.tasks {
			t.Errorf("%s: the digesting job's map tasks (digest %s) are not the engine's (%s)", label, tasks, pin.tasks)
		}
		if got := fmt.Sprintf("%d/%d/%016x", n, size, sum); got != pin.shuffle {
			t.Errorf("%s: shuffled %s, pinned %s", label, got, pin.shuffle)
		}
	}
}

// TestOutOfDomainNamesTheFirstRecord: domain validation checks a batch
// column by column, yet reports the record a row-at-a-time check reports —
// the first offending one in record order, and its first offending
// attribute — here record 1 500 (amt = 70), in the same batch as a later
// record with a bad first attribute (product = 9, record 1 600) and one
// with both bad (record 1 700). The errors are pinned whole, task label
// included, for a memory and a store dataset with and without early
// aggregation.
func TestOutOfDomainNamesTheFirstRecord(t *testing.T) {
	s := cube.MustSchema(
		cube.MustMappedAttribute("product", 8, cube.MappedLevel{Name: "cat", Assign: []int64{0, 0, 1, 1, 1, 2, 2, 3}}),
		cube.MustAttribute("amt", cube.Numeric, 64, cube.Level{Name: "v", Span: 1}, cube.Level{Name: "band", Span: 8}),
	)
	grain := s.MustGrain(cube.GrainSpec{Attr: "product", Level: "cat"}, cube.GrainSpec{Attr: "amt", Level: "band"})
	w := workflow.New(s)
	if err := w.AddBasic("total", grain, measure.Spec{Func: measure.Sum}, "amt"); err != nil {
		t.Fatal(err)
	}
	records := make([]cube.Record, 3000)
	for i := range records {
		records[i] = cube.Record{int64(i % 8), int64(i % 64)}
	}
	records[1500] = cube.Record{2, 70}
	records[1600] = cube.Record{9, 3}
	records[1700] = cube.Record{11, 99}
	st, err := blockstore.Open(blockstore.Config{Dir: t.TempDir(), BlockSize: 1 << 20, Replication: 1, NumNodes: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.WriteRecords("data", s.NumAttrs(), workflow.SchemaDigest(s), records); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ds   *Dataset
		want string
	}{
		{"memory", MemoryDataset(s, records, 1), "mr: map task mem-0: cube: value outside its attribute's domain: attribute \"amt\" value 70 outside [0, 64)"},
		{"store", &Dataset{Schema: s, Input: mr.NewStoreInput(st, "data"), NumRecords: int64(len(records)), Tag: "store:data"}, "mr: map task data[0]: cube: value outside its attribute's domain: attribute \"amt\" value 70 outside [0, 64)"},
	} {
		for _, early := range []EarlyAggMode{EarlyAggOff, EarlyAggAuto} {
			eng, err := NewEngine(Config{NumReducers: 2, EarlyAggregation: early, TempDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			_, err = eng.Run(w, tc.ds)
			if !errors.Is(err, cube.ErrOutOfDomain) || err.Error() != tc.want {
				t.Errorf("%s, early=%d: %v, want %q", tc.name, early, err, tc.want)
			}
		}
	}
}
