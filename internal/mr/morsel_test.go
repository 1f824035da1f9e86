package mr

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/casm-project/casm/internal/blockstore"
	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/exec"
	"github.com/casm-project/casm/internal/recio"
	"github.com/casm-project/casm/internal/transport"
)

// TestMemorySplitMorsels checks that carving partitions the records: every
// record appears exactly once, in order, across the morsels.
func TestMemorySplitMorsels(t *testing.T) {
	var records [][]byte
	for i := 0; i < 100; i++ {
		records = append(records, []byte(fmt.Sprintf("record-%03d", i)))
	}
	in := NewMemoryInput(records, 1)
	splits, _ := in.Splits()
	ms := splits[0].(MorselSplit)
	for _, target := range []int{1, 13, 64, 1 << 20} {
		morsels, err := ms.Morsels(target)
		if err != nil {
			t.Fatal(err)
		}
		var got [][]byte
		for _, m := range morsels {
			it, err := m.Open()
			if err != nil {
				t.Fatal(err)
			}
			for {
				rec, ok, err := it.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				got = append(got, rec)
			}
		}
		if len(got) != len(records) {
			t.Fatalf("target %d: %d records across %d morsels, want %d", target, len(got), len(morsels), len(records))
		}
		for i := range got {
			if string(got[i]) != string(records[i]) {
				t.Fatalf("target %d: record %d = %q, want %q", target, i, got[i], records[i])
			}
		}
		if target == 1 && len(morsels) != len(records) {
			t.Errorf("target 1: %d morsels, want one per record", len(morsels))
		}
		if target == 1<<20 && len(morsels) != 1 {
			t.Errorf("huge target: %d morsels, want 1", len(morsels))
		}
	}
}

// TestStoreSplitMorsels checks the frame-run carving of store blocks:
// morsels partition each block's frames and never split a record.
func TestStoreSplitMorsels(t *testing.T) {
	st, err := blockstore.Open(blockstore.Config{Dir: t.TempDir(), BlockSize: 512, Replication: 1, NumNodes: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var recs []cube.Record
	for i := int64(0); i < 500; i++ {
		recs = append(recs, cube.Record{i % 7, i, i * i})
	}
	if err := st.WriteRecords("data", 3, "", recs); err != nil {
		t.Fatal(err)
	}
	splits, err := NewStoreInput(st, "data").Splits()
	if err != nil {
		t.Fatal(err)
	}
	var got []cube.Record
	totalMorsels := 0
	for _, sp := range splits {
		morsels, err := sp.(MorselSplit).Morsels(64)
		if err != nil {
			t.Fatal(err)
		}
		totalMorsels += len(morsels)
		for _, m := range morsels {
			if m.SizeBytes() <= 0 {
				t.Fatalf("morsel %s has size %d", m.Label(), m.SizeBytes())
			}
			it, err := m.Open()
			if err != nil {
				t.Fatal(err)
			}
			for {
				payload, ok, err := it.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				rec, err := recio.DecodeRecord(payload, 3)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, rec)
			}
		}
	}
	if len(got) != len(recs) {
		t.Fatalf("%d records across %d morsels, want %d", len(got), totalMorsels, len(recs))
	}
	for i := range got {
		for j := range got[i] {
			if got[i][j] != recs[i][j] {
				t.Fatalf("record %d = %v, want %v", i, got[i], recs[i])
			}
		}
	}
	if totalMorsels <= len(splits) {
		t.Errorf("carving produced %d morsels over %d splits; expected finer grain", totalMorsels, len(splits))
	}
}

// morselWCConfig is the word-count config with morsel mode on and knobs
// tightened so every interesting path (tiny morsels, local-agg overflow)
// runs even on the small corpus.
func morselWCConfig(tmp string) Config {
	return Config{
		NumReducers:    3,
		MorselBytes:    8, // a handful of records per morsel
		LocalAggBudget: 2,
		TempDir:        tmp,
	}
}

// TestMorselWordCount runs the canonical job in morsel mode and checks
// the exact same output as fixed-split mode, plus the morsel counters.
func TestMorselWordCount(t *testing.T) {
	cfg := morselWCConfig(t.TempDir())
	cfg.MapParallelism = 4
	res, err := Run(wordCountJob(wcLines, cfg))
	if err != nil {
		t.Fatal(err)
	}
	checkWordCount(t, res)
	var recs, morsels int64
	for _, m := range res.Stats.MapTasks {
		if !strings.HasPrefix(m.Task, "map-worker-") {
			t.Errorf("morsel-mode task named %q", m.Task)
		}
		recs += m.Records
		morsels += m.MorselsDispatched
	}
	if recs != int64(len(wcLines)) {
		t.Errorf("records = %d, want %d", recs, len(wcLines))
	}
	if morsels < 3 {
		t.Errorf("MorselsDispatched = %d; tiny MorselBytes should carve finer", morsels)
	}
}

// TestMorselMatchesFixed pins byte-level equivalence of the two map modes
// on the mr layer: same sorted output pairs, with a combiner forced to
// spill (LocalAggBudget=2) and the reducer's sorter forced to spill
// (SortMemoryItems=2).
func TestMorselMatchesFixed(t *testing.T) {
	var lines []string
	for i := 0; i < 40; i++ {
		lines = append(lines, wcLines...)
	}
	// The "channel" name level is kept only so test IDs stay stable.
	t.Run("channel", func(t *testing.T) {
		run := func(morsel bool) []transport.Pair {
			cfg := Config{
				NumReducers:     3,
				NewCombiner:     newSumCombiner,
				SortMemoryItems: 2,
				TempDir:         t.TempDir(),
			}
			if morsel {
				cfg.MorselBytes = 64
				cfg.LocalAggBudget = 2
				cfg.MapParallelism = 4
			}
			res, err := Run(wordCountJob(lines, cfg))
			if err != nil {
				t.Fatal(err)
			}
			out := append([]transport.Pair(nil), res.Output...)
			sort.Slice(out, func(i, j int) bool {
				if c := bytes.Compare(out[i].Key, out[j].Key); c != 0 {
					return c < 0
				}
				return bytes.Compare(out[i].Value, out[j].Value) < 0
			})
			return out
		}
		fixed, morsel := run(false), run(true)
		if len(fixed) != len(morsel) {
			t.Fatalf("fixed %d pairs, morsel %d", len(fixed), len(morsel))
		}
		for i := range fixed {
			if string(fixed[i].Key) != string(morsel[i].Key) || string(fixed[i].Value) != string(morsel[i].Value) {
				t.Fatalf("pair %d: fixed %q=%q, morsel %q=%q",
					i, fixed[i].Key, fixed[i].Value, morsel[i].Key, morsel[i].Value)
			}
		}
	})
}

// TestMorselStealsOnSkew pins the load-balancing claim: with two workers
// and all the data in one split (maximally clustered), the idle worker
// must steal.
func TestMorselStealsOnSkew(t *testing.T) {
	var lines []string
	for i := 0; i < 2000; i++ {
		lines = append(lines, fmt.Sprintf("key%d value value value", i%17))
	}
	records := make([][]byte, len(lines))
	for i, l := range lines {
		records[i] = []byte(l)
	}
	ex := exec.New(2)
	defer ex.Close()
	job := wordCountJob(lines, Config{
		NumReducers:    2,
		Executor:       ex,
		MapParallelism: 2,
		MorselBytes:    256,
		NewCombiner:    newSumCombiner,
		TempDir:        t.TempDir(),
	})
	job.Input = NewMemoryInput(records, 1) // one giant split: worker 1 starts empty
	// On a single-core runner worker 0 could drain every morsel before
	// worker 1's goroutine ever runs; yield between records so both
	// workers observe a non-empty dispatch set.
	inner := job.Map
	job.Map = func(mctx *MapCtx, record []byte) error {
		runtime.Gosched()
		return inner(mctx, record)
	}
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	var dispatched, steals, hits int64
	for _, m := range res.Stats.MapTasks {
		dispatched += m.MorselsDispatched
		steals += m.MorselSteals
		hits += m.LocalAggHits
	}
	if dispatched < 10 {
		t.Fatalf("MorselsDispatched = %d; expected many morsels from 1 split", dispatched)
	}
	if steals == 0 {
		t.Error("MorselSteals = 0 on a one-split two-worker run; worker 1 never stole")
	}
	if hits == 0 {
		t.Error("LocalAggHits = 0; 17 hot keys across thousands of pairs must hit the local table")
	}
}

// TestMorselLocalAggSpills pins the overflow path: a tiny budget over
// many distinct keys must spill mid-stream, and output stays correct.
func TestMorselLocalAggSpills(t *testing.T) {
	cfg := morselWCConfig(t.TempDir())
	cfg.MapParallelism = 2
	cfg.NewCombiner = newSumCombiner
	res, err := Run(wordCountJob(wcLines, cfg))
	if err != nil {
		t.Fatal(err)
	}
	checkWordCount(t, res)
	var spills int64
	for _, m := range res.Stats.MapTasks {
		spills += m.LocalAggSpills
	}
	if spills == 0 {
		t.Error("LocalAggSpills = 0 with LocalAggBudget=2 over 11 distinct words")
	}
}

// TestMorselFailureInjection checks the per-worker retry contract: the
// injector fires at worker start (before any morsel) and a crashed
// attempt is retried without duplicating output.
func TestMorselFailureInjection(t *testing.T) {
	var fails atomic.Int32
	cfg := morselWCConfig(t.TempDir())
	cfg.MapParallelism = 2
	cfg.FailureInjector = func(task string, attempt int) error {
		if task == "map-worker-0" && attempt == 1 {
			fails.Add(1)
			return fmt.Errorf("injected crash")
		}
		return nil
	}
	res, err := Run(wordCountJob(wcLines, cfg))
	if err != nil {
		t.Fatal(err)
	}
	checkWordCount(t, res)
	if fails.Load() != 1 {
		t.Errorf("injector fired %d times", fails.Load())
	}
	retried := false
	for _, m := range res.Stats.MapTasks {
		if m.Task == "map-worker-0" && m.Attempts == 2 {
			retried = true
		}
	}
	if !retried {
		t.Error("map-worker-0 was not retried")
	}
}

// TestMorselCancellation checks prompt teardown mid-run: cancelling the
// context from inside a map function unwinds the whole pipeline with
// context.Canceled.
func TestMorselCancellation(t *testing.T) {
	var lines []string
	for i := 0; i < 5000; i++ {
		lines = append(lines, fmt.Sprintf("w%d x y z", i))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var seen atomic.Int64
	job := wordCountJob(lines, Config{
		NumReducers:    2,
		MapParallelism: 4,
		MorselBytes:    64,
		TempDir:        t.TempDir(),
	})
	inner := job.Map
	job.Map = func(mctx *MapCtx, record []byte) error {
		if seen.Add(1) == 500 {
			cancel()
		}
		return inner(mctx, record)
	}
	_, err := RunContext(ctx, job)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
