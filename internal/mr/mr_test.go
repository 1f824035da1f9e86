package mr

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/casm-project/casm/internal/blockstore"
	"github.com/casm-project/casm/internal/cube"
)

// one is the value a word-count map function ships per word.
var one = []byte("1")

// wordCountJob builds the canonical test job over the given lines. A line
// is a row of word ids, one per word and 0 past its last, as wide as the
// longest line; the map function emits each word's bytes from the job's
// vocabulary, which outlives the job as Emit requires, or — with a
// combiner — folds the row under the word's id, which the reducer turns
// back into the word. The input has four splits.
func wordCountJob(lines []string, cfg Config) Job { return wordCountSplits(lines, 4, cfg) }

// wordCountSplits is wordCountJob over the given number of splits.
func wordCountSplits(lines []string, splits int, cfg Config) Job {
	var vocab [][]byte
	ids := map[string]int64{}
	var lineWords [][]string
	arity := 1
	for _, l := range lines {
		ws := strings.Fields(l)
		lineWords = append(lineWords, ws)
		arity = max(arity, len(ws))
		for _, w := range ws {
			if _, ok := ids[w]; !ok {
				vocab = append(vocab, []byte(w))
				ids[w] = int64(len(vocab))
			}
		}
	}
	rows := make([]int64, len(lines)*arity)
	for i, ws := range lineWords {
		for j, w := range ws {
			rows[i*arity+j] = ids[w]
		}
	}
	combine := cfg.NewCombiner != nil
	return Job{
		Name:  "wordcount",
		Input: NewMemoryInput(rows, arity, splits),
		Map: func(ctx *MapCtx, b Batch) error {
			var ids []uint64
			var rows []int32
			for i := 0; i < b.N; i++ {
				for _, col := range b.Cols {
					id := col[i]
					if id == 0 {
						break
					}
					if combine {
						ids, rows = append(ids, uint64(id)), append(rows, int32(i))
					} else if err := ctx.Emit(vocab[id-1], one); err != nil {
						return err
					}
				}
			}
			if combine {
				return ctx.Fold(b, ids, rows)
			}
			return nil
		},
		Reduce: func(ctx *ReduceCtx, key []byte, values *GroupIter) error {
			total := 0
			for {
				p, ok, err := values.Next()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				n, err := strconv.Atoi(string(p.Value))
				if err != nil {
					return err
				}
				total += n
			}
			if combine {
				key = vocab[binary.BigEndian.Uint64(key)-1]
			}
			ctx.Emit(key, []byte(strconv.Itoa(total)))
			return nil
		},
		Config: cfg,
	}
}

var wcLines = []string{
	"the quick brown fox",
	"jumps over the lazy dog",
	"the dog barks",
	"quick quick slow",
	"fox and dog and fox",
}

var wcWant = map[string]int{
	"the": 3, "quick": 3, "brown": 1, "fox": 3, "jumps": 1, "over": 1,
	"lazy": 1, "dog": 3, "barks": 1, "slow": 1, "and": 2,
}

func checkWordCount(t *testing.T, res *Result) {
	t.Helper()
	got := map[string]int{}
	for _, p := range res.Output {
		n, err := strconv.Atoi(string(p.Value))
		if err != nil {
			t.Fatal(err)
		}
		if _, dup := got[string(p.Key)]; dup {
			t.Fatalf("key %q emitted twice", p.Key)
		}
		got[string(p.Key)] = n
	}
	if len(got) != len(wcWant) {
		t.Fatalf("got %d keys, want %d: %v", len(got), len(wcWant), got)
	}
	for k, v := range wcWant {
		if got[k] != v {
			t.Errorf("count[%q] = %d, want %d", k, got[k], v)
		}
	}
}

func TestWordCountChannel(t *testing.T) {
	res, err := Run(wordCountJob(wcLines, Config{NumReducers: 3, TempDir: t.TempDir()}))
	if err != nil {
		t.Fatal(err)
	}
	checkWordCount(t, res)
	if res.Stats.Shuffled <= 0 {
		t.Error("no shuffle bytes accounted")
	}
	// 5 records into 4 requested splits of ceil(5/4)=2 records → 3 splits.
	if len(res.Stats.MapTasks) != 3 {
		t.Errorf("map tasks = %d", len(res.Stats.MapTasks))
	}
	var recs int64
	for _, m := range res.Stats.MapTasks {
		recs += m.Records
	}
	if recs != int64(len(wcLines)) {
		t.Errorf("records = %d", recs)
	}
	if res.Stats.TotalOutputRecords() != int64(len(wcWant)) {
		t.Errorf("output records = %d", res.Stats.TotalOutputRecords())
	}
}

func TestWordCountWithSpill(t *testing.T) {
	// Force the collector to spill with a tiny memory budget.
	res, err := Run(wordCountJob(wcLines, Config{
		NumReducers:     2,
		SortMemoryItems: 2,
		TempDir:         t.TempDir(),
	}))
	if err != nil {
		t.Fatal(err)
	}
	checkWordCount(t, res)
	spilled := false
	for _, r := range res.Stats.ReduceTasks {
		if r.SpillRuns > 0 && r.SpillBytes > 0 {
			spilled = true
		}
	}
	if !spilled {
		t.Error("expected spills with SortMemoryItems=2")
	}
}

func TestCombinerReducesTraffic(t *testing.T) {
	// Repeat the corpus so combining has something to merge.
	var lines []string
	for i := 0; i < 50; i++ {
		lines = append(lines, wcLines...)
	}
	run := func(c CombinerFactory) *Result {
		job := wordCountJob(lines, Config{NumReducers: 2, NewCombiner: c, TempDir: t.TempDir()})
		res, err := Run(job)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	combined := run(newCountCombiner)
	// Results identical.
	want := map[string]int{}
	for k, v := range wcWant {
		want[k] = v * 50
	}
	for _, res := range []*Result{plain, combined} {
		got := map[string]int{}
		for _, p := range res.Output {
			n, _ := strconv.Atoi(string(p.Value))
			got[string(p.Key)] = n
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("count[%q] = %d, want %d", k, got[k], v)
			}
		}
	}
	var plainPairs, combinedPairs int64
	for _, m := range plain.Stats.MapTasks {
		plainPairs += m.PairsOut
	}
	for _, m := range combined.Stats.MapTasks {
		combinedPairs += m.PairsOut
		if m.CombineInputs == 0 {
			t.Error("combiner did not run")
		}
	}
	if combinedPairs >= plainPairs/2 {
		t.Errorf("combiner shipped %d pairs vs %d plain; expected large reduction", combinedPairs, plainPairs)
	}
}

// failingOpen wraps a split so that its Open fails, counted, when fail
// names its label; carvedFailingOpen also carves it, wrapping each morsel.
type failingOpen struct {
	Split
	fail  string
	fails *atomic.Int32
}

type carvedFailingOpen struct{ failingOpen }

type splitList []Split

func (l splitList) Splits() ([]Split, error) { return l, nil }

func (f failingOpen) Open() (Iter[Batch], error) {
	if f.Label() == f.fail {
		f.fails.Add(1)
		return nil, fmt.Errorf("%s: disk on fire", f.fail)
	}
	return f.Split.Open()
}

func (c carvedFailingOpen) Morsels(targetBytes int) ([]Split, error) {
	subs, err := c.Split.(MorselSplit).Morsels(targetBytes)
	for i, sub := range subs {
		subs[i] = failingOpen{Split: sub, fail: c.fail, fails: c.fails}
	}
	return subs, err
}

// TestSplitOpenFailureFailsJob: a split or morsel that cannot be opened
// fails the job with its error, labelled by the task that opened it, and
// is opened once — nothing is retried. The store case is the real fault:
// every replica of a block is down.
func TestSplitOpenFailureFailsJob(t *testing.T) {
	for _, tc := range []struct {
		name        string
		morselBytes int
		carve       bool
		fail, task  string // the label whose Open fails; the task the error names
	}{
		{"fixed", 0, false, "mem-1", "mr: map task mem-1: "},
		{"morsel-whole-split", 8, false, "mem-1", "mr: map worker "},
		{"morsel-carved", 8, true, "mem-1/m0", "mr: map worker "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var fails atomic.Int32
			job := wordCountJob(wcLines, Config{NumReducers: 2, MorselBytes: tc.morselBytes, mapParallelism: 2, TempDir: t.TempDir()})
			splits, _ := job.Input.Splits()
			var wrapped splitList
			for _, sp := range splits {
				f := failingOpen{Split: sp, fail: tc.fail, fails: &fails}
				if tc.carve {
					wrapped = append(wrapped, carvedFailingOpen{f})
				} else {
					wrapped = append(wrapped, f)
				}
			}
			job.Input = wrapped
			_, err := Run(job)
			if err == nil || !strings.Contains(err.Error(), tc.task) || !strings.Contains(err.Error(), tc.fail+": disk on fire") {
				t.Fatalf("err = %v, want %q's Open error labelled %q", err, tc.fail, tc.task)
			}
			if n := fails.Load(); n != 1 {
				t.Fatalf("%s opened %d times, want 1", tc.fail, n)
			}
		})
	}

	t.Run("store-replicas-gone", func(t *testing.T) {
		st, err := blockstore.Open(blockstore.Config{Dir: t.TempDir(), BlockSize: 256, Replication: 2, NumNodes: 4, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		var recs []cube.Record
		for i := int64(0); i < 1000; i++ {
			recs = append(recs, cube.Record{i % 7, i})
		}
		if err := st.WriteRecords("data", 2, "", recs); err != nil {
			t.Fatal(err)
		}
		blocks, err := st.Blocks("data")
		if err != nil || len(blocks) < 2 {
			t.Fatalf("blocks = %d, err = %v; want a multi-block file", len(blocks), err)
		}
		for _, n := range blocks[1].Replicas {
			st.FailNode(n)
		}
		_, err = Run(Job{
			Input:  NewStoreInput(st, "data"),
			Map:    func(*MapCtx, Batch) error { return nil },
			Reduce: func(*ReduceCtx, []byte, *GroupIter) error { return nil },
			Config: Config{NumReducers: 1, TempDir: t.TempDir()},
		})
		if err == nil || !strings.Contains(err.Error(), "mr: map task data[") {
			t.Fatalf("err = %v, want a store read error labelled by its map task", err)
		}
	})
}

func TestMapErrorPropagates(t *testing.T) {
	job := wordCountJob(wcLines, Config{NumReducers: 1, TempDir: t.TempDir()})
	job.Map = func(ctx *MapCtx, b Batch) error { return fmt.Errorf("map boom") }
	if _, err := Run(job); err == nil || !strings.Contains(err.Error(), "map boom") {
		t.Fatalf("err = %v", err)
	}
}

func TestReduceErrorPropagates(t *testing.T) {
	job := wordCountJob(wcLines, Config{NumReducers: 1, TempDir: t.TempDir()})
	job.Reduce = func(ctx *ReduceCtx, key []byte, values *GroupIter) error {
		return fmt.Errorf("reduce boom")
	}
	if _, err := Run(job); err == nil || !strings.Contains(err.Error(), "reduce boom") {
		t.Fatalf("err = %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Job{Config: Config{NumReducers: 0}}); err == nil {
		t.Error("zero reducers accepted")
	}
	if _, err := Run(Job{Config: Config{NumReducers: 1}}); err == nil {
		t.Error("nil input/map accepted")
	}
	job := wordCountJob(wcLines, Config{NumReducers: 1})
	job.Reduce = nil
	if _, err := Run(job); err == nil {
		t.Error("nil reduce accepted")
	}
}

func TestStoreInputEndToEnd(t *testing.T) {
	st, err := blockstore.Open(blockstore.Config{Dir: t.TempDir(), BlockSize: 256, Replication: 2, NumNodes: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var recs []cube.Record
	for i := int64(0); i < 1000; i++ {
		recs = append(recs, cube.Record{i % 7, i})
	}
	if err := st.WriteRecords("data", 2, "", recs); err != nil {
		t.Fatal(err)
	}
	job := Job{
		Input: NewStoreInput(st, "data"),
		Map: perRow(func(ctx *MapCtx, row []int64) error {
			return ctx.Emit(fmt.Appendf(nil, "g%d", row[0]), one)
		}),
		Reduce: func(ctx *ReduceCtx, key []byte, values *GroupIter) error {
			n := 0
			for {
				_, ok, err := values.Next()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				n++
			}
			ctx.Emit(key, []byte(strconv.Itoa(n)))
			return nil
		},
		Config: Config{NumReducers: 3, TempDir: t.TempDir()},
	}
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, p := range res.Output {
		counts[string(p.Key)], _ = strconv.Atoi(string(p.Value))
	}
	total := 0
	for g := 0; g < 7; g++ {
		total += counts[fmt.Sprintf("g%d", g)]
	}
	if total != 1000 {
		t.Fatalf("counted %d records, want 1000: %v", total, counts)
	}
	// The file spans multiple blocks, hence multiple splits.
	if len(res.Stats.MapTasks) < 2 {
		t.Errorf("expected multiple splits, got %d", len(res.Stats.MapTasks))
	}
}

func TestHashPartitionRange(t *testing.T) {
	for i := 0; i < 1000; i++ {
		p := HashPartition([]byte(fmt.Sprintf("key-%d", i)), 7)
		if p < 0 || p >= 7 {
			t.Fatalf("partition %d out of range", p)
		}
	}
	// Distribution is roughly uniform.
	counts := make([]int, 5)
	for i := 0; i < 10000; i++ {
		counts[HashPartition([]byte(fmt.Sprintf("k%d", i)), 5)]++
	}
	sort.Ints(counts)
	if counts[0] < 1500 || counts[4] > 2500 {
		t.Errorf("partition skewed: %v", counts)
	}
}

func TestMemoryInputEmpty(t *testing.T) {
	in := NewMemoryInput(nil, 3, 4)
	splits, err := in.Splits()
	if err != nil || len(splits) != 1 {
		t.Fatalf("splits = %d, %v", len(splits), err)
	}
	it, err := splits[0].Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := it.Next(); ok {
		t.Error("empty split yielded a record")
	}
}
