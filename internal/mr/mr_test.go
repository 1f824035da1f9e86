package mr

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/casm-project/casm/internal/blockstore"
	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/recio"
)

// wordCountJob builds the canonical test job over the given lines.
func wordCountJob(lines []string, cfg Config) Job {
	records := make([][]byte, len(lines))
	for i, l := range lines {
		records[i] = []byte(l)
	}
	return Job{
		Name:  "wordcount",
		Input: NewMemoryInput(records, 4),
		Map: func(ctx *MapCtx, record []byte) error {
			for _, w := range strings.Fields(string(record)) {
				if err := ctx.Emit([]byte(w), []byte("1")); err != nil {
					return err
				}
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
	// Force the external sort path with a tiny memory budget.
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
	combined := run(newSumCombiner)
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

func TestGroupByCompositeKey(t *testing.T) {
	// Composite keys "block|suffix": grouping by the block prefix, values
	// arrive ordered by the full key — the combined-key sort optimization.
	records := [][]byte{[]byte("x")}
	var groups []string
	var orders [][]string
	job := Job{
		Input: NewMemoryInput(records, 1),
		Map: func(ctx *MapCtx, record []byte) error {
			for _, k := range []string{"b|3", "a|2", "b|1", "a|1", "b|2"} {
				if err := ctx.Emit([]byte(k), []byte(k)); err != nil {
					return err
				}
			}
			return nil
		},
		Reduce: func(ctx *ReduceCtx, key []byte, values *GroupIter) error {
			groups = append(groups, string(key))
			var order []string
			for {
				p, ok, err := values.Next()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				order = append(order, string(p.Key))
			}
			orders = append(orders, order)
			return nil
		},
		Config: Config{
			NumReducers: 1,
			GroupBy:     func(k []byte) []byte { return k[:bytes.IndexByte(k, '|')] },
			TempDir:     t.TempDir(),
		},
	}
	if _, err := Run(job); err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 || groups[0] != "a" || groups[1] != "b" {
		t.Fatalf("groups = %v", groups)
	}
	if strings.Join(orders[0], ",") != "a|1,a|2" {
		t.Errorf("group a order = %v", orders[0])
	}
	if strings.Join(orders[1], ",") != "b|1,b|2,b|3" {
		t.Errorf("group b order = %v", orders[1])
	}
}

func TestShuffleDisabled(t *testing.T) {
	job := wordCountJob(wcLines, Config{NumReducers: 2, ShuffleDisabled: true})
	job.Reduce = nil
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 0 {
		t.Errorf("map-only produced output")
	}
	if len(res.Stats.ReduceTasks) != 0 {
		t.Errorf("map-only has reduce tasks")
	}
	var pairs int64
	for _, m := range res.Stats.MapTasks {
		pairs += m.PairsOut
	}
	if pairs == 0 {
		t.Error("map-only did not count pairs")
	}
	if res.Stats.Shuffled != 0 {
		t.Error("map-only shuffled bytes")
	}
}

func TestFailureInjectionRetries(t *testing.T) {
	var fails atomic.Int32
	cfg := Config{
		NumReducers: 2,
		TempDir:     t.TempDir(),
		FailureInjector: func(task string, attempt int) error {
			if task == "mem-1" && attempt == 1 {
				fails.Add(1)
				return fmt.Errorf("injected crash")
			}
			return nil
		},
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
		if m.Task == "mem-1" && m.Attempts == 2 {
			retried = true
		}
	}
	if !retried {
		t.Error("task mem-1 was not retried")
	}
}

func TestFailureInjectionGivesUp(t *testing.T) {
	cfg := Config{
		NumReducers: 1,
		MaxAttempts: 2,
		TempDir:     t.TempDir(),
		FailureInjector: func(task string, attempt int) error {
			return fmt.Errorf("always down")
		},
	}
	if _, err := Run(wordCountJob(wcLines, cfg)); err == nil {
		t.Fatal("permanently failing job succeeded")
	}
}

func TestMapErrorPropagates(t *testing.T) {
	job := wordCountJob(wcLines, Config{NumReducers: 1, TempDir: t.TempDir()})
	job.Map = func(ctx *MapCtx, record []byte) error { return fmt.Errorf("map boom") }
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
		t.Error("nil reduce without ShuffleDisabled accepted")
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
		Map: func(ctx *MapCtx, record []byte) error {
			rec, err := recio.DecodeRecord(record, 2)
			if err != nil {
				return err
			}
			return ctx.Emit(fmt.Appendf(nil, "g%d", rec[0]), []byte("1"))
		},
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
	in := NewMemoryInput(nil, 4)
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
