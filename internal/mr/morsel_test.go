package mr

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/casm-project/casm/internal/blockstore"
	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/exec"
	"github.com/casm-project/casm/internal/recio"
	"github.com/casm-project/casm/internal/transport"
)

// keptBytes sums what store morsels hold: each morsel's own struct, the
// strings and the buffers reachable from it by value, a buffer several
// morsels share — the block's payload — once. A field it cannot size (a
// pointer, a function, a map, an interface) fails the test, so a morsel
// that came to hold more than its payload and cursor, a reader with its
// decode buffers say, fails here rather than slipping past a bound. Unlike
// a heap delta, the sum does not move with what the runtime or another
// goroutine allocates meanwhile.
func keptBytes(t *testing.T, morsels []Split) int64 {
	t.Helper()
	buffers := map[uintptr]int64{}
	var kept int64
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Float32, reflect.Float64:
		case reflect.String:
			kept += int64(v.Len())
		case reflect.Slice:
			if v.Cap() > 0 {
				buffers[v.Pointer()] = max(buffers[v.Pointer()], int64(v.Cap())*int64(v.Type().Elem().Size()))
			}
			if k := v.Type().Elem().Kind(); k == reflect.Struct || k == reflect.Slice || k == reflect.String {
				for i := 0; i < v.Len(); i++ {
					walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
				}
			} else if k > reflect.Float64 {
				t.Fatalf("morsel field %s holds %ss, which the test cannot size", path, k)
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		default:
			t.Fatalf("morsel field %s is a %s, which the test cannot size", path, v.Kind())
		}
	}
	for _, m := range morsels {
		v := reflect.ValueOf(m)
		if v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
			t.Fatalf("morsel %s is a %T", m.Label(), m)
		}
		kept += int64(v.Elem().Type().Size())
		walk(v.Elem(), v.Elem().Type().Name())
	}
	for _, n := range buffers {
		kept += n
	}
	return kept
}

// readRows drains one split's batches into one row-major slab.
func readRows(t *testing.T, sp Split) []int64 {
	t.Helper()
	it, err := sp.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var rows []int64
	for {
		b, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return rows
		}
		if b.N < 1 || b.N > memoryBatch {
			t.Fatalf("a batch of %d records", b.N)
		}
		for i := 0; i < b.N; i++ {
			for _, col := range b.Cols {
				rows = append(rows, col[i])
			}
		}
	}
}

// TestMemorySplitMorsels checks that carving partitions the records: every
// record appears exactly once, in order, across the morsels. A morsel's
// size is its records' recio encoding, and it closes at the first record
// that brings it to the target.
func TestMemorySplitMorsels(t *testing.T) {
	const arity = 3
	var rows []int64
	for i := int64(0); i < 100; i++ {
		rows = append(rows, i%7, i*i*i, -i) // 1, 1–3 and 10 bytes as uvarints
	}
	in := NewMemoryInput(rows, arity, 1)
	splits, _ := in.Splits()
	ms := splits[0].(MorselSplit)
	for _, target := range []int{1, 13, 64, 1 << 20} {
		morsels, err := ms.Morsels(target)
		if err != nil {
			t.Fatal(err)
		}
		var got []int64
		for mi, m := range morsels {
			mrows := readRows(t, m)
			var size, last int
			for r := 0; r < len(mrows); r += arity {
				last = len(recio.AppendRecord(nil, mrows[r:r+arity]))
				size += last
			}
			if m.SizeBytes() != int64(size) {
				t.Fatalf("target %d: morsel %d has SizeBytes %d, its records encode to %d", target, mi, m.SizeBytes(), size)
			}
			if mi < len(morsels)-1 && (size < target || size-last >= target) {
				t.Fatalf("target %d: morsel %d of %d bytes, %d without its last record", target, mi, size, size-last)
			}
			got = append(got, mrows...)
		}
		if !slices.Equal(got, rows) {
			t.Fatalf("target %d: the morsels' rows are not the split's", target)
		}
		if target == 1 && len(morsels) != len(rows)/arity {
			t.Errorf("target 1: %d morsels, want one per record", len(morsels))
		}
		if target == 1<<20 && len(morsels) != 1 {
			t.Errorf("huge target: %d morsels, want 1", len(morsels))
		}
	}
}

// TestStoreSplitMorsels checks the carve of store blocks into runs of
// rows. The morsels of a block hold its rows in order, cut where cutting
// the block's recio frames into runs of at least 65 bytes cuts them (the
// rows/bytes of every morsel below; seven runs end at exactly 65); a
// morsel opened twice — a retried task — reads the same rows; what the
// carve keeps is the block's stored payload and a cursor per morsel, not
// the decoded block; and a block that does not decode fails the carve
// with ErrCorruptBlock.
func TestStoreSplitMorsels(t *testing.T) {
	dir := t.TempDir()
	st, err := blockstore.Open(blockstore.Config{Dir: dir, BlockSize: 512, Replication: 1, NumNodes: 2, Seed: 1})
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
	want := []string{
		"16/68 13/65 13/65 13/65 13/65 13/65 13/65 10/50",
		"13/65 13/69 10/70 10/70 10/70 10/70 10/70 4/28",
		"10/70 10/70 10/70 10/70 10/70 10/70 10/70 3/21",
		"10/70 10/70 10/70 10/70 10/70 10/70 10/70 3/21",
		"10/70 10/70 10/70 10/70 10/70 10/70 10/70 3/21",
		"10/70 10/70 10/70 10/70 10/70 10/70 10/70 3/21",
		"10/70 10/70 4/28",
	}
	splits, err := NewStoreInput(st, "data").Splits()
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != len(want) {
		t.Fatalf("%d blocks, want %d", len(splits), len(want))
	}
	var all []int64
	for bi, sp := range splits {
		block := readRows(t, sp)
		morsels, err := sp.(MorselSplit).Morsels(65)
		if err != nil {
			t.Fatal(err)
		}
		var got []int64
		var cuts []string
		for _, m := range morsels {
			rows := readRows(t, m)
			if again := readRows(t, m); !slices.Equal(again, rows) {
				t.Fatalf("morsel %s read twice: %v, then %v", m.Label(), rows, again)
			}
			cuts = append(cuts, fmt.Sprintf("%d/%d", len(rows)/3, m.SizeBytes()))
			got = append(got, rows...)
		}
		if !slices.Equal(got, block) {
			t.Fatalf("block %d: the morsels' rows are not the block's", bi)
		}
		if c := strings.Join(cuts, " "); c != want[bi] {
			t.Errorf("block %d cut into %s, want %s", bi, c, want[bi])
		}
		all = append(all, got...)
	}
	var flat []int64
	for _, r := range recs {
		flat = append(flat, r...)
	}
	if !slices.Equal(all, flat) {
		t.Fatal("the morsels' rows are not the records written")
	}

	t.Run("retains the payload", func(t *testing.T) {
		// One block of 8 000 records whose columns delta-encode well, as
		// ingested data does: the payload is about half the frames the old
		// carve kept, and far above the heap's noise.
		const arity, n = 6, 8000
		rng := rand.New(rand.NewSource(5))
		big := make([]cube.Record, n)
		for i := range big {
			j := int64(i)
			big[i] = cube.Record{rng.Int63n(10), j / 8, 1_000_000 + 5*j, rng.Int63n(50), 1<<20 + j, 100_000 + rng.Int63n(64)}
		}
		bs, err := blockstore.Open(blockstore.Config{Dir: t.TempDir(), BlockSize: 1 << 20, Replication: 1, NumNodes: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer bs.Close()
		if err := bs.WriteRecords("big", arity, "", big); err != nil {
			t.Fatal(err)
		}
		splits, err := NewStoreInput(bs, "big").Splits()
		if err != nil || len(splits) != 1 {
			t.Fatalf("splits %v %v", splits, err)
		}
		read := bs.Stats().BytesRead
		morsels, err := splits[0].(MorselSplit).Morsels(4096)
		if err != nil {
			t.Fatal(err)
		}
		payload := bs.Stats().BytesRead - read
		kept := keptBytes(t, morsels)
		limit := payload + int64(len(morsels))*(256+16*arity) + 8<<10
		t.Logf("%d morsels keep %d bytes: a %d-byte payload of a %d-byte block", len(morsels), kept, payload, splits[0].SizeBytes())
		if kept > limit {
			t.Errorf("the carve keeps %d bytes, want ≤ %d (payload %d + a cursor per morsel)", kept, limit, payload)
		}
		if limit >= splits[0].SizeBytes() {
			t.Fatalf("the bound %d does not separate the payload from the %d framed bytes", limit, splits[0].SizeBytes())
		}
	})

	t.Run("corrupt block fails the carve", func(t *testing.T) {
		// One block on one node; set the high bit of its payload's last
		// byte, so the last column's last varint never ends, and seal the
		// entry with a checksum over the change: it verifies, and does not
		// decode.
		dir := t.TempDir()
		cs, err := blockstore.Open(blockstore.Config{Dir: dir, BlockSize: 1 << 20, Replication: 1, NumNodes: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := cs.WriteRecords("data", 3, "", recs); err != nil {
			t.Fatal(err)
		}
		if err := cs.Close(); err != nil {
			t.Fatal(err)
		}
		path := blockstore.SegmentPath(dir, 0, "data")
		seg, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		const magic, footer = 8, 4
		ent := seg[magic : len(seg)-footer]
		ent[len(ent)-1] |= 0x80
		binary.LittleEndian.PutUint32(seg[len(seg)-footer:], crc32.Checksum(ent, crc32.MakeTable(crc32.Castagnoli)))
		if err := os.WriteFile(path, seg, 0o644); err != nil {
			t.Fatal(err)
		}
		cs, err = blockstore.Open(blockstore.Config{Dir: dir, BlockSize: 1 << 20, Replication: 1, NumNodes: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer cs.Close()
		splits, err := NewStoreInput(cs, "data").Splits()
		if err != nil || len(splits) != 1 {
			t.Fatalf("the resealed block is not indexed: %v %v", splits, err)
		}
		if _, err := splits[0].(MorselSplit).Morsels(64); !errors.Is(err, blockstore.ErrCorruptBlock) {
			t.Fatalf("carve: %v, want ErrCorruptBlock", err)
		}
	})
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
	cfg.mapParallelism = 4
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
// spill (LocalAggBudget=2) and the reducer's collector forced to spill
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
				NewCombiner:     newCountCombiner,
				SortMemoryItems: 2,
				TempDir:         t.TempDir(),
			}
			if morsel {
				cfg.MorselBytes = 64
				cfg.LocalAggBudget = 2
				cfg.mapParallelism = 4
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

// TestStoreAndMemoryInputsMapAlike: one record set, held in memory and
// written to a store, maps alike. In fixed-split mode the two inputs split
// differently and a store split counts its stored block, so the answer,
// the records read and the combiner inputs agree. A single morsel worker
// tours either input as the same run of rows, so there every map-side
// counter agrees but BytesRead: a memory morsel counts its records' recio
// encoding, a store morsel its recio frames, which add one length prefix
// per record.
func TestStoreAndMemoryInputsMapAlike(t *testing.T) {
	st, err := blockstore.Open(blockstore.Config{Dir: t.TempDir(), BlockSize: 512, Replication: 1, NumNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const arity = 2
	records := make([]cube.Record, 3000)
	var rows []int64
	for i := range records {
		records[i] = cube.Record{int64(i / 4 % 41), int64(i)} // runs of four per key: hits as well as spills
		rows = append(rows, records[i]...)
	}
	if err := st.WriteRecords("data", arity, "", records); err != nil {
		t.Fatal(err)
	}
	var prefixes int64
	for _, r := range records {
		prefixes += int64(recio.UvarintLen(uint64(len(recio.AppendRecord(nil, r)))))
	}

	// counters sums the map side: Records, BytesRead, CombineInputs,
	// PairsOut, BytesOut, CombineMerges, LocalAggHits, LocalAggSpills.
	type counters [8]int64
	run := func(t *testing.T, in Input, morselBytes int) (string, counters) {
		res, err := Run(Job{
			Input: in,
			Map: func(ctx *MapCtx, b Batch) error {
				blocks := make([]uint64, b.N)
				for i, v := range b.Cols[0] {
					blocks[i] = uint64(v)
				}
				return ctx.Fold(b, blocks, iota(b.N))
			},
			Reduce: func(ctx *ReduceCtx, key []byte, values *GroupIter) error {
				sum := 0
				for {
					p, ok, err := values.Next()
					if err != nil {
						return err
					}
					if !ok {
						ctx.Emit(key, []byte(strconv.Itoa(sum)))
						return nil
					}
					n, err := strconv.Atoi(string(p.Value))
					if err != nil {
						return err
					}
					sum += n
				}
			},
			Config: Config{
				NumReducers: 3, mapParallelism: 1, MorselBytes: morselBytes, LocalAggBudget: 5,
				NewCombiner: newCountCombiner, TempDir: t.TempDir(),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, p := range res.Output {
			lines = append(lines, fmt.Sprintf("%s=%s", p.Key, p.Value))
		}
		sort.Strings(lines)
		var c counters
		for _, mt := range res.Stats.MapTasks {
			for i, v := range []int64{mt.Records, mt.BytesRead, mt.CombineInputs, mt.PairsOut, mt.BytesOut,
				mt.CombineMerges, mt.LocalAggHits, mt.LocalAggSpills} {
				c[i] += v
			}
		}
		return strings.Join(lines, " "), c
	}

	for _, morselBytes := range []int{0, 200} {
		t.Run(fmt.Sprintf("morsel=%d", morselBytes), func(t *testing.T) {
			storeOut, store := run(t, NewStoreInput(st, "data"), morselBytes)
			memOut, mem := run(t, NewMemoryInput(rows, arity, 4), morselBytes)
			if storeOut != memOut {
				t.Fatalf("answers differ\nstore  %s\nmemory %s", storeOut, memOut)
			}
			if store[0] != int64(len(records)) || store[2] != int64(len(records)) {
				t.Fatalf("store run read %d records and combined %d, want %d", store[0], store[2], len(records))
			}
			if morselBytes == 0 {
				if store[0] != mem[0] || store[2] != mem[2] {
					t.Errorf("records/combine inputs: store %d/%d, memory %d/%d", store[0], store[2], mem[0], mem[2])
				}
				return
			}
			if store[6] == 0 || store[7] == 0 {
				t.Fatalf("budget of 5 over 41 keys: %d hits, %d spills", store[6], store[7])
			}
			if store[1] != mem[1]+prefixes {
				t.Errorf("BytesRead: store %d, memory %d, want the memory's plus %d bytes of frame prefixes", store[1], mem[1], prefixes)
			}
			store[1] = mem[1]
			if store != mem {
				t.Errorf("map-side counters differ\nstore  %v\nmemory %v", store, mem)
			}
		})
	}
}

// TestMorselStealsOnSkew pins the load-balancing claim: with two workers
// and all the data in one split (maximally clustered), the idle worker
// must steal.
func TestMorselStealsOnSkew(t *testing.T) {
	var lines []string
	for i := 0; i < 2000; i++ {
		lines = append(lines, fmt.Sprintf("key%d value value value", i%17))
	}
	ex := exec.New(2)
	defer ex.Close()
	job := wordCountSplits(lines, 1, Config{ // one giant split: worker 1 starts empty
		NumReducers:    2,
		Executor:       ex,
		mapParallelism: 2,
		MorselBytes:    256,
		NewCombiner:    newCountCombiner,
		TempDir:        t.TempDir(),
	})
	// Left alone, worker 0 can drain every morsel before worker 1's
	// goroutine is first scheduled. Hold the first batch mapped until a
	// second is mapped concurrently: that one is the other worker's, so
	// both workers take morsels from the one deque before it runs dry.
	var mapped atomic.Int32
	release := make(chan struct{})
	inner := job.Map
	job.Map = func(mctx *MapCtx, b Batch) error {
		switch mapped.Add(1) {
		case 1:
			select {
			case <-release:
			case <-time.After(10 * time.Second):
				return errors.New("no second worker mapped a batch within 10s")
			}
		case 2:
			close(release)
		}
		return inner(mctx, b)
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
	cfg.mapParallelism = 2
	cfg.NewCombiner = newCountCombiner
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
		mapParallelism: 4,
		MorselBytes:    64,
		TempDir:        t.TempDir(),
	})
	inner := job.Map
	job.Map = func(mctx *MapCtx, b Batch) error {
		if crossed(&seen, b.N, 500) {
			cancel()
		}
		return inner(mctx, b)
	}
	_, err := RunContext(ctx, job)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
