package mr

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"github.com/casm-project/casm/internal/blockstore"
	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/recio"
)

// rowSumCombiner sums a record's second attribute per key, from the
// record's bytes (Add) or from the decoded row (AddRow), and counts which
// of the two fed it.
type rowSumCombiner struct {
	st               *MapTaskStats
	sums             map[string]int64
	viaBytes, viaRow *int64
}

func (c *rowSumCombiner) Add(key, value []byte) error {
	rec, err := recio.DecodeRecord(value, 2)
	if err != nil {
		return err
	}
	*c.viaBytes++
	return c.fold(key, rec[1])
}

func (c *rowSumCombiner) AddRow(key []byte, row []int64) error {
	*c.viaRow++
	return c.fold(key, row[1])
}

func (c *rowSumCombiner) fold(key []byte, v int64) error {
	if _, ok := c.sums[string(key)]; ok {
		c.st.CombineMerges++
	}
	c.sums[string(key)] += v
	return nil
}

func (c *rowSumCombiner) Len() int { return len(c.sums) }

func (c *rowSumCombiner) Flush(emit func(key, value []byte) error) error {
	keys := make([]string, 0, len(c.sums))
	for k := range c.sums {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := emit([]byte(k), binary.AppendVarint(nil, c.sums[k])); err != nil {
			return err
		}
	}
	clear(c.sums)
	return nil
}

// mixedInput hides the row capability of one split of a store input.
type mixedInput struct{ Input }

func (in mixedInput) Splits() ([]Split, error) {
	splits, err := in.Input.Splits()
	if len(splits) > 0 {
		splits[0] = struct{ MorselSplit }{splits[0].(MorselSplit)}
	}
	return splits, err
}

// TestRowsUsedWhenJobAndEverySplitTakeThem pins the capability rule, which
// is one fact per job: an input is scanned as rows exactly when the job
// supplies MapRows and every split of it — every morsel, in morsel mode —
// offers rows, and as bytes otherwise, all of it; the reduce side is told
// which (ReduceCtx.Rows); and whichever way it is scanned, the output and
// every counter the map side keeps are the same.
func TestRowsUsedWhenJobAndEverySplitTakeThem(t *testing.T) {
	st, err := blockstore.Open(blockstore.Config{Dir: t.TempDir(), BlockSize: 512, Replication: 1, NumNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	records := make([]cube.Record, 3000)
	for i := range records {
		records[i] = cube.Record{int64(i / 4 % 41), int64(i)} // runs of four per key: hits as well as spills
	}
	if err := st.WriteRecords("data", 2, "", records); err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		out              string
		maps             [][5]int64 // per task: Records, BytesRead, CombineInputs, PairsOut, BytesOut
		hits, spills     int64
		viaBytes, viaRow int64
	}
	run := func(t *testing.T, mapRows, mixed, memory bool, morselBytes int) outcome {
		var o outcome
		keyOf := func(v int64) []byte { return strconv.AppendInt([]byte("k"), v, 10) }
		job := Job{
			Input: NewStoreInput(st, "data"),
			Map: func(ctx *MapCtx, raw []byte) error {
				rec, err := recio.DecodeRecord(raw, 2)
				if err != nil {
					return err
				}
				return ctx.Emit(keyOf(rec[0]), raw)
			},
			Reduce: func(ctx *ReduceCtx, key []byte, values *GroupIter) error {
				if want := mapRows && !mixed && !memory; ctx.Rows != want {
					return fmt.Errorf("ReduceCtx.Rows = %v, want %v", ctx.Rows, want)
				}
				var sum int64
				for {
					p, ok, err := values.Next()
					if err != nil || !ok {
						ctx.Emit(key, strconv.AppendInt(nil, sum, 10))
						return err
					}
					v, _ := binary.Varint(p.Value)
					sum += v
				}
			},
			Config: Config{
				NumReducers: 3, MapParallelism: 1, MorselBytes: morselBytes, LocalAggBudget: 5, TempDir: t.TempDir(),
				NewCombiner: func(ts *MapTaskStats) Combiner {
					return &rowSumCombiner{st: ts, sums: map[string]int64{}, viaBytes: &o.viaBytes, viaRow: &o.viaRow}
				},
			},
		}
		if mixed {
			job.Input = mixedInput{job.Input}
		}
		if memory {
			raw := make([][]byte, len(records))
			for i, r := range records {
				raw[i] = recio.AppendRecord(nil, r)
			}
			job.Input = NewMemoryInput(raw, 4)
		}
		if mapRows {
			job.MapRows = func(ctx *MapCtx, row []int64) error { return ctx.EmitRow(keyOf(row[0]), row) }
		}
		res, err := Run(job)
		if err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, p := range res.Output {
			lines = append(lines, fmt.Sprintf("%s=%s", p.Key, p.Value))
		}
		sort.Strings(lines)
		o.out = fmt.Sprint(lines)
		for _, mt := range res.Stats.MapTasks {
			o.maps = append(o.maps, [5]int64{mt.Records, mt.BytesRead, mt.CombineInputs, mt.PairsOut, mt.BytesOut})
			o.hits += mt.LocalAggHits
			o.spills += mt.LocalAggSpills
		}
		return o
	}

	for _, morselBytes := range []int{0, 200} {
		t.Run(fmt.Sprintf("morsel=%d", morselBytes), func(t *testing.T) {
			rows := run(t, true, false, false, morselBytes)
			if rows.viaRow != int64(len(records)) || rows.viaBytes != 0 {
				t.Fatalf("rows job folded %d rows and %d byte records, want all %d as rows", rows.viaRow, rows.viaBytes, len(records))
			}
			if rows.spills == 0 || rows.hits == 0 {
				t.Fatalf("budget of 5 over 41 keys: %d spills, %d hits", rows.spills, rows.hits)
			}
			for name, other := range map[string]outcome{
				"no MapRows":           run(t, false, false, false, morselBytes),
				"one split bytes-only": run(t, true, true, false, morselBytes),
			} {
				if other.viaRow != 0 || other.viaBytes != int64(len(records)) {
					t.Errorf("%s: folded %d rows and %d byte records, want all as bytes", name, other.viaRow, other.viaBytes)
				}
				other.viaRow, other.viaBytes = rows.viaRow, rows.viaBytes
				if !reflect.DeepEqual(rows, other) {
					t.Errorf("%s: output or counters differ from the rows run\nrows  %+v\nother %+v", name, rows, other)
				}
			}
		})
	}

	// A memory split has no rows to offer: the same job reads it as bytes.
	mem := run(t, true, false, true, 0)
	if mem.viaRow != 0 || mem.viaBytes != int64(len(records)) {
		t.Errorf("memory input: folded %d rows and %d byte records", mem.viaRow, mem.viaBytes)
	}
	if want := run(t, true, false, false, 0).out; mem.out != want {
		t.Error("memory input answered differently")
	}
}

// TestEmitRowNeedsRowCombiner: EmitRow from a job whose combiner cannot
// take rows is a programming error reported as one, not a nil call.
func TestEmitRowNeedsRowCombiner(t *testing.T) {
	_, err := Run(Job{
		Input: NewMemoryInput([][]byte{[]byte("r")}, 1),
		Map: func(ctx *MapCtx, raw []byte) error {
			return ctx.EmitRow(raw, []int64{1})
		},
		Reduce: func(ctx *ReduceCtx, key []byte, values *GroupIter) error { return values.Drain() },
		Config: Config{NumReducers: 1, NewCombiner: newSumCombiner},
	})
	if err == nil {
		t.Fatal("EmitRow into a bytes-only combiner succeeded")
	}
}
