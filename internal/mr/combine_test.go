package mr

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// countCombiner is the tests' Combiner: the rows folded under each key
// counted, flushed as decimal counts under the key's eight big-endian
// bytes, so ascending keys are ascending bytes as the interface requires.
type countCombiner struct {
	st   *MapTaskStats
	sums map[uint64]int
}

func newCountCombiner(st *MapTaskStats) Combiner {
	return &countCombiner{st: st, sums: make(map[uint64]int)}
}

func (c *countCombiner) Fold(_ Batch, keys []uint64, _ []int32, budget int) (int, int, error) {
	hits := 0
	for k, key := range keys {
		if _, ok := c.sums[key]; ok {
			c.st.CombineMerges++
			hits++
		}
		c.sums[key]++
		if len(c.sums) >= budget {
			return k + 1, hits, nil
		}
	}
	return len(keys), hits, nil
}

func (c *countCombiner) Len() int { return len(c.sums) }

func (c *countCombiner) Flush(emit func(key, value []byte) error) error {
	keys := make([]uint64, 0, len(c.sums))
	for k := range c.sums {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if err := emit(binary.BigEndian.AppendUint64(nil, k), []byte(strconv.Itoa(c.sums[k]))); err != nil {
			return err
		}
	}
	clear(c.sums)
	return nil
}

// TestWordCountAcrossBatchSizes runs the same job with batching disabled
// (size 1), a small batch size, and the default; the output must be
// identical and the batch counters consistent.
func TestWordCountAcrossBatchSizes(t *testing.T) {
	for _, size := range []int{1, 2, DefaultShuffleBatchPairs} {
		// The "channel" name level is kept only so test IDs stay stable.
		t.Run(fmt.Sprintf("channel/batch=%d", size), func(t *testing.T) {
			res, err := Run(wordCountJob(wcLines, Config{
				NumReducers:       3,
				shuffleBatchPairs: size,
				TempDir:           t.TempDir(),
			}))
			if err != nil {
				t.Fatal(err)
			}
			checkWordCount(t, res)
			var pairs, batches int64
			for _, m := range res.Stats.MapTasks {
				pairs += m.PairsOut
				batches += m.BatchesSent
			}
			if batches == 0 || batches > pairs {
				t.Errorf("BatchesSent = %d with PairsOut = %d", batches, pairs)
			}
			if size == 1 && batches != pairs {
				t.Errorf("unbatched: BatchesSent = %d, want %d", batches, pairs)
			}
			if size >= 2 && batches >= pairs {
				t.Errorf("batched (size %d): BatchesSent = %d not < PairsOut %d", size, batches, pairs)
			}
		})
	}
}

// indexInput serves n records as rows of one value, the record's index:
// a test keeps its records' bytes in a slice of its own that the map
// function reads by that index, bytes that stay valid for the job's life
// as Emit's ownership rule asks.
func indexInput(n, splits int) Input {
	rows := make([]int64, n)
	for i := range rows {
		rows[i] = int64(i)
	}
	return NewMemoryInput(rows, 1, splits)
}

// TestFoldNeedsCombiner: Fold is the way into a combiner, and a job
// without one fails with an error rather than dropping the records.
func TestFoldNeedsCombiner(t *testing.T) {
	_, err := Run(Job{
		Input:  NewMemoryInput([]int64{7}, 1, 1),
		Map:    func(ctx *MapCtx, b Batch) error { return ctx.Fold(b, []uint64{1}, []int32{0}) },
		Reduce: func(ctx *ReduceCtx, key []byte, values *GroupIter) error { return values.Drain() },
		Config: Config{NumReducers: 1},
	})
	if err == nil || !strings.Contains(err.Error(), "Fold needs a combiner") {
		t.Fatalf("err = %v, want the missing combiner named", err)
	}
}
