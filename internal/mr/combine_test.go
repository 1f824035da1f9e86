package mr

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"
)

// sumCombiner is the tests' Combiner: decimal values summed per key,
// flushed in ascending key order as the interface requires.
type sumCombiner struct {
	st   *MapTaskStats
	sums map[string]int
}

func newSumCombiner(st *MapTaskStats) Combiner {
	return &sumCombiner{st: st, sums: make(map[string]int)}
}

func (c *sumCombiner) Add(key, value []byte) error {
	n, err := strconv.Atoi(string(value))
	if err != nil {
		return err
	}
	if _, ok := c.sums[string(key)]; ok {
		c.st.CombineMerges++
	}
	c.sums[string(key)] += n
	return nil
}

func (c *sumCombiner) Len() int { return len(c.sums) }

func (c *sumCombiner) Flush(emit func(key, value []byte) error) error {
	keys := make([]string, 0, len(c.sums))
	for k := range c.sums {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := emit([]byte(k), []byte(strconv.Itoa(c.sums[k]))); err != nil {
			return err
		}
	}
	clear(c.sums)
	return nil
}

// fullKey is an identity Config.GroupBy: same groups as the default, but
// a non-nil GroupBy selects the sorted collector.
func fullKey(k []byte) []byte { return k }

// TestGroupingDerivedFromGroupBy pins the rule that replaced the grouping
// option: no GroupBy means hash grouping (pairs of a group in arrival
// order), any GroupBy — even the identity — means the external sorter
// (pairs in full-key order, which a composite key relies on).
func TestGroupingDerivedFromGroupBy(t *testing.T) {
	records := make([][]byte, 400)
	for i := range records {
		records[i] = []byte(fmt.Sprintf("g%d|%03d", i%7, (i*37)%400))
	}
	prefix := func(k []byte) []byte { return k[:bytes.IndexByte(k, '|')] }
	run := func(groupBy func([]byte) []byte, reduce ReduceFunc) JobStats {
		res, err := Run(Job{
			Input: NewMemoryInput(records, 4),
			Map: func(ctx *MapCtx, rec []byte) error {
				return ctx.Emit(rec, nil)
			},
			Reduce: reduce,
			Config: Config{NumReducers: 2, GroupBy: groupBy, TempDir: t.TempDir()},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	hashGroups := func(js JobStats) (n int64) {
		for _, rt := range js.ReduceTasks {
			n += rt.HashGroups
		}
		return n
	}
	drain := func(ctx *ReduceCtx, key []byte, values *GroupIter) error { return values.Drain() }
	if n := hashGroups(run(nil, drain)); n != int64(len(records)) {
		t.Errorf("nil GroupBy: HashGroups = %d, want %d (one per distinct key)", n, len(records))
	}
	if n := hashGroups(run(fullKey, drain)); n != 0 {
		t.Errorf("identity GroupBy: HashGroups = %d, want 0 (sorted path)", n)
	}
	var groups atomic.Int64 // reduce tasks run concurrently
	js := run(prefix, func(ctx *ReduceCtx, key []byte, values *GroupIter) error {
		groups.Add(1)
		var prev []byte
		for {
			p, ok, err := values.Next()
			if err != nil || !ok {
				return err
			}
			if bytes.Compare(prev, p.Key) >= 0 {
				t.Errorf("group %q: key %q after %q, want ascending full-key order", key, p.Key, prev)
			}
			prev = append(prev[:0], p.Key...)
		}
	})
	if groups.Load() != 7 || hashGroups(js) != 0 {
		t.Errorf("prefix GroupBy: %d groups (want 7), HashGroups = %d (want 0)", groups.Load(), hashGroups(js))
	}
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
				ShuffleBatchPairs: size,
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
