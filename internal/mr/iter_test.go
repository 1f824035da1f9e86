package mr

import (
	"sync/atomic"
	"testing"

	"github.com/casm-project/casm/internal/blockstore"
	"github.com/casm-project/casm/internal/cube"
)

// drainsThenLatches holds one iterator to the Iter contract: it yields
// want values, then ok=false for good — also after Close, which may be
// called twice.
func drainsThenLatches[T any](t *testing.T, name string, it Iter[T], want int) {
	t.Helper()
	n := 0
	for {
		_, ok, err := it.Next()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != want {
		t.Fatalf("%s: %d values, want %d", name, n, want)
	}
	if _, ok, err := it.Next(); ok || err != nil {
		t.Fatalf("%s: Next after exhaustion: ok=%v err=%v", name, ok, err)
	}
	for i := 0; i < 2; i++ {
		if err := it.Close(); err != nil {
			t.Fatalf("%s: Close #%d: %v", name, i+1, err)
		}
	}
	if _, ok, err := it.Next(); ok || err != nil {
		t.Fatalf("%s: Next after Close: ok=%v err=%v", name, ok, err)
	}
}

// TestSplitIteratorsLatch: every batch iterator a split hands out — memory
// chunks, store blocks, their morsels — keeps the single-use contract, and
// one closed before exhaustion is dead too.
func TestSplitIteratorsLatch(t *testing.T) {
	const records = 300
	st, err := blockstore.Open(blockstore.Config{Dir: t.TempDir(), BlockSize: 1 << 20, Replication: 1, NumNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	recs := make([]cube.Record, records)
	var rows []int64
	for i := range recs {
		recs[i] = cube.Record{int64(i), int64(i % 7)}
		rows = append(rows, recs[i]...)
	}
	if err := st.WriteRecords("data", 2, "", recs); err != nil {
		t.Fatal(err)
	}
	mem, err := NewMemoryInput(rows, 2, 1).Splits()
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewStoreInput(st, "data").Splits()
	if err != nil || len(store) != 1 {
		t.Fatalf("store splits: %v %v", store, err)
	}
	morsels, err := store[0].(MorselSplit).Morsels(1 << 20)
	if err != nil || len(morsels) != 1 {
		t.Fatalf("morsels: %v %v", morsels, err)
	}
	for name, sp := range map[string]Split{"memory": mem[0], "store": store[0], "morsel": morsels[0]} {
		it, err := sp.Open()
		if err != nil {
			t.Fatal(err)
		}
		drainsThenLatches(t, name+" batches", it, 1) // 300 records: one batch
		early, err := sp.Open()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := early.Next(); !ok || err != nil {
			t.Fatalf("%s: first batch: ok=%v err=%v", name, ok, err)
		}
		if err := early.Close(); err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := early.Next(); ok {
			t.Fatalf("%s: Next after an early Close yielded a batch", name)
		}
	}
}

// perRow adapts a record-at-a-time map body to MapFunc, the tests' way of
// writing one: fn sees each record of a batch, in order, gathered into a
// row that is valid for the call.
func perRow(fn func(ctx *MapCtx, row []int64) error) MapFunc {
	return func(ctx *MapCtx, b Batch) error {
		row := make([]int64, len(b.Cols))
		for i := 0; i < b.N; i++ {
			for c, col := range b.Cols {
				row[c] = col[i]
			}
			if err := fn(ctx, row); err != nil {
				return err
			}
		}
		return nil
	}
}

// crossed adds a batch of n records to ctr and reports whether record
// number at was among them: a per-record trigger for a per-batch map.
func crossed(ctr *atomic.Int64, n int, at int64) bool {
	c := ctr.Add(int64(n))
	return c >= at && c-int64(n) < at
}

// iota is the row indices 0…n-1, one pair per record of a batch.
func iota(n int) []int32 {
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}
