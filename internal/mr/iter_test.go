package mr

import (
	"testing"

	"github.com/casm-project/casm/internal/blockstore"
	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/recio"
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

// TestSplitIteratorsLatch: every record and row iterator a split hands
// out — memory chunks, store blocks, their morsels — keeps the
// single-use contract, and one closed before exhaustion is dead too.
func TestSplitIteratorsLatch(t *testing.T) {
	const records = 300
	st, err := blockstore.Open(blockstore.Config{Dir: t.TempDir(), BlockSize: 1 << 20, Replication: 1, NumNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	recs := make([]cube.Record, records)
	raw := make([][]byte, records)
	for i := range recs {
		recs[i] = cube.Record{int64(i), int64(i % 7)}
		raw[i] = recio.AppendRecord(nil, recs[i])
	}
	if err := st.WriteRecords("data", 2, "", recs); err != nil {
		t.Fatal(err)
	}
	mem, err := NewMemoryInput(raw, 1).Splits()
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
		drainsThenLatches(t, name+" records", it, records)
		if rs, ok := sp.(RowSplit); ok {
			rows, err := rs.OpenRows()
			if err != nil {
				t.Fatal(err)
			}
			drainsThenLatches(t, name+" rows", rows, records)
		}
		early, err := sp.Open()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := early.Next(); !ok || err != nil {
			t.Fatalf("%s: first record: ok=%v err=%v", name, ok, err)
		}
		if err := early.Close(); err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := early.Next(); ok {
			t.Fatalf("%s: Next after an early Close yielded a record", name)
		}
	}
}
