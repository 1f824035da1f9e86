package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"testing"

	"github.com/casm-project/casm/internal/blockstore"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/workload"
)

// q1CacheEntries runs Q1 over a small store dataset with a result cache and
// returns up to 16 of the block entries the run filled: well-formed cached
// rows.
func q1CacheEntries(tb testing.TB) [][]byte {
	su := workload.NewSuite()
	st, err := blockstore.Open(blockstore.Config{Dir: tb.TempDir(), BlockSize: 8192, Replication: 1, NumNodes: 1, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	defer st.Close()
	records := su.Generate(600, workload.Uniform, 71)
	if err := workload.WriteStore(st, "data", su.Schema, records); err != nil {
		tb.Fatal(err)
	}
	ds := &Dataset{Schema: su.Schema, Input: mr.NewStoreInput(st, "data"), NumRecords: int64(len(records)), Tag: "store:data"}
	rc, err := blockstore.NewResultCache(nil, 0)
	if err != nil {
		tb.Fatal(err)
	}
	defer rc.Close()
	eng, err := NewEngine(Config{NumReducers: 2, ResultCache: rc, TempDir: tb.TempDir()})
	if err != nil {
		tb.Fatal(err)
	}
	w := su.Q1()
	outcome, err := eng.PlanContext(context.Background(), w, ds)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := eng.RunWithPlanContext(context.Background(), w, ds, outcome); err != nil {
		tb.Fatal(err)
	}
	keys, _ := rc.Manifest(eng.newResultReuse(w, ds, outcome.Plan).queryKey)
	var entries [][]byte
	for _, k := range keys {
		if e, ok := rc.Get([]byte(k)); ok && len(e) > 0 && len(entries) < 16 {
			entries = append(entries, bytes.Clone(e))
		}
	}
	if len(entries) == 0 {
		tb.Fatal("the Q1 run cached no rows")
	}
	return entries
}

// FuzzCachedRows feeds arbitrary entry bytes through eachCachedRow, the one
// decoder of both result-reuse paths (a block hit inside a job and the
// manifest replay). No input panics it. It allocates nothing on an entry
// it accepts, and at most the error value on one it rejects, so no length
// read from the entry sizes an allocation. An entry it accepts re-encodes,
// row by row through appendCachedRow, to exactly its bytes. Seeds: the
// block entries a Q1 run fills the cache with, and a row naming measure
// 2⁶³, an index that once turned negative.
func FuzzCachedRows(f *testing.F) {
	arity := workload.NewSuite().Schema.NumAttrs()
	const measures = 3 // Q1's
	for _, e := range q1CacheEntries(f) {
		f.Add(e)
	}
	f.Add(append(binary.AppendUvarint(nil, 1<<63), appendCachedRow(nil, 0, make([]int64, arity), 1)[1:]...))
	f.Fuzz(func(t *testing.T, entry []byte) {
		coord := make([]int64, arity)
		var err error
		allocs := testing.AllocsPerRun(1, func() {
			err = eachCachedRow(entry, measures, coord, func(int, []int64, float64) {})
		})
		if err == nil && allocs != 0 || allocs > 2 {
			t.Fatalf("decoding allocated %.0f times (err %v)", allocs, err)
		}
		if err != nil {
			return
		}
		var re []byte
		if err := eachCachedRow(entry, measures, coord, func(idx int, coord []int64, v float64) {
			re = appendCachedRow(re, idx, coord, v)
		}); err != nil {
			t.Fatalf("second decode failed: %v", err)
		}
		if !bytes.Equal(re, entry) {
			t.Fatalf("accepted entry %x re-encodes to %x", entry, re)
		}
	})
}
