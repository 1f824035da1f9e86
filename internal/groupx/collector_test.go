package groupx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"github.com/casm-project/casm/internal/transport"
)

// contractBudgets are the buffered-pair budgets the contract cases run
// at: unbounded, a flush per pair or two, and flushes of a few pairs and
// of most of a pair chunk.
var contractBudgets = []int{0, 1, 2, 7, 291}

// collectAll adds pairs to c and drains it.
func collectAll(t *testing.T, c Collector, pairs []transport.Pair) []transport.Pair {
	t.Helper()
	for _, p := range pairs {
		if err := c.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	return drain(t, c)
}

// distinctPairs returns n pairs with distinct eight-byte keys, arriving in
// descending key order, and one-byte values.
func distinctPairs(n int) []transport.Pair {
	pairs := make([]transport.Pair, n)
	for i := range pairs {
		pairs[i] = transport.Pair{Key: fmt.Appendf(nil, "%08d", n-1-i), Value: []byte{byte(i)}}
	}
	return pairs
}

// TestCollectorContract holds NewSort and NewHash — one collector under
// two names — to the contract of the external sort that NewSort once
// built: its stream is a stable sort of the pairs by key at every budget,
// in memory or spilled, empty or not; its stats count the spill; it
// refuses reuse; and it releases its run file however it ends. The
// reference is a stable in-memory sort of a copy of the pairs.
func TestCollectorContract(t *testing.T) {
	type newFunc func(dir string, mem int) Collector
	ctors := []struct {
		name string
		new  newFunc
	}{
		{"NewSort", func(dir string, mem int) Collector { return NewSort(nil, dir, mem) }},
		{"NewHash", func(dir string, mem int) Collector { return NewHash(nil, dir, mem) }},
	}
	cases := []struct {
		name string
		run  func(t *testing.T, newColl newFunc)
	}{
		{"in_memory", func(t *testing.T, newColl newFunc) {
			// Duplicate keys on purpose; unbounded, then a budget never reached.
			pairs := randomPairs(rand.New(rand.NewSource(1)), 1000, 500)
			for _, mem := range []int{0, 5000} {
				c := newColl(t.TempDir(), mem)
				if got := collectAll(t, c, pairs); !samePairs(got, stableSorted(pairs)) {
					t.Errorf("mem=%d: the stream is not a stable sort of the pairs", mem)
				}
				if st := c.Stats(); st.Runs != 0 || st.SpilledBytes != 0 {
					t.Errorf("mem=%d: spilled: %+v", mem, st)
				}
			}
		}},
		{"spilling", func(t *testing.T, newColl newFunc) {
			pairs := randomPairs(rand.New(rand.NewSource(2)), 2000, 1500)
			for _, mem := range contractBudgets[1:] {
				c := newColl(t.TempDir(), mem)
				if got := collectAll(t, c, pairs); !samePairs(got, stableSorted(pairs)) {
					t.Errorf("mem=%d: the merged stream is not a stable sort of the pairs", mem)
				}
				if got, want := c.Stats().Runs, len(pairs)/mem; got != want {
					t.Errorf("mem=%d: %d runs, want %d", mem, got, want)
				}
			}
		}},
		{"stability", func(t *testing.T, newColl newFunc) {
			// Two keys, alternating: every pair ties with half the others,
			// in memory, in one run and across runs.
			pairs := make([]transport.Pair, 20)
			for i := range pairs {
				pairs[i] = transport.Pair{Key: []byte{byte(i % 2)}, Value: []byte{byte(i)}}
			}
			for _, mem := range contractBudgets {
				got := collectAll(t, newColl(t.TempDir(), mem), pairs)
				if !samePairs(got, stableSorted(pairs)) {
					t.Errorf("mem=%d: equal keys did not come back in arrival order", mem)
				}
			}
		}},
		{"random_budgets", func(t *testing.T, newColl newFunc) {
			dir := t.TempDir()
			f := func(keys []uint16, budget uint8) bool {
				pairs := make([]transport.Pair, len(keys))
				for i, k := range keys {
					pairs[i] = transport.Pair{
						Key:   binary.BigEndian.AppendUint16(nil, k%64),
						Value: binary.LittleEndian.AppendUint32(nil, uint32(i)),
					}
				}
				c := newColl(dir, int(budget%20))
				for _, p := range pairs {
					if c.Add(p) != nil {
						return false
					}
				}
				got, err := drainErr(c)
				return err == nil && samePairs(got, stableSorted(pairs))
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(3))}); err != nil {
				t.Error(err)
			}
		}},
		{"empty", func(t *testing.T, newColl newFunc) {
			for _, mem := range contractBudgets {
				c := newColl(t.TempDir(), mem)
				if got := drain(t, c); len(got) != 0 {
					t.Errorf("mem=%d: an empty collector yielded %d pairs", mem, len(got))
				}
				if st := c.Stats(); st != (Stats{}) {
					t.Errorf("mem=%d: an empty collector's stats are %+v", mem, st)
				}
			}
		}},
		{"close_without_iterate", func(t *testing.T, newColl newFunc) {
			c := newColl(t.TempDir(), 4)
			for _, p := range distinctPairs(20) {
				if err := c.Add(p); err != nil {
					t.Fatal(err)
				}
			}
			if c.Stats().Runs == 0 {
				t.Fatal("the case needs spilled runs")
			}
			c.Close()
			c.Close() // idempotent
			if c.(*hashCollector).file != nil {
				t.Error("Close kept the run file open")
			}
			if _, err := c.Iterate(); err == nil {
				t.Error("Iterate after Close succeeded")
			}
			if err := c.Add(transport.Pair{Key: []byte("k")}); err == nil {
				t.Error("Add after Close succeeded")
			}
		}},
		{"spill_stats", func(t *testing.T, newColl newFunc) {
			pairs := distinctPairs(95)
			c := newColl(t.TempDir(), 10)
			for _, p := range pairs {
				if err := c.Add(p); err != nil {
					t.Fatal(err)
				}
			}
			// Nine full tables of ten flushed, five pairs left in memory.
			// Each spilled pair is a frame of its own: key length, eight key
			// bytes, value count, value length, one value byte.
			st := c.Stats()
			if want := (Stats{Items: 95, Groups: 95, Runs: 9, SpilledBytes: 90 * 12}); st != want {
				t.Errorf("stats %+v, want %+v", st, want)
			}
			if got := drain(t, c); !samePairs(got, stableSorted(pairs)) {
				t.Error("the merged stream is not the pairs in key order")
			}
		}},
		{"no_spill_stats", func(t *testing.T, newColl newFunc) {
			c := newColl(t.TempDir(), 0)
			for _, p := range distinctPairs(1000) {
				if err := c.Add(p); err != nil {
					t.Fatal(err)
				}
			}
			if st := c.Stats(); st.Items != 1000 || st.Runs != 0 || st.SpilledBytes != 0 {
				t.Errorf("unexpected spill: %+v", st)
			}
			c.Close()
		}},
		{"usage_errors", func(t *testing.T, newColl newFunc) {
			// Unbounded the collector is its own iterator; spilled, the
			// iterator is a merge. Both refuse reuse, before and after the
			// iterator is closed.
			for _, mem := range contractBudgets {
				c := newColl(t.TempDir(), mem)
				for _, p := range distinctPairs(10) {
					if err := c.Add(p); err != nil {
						t.Fatal(err)
					}
				}
				it, err := c.Iterate()
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Add(transport.Pair{Key: []byte("k")}); !errors.Is(err, errUsed) {
					t.Errorf("mem=%d: Add after Iterate returned %v", mem, err)
				}
				if _, err := c.Iterate(); !errors.Is(err, errUsed) {
					t.Errorf("mem=%d: a second Iterate returned %v", mem, err)
				}
				n := 0
				for {
					_, ok, err := it.Next()
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						break
					}
					n++
				}
				it.Close()
				if n != 10 {
					t.Errorf("mem=%d: the refused calls changed the stream: %d pairs, want 10", mem, n)
				}
				if err := c.Add(transport.Pair{Key: []byte("k")}); !errors.Is(err, errUsed) {
					t.Errorf("mem=%d: Add after the iterator closed returned %v", mem, err)
				}
			}
		}},
		{"run_file_error", func(t *testing.T, newColl newFunc) {
			c := newColl(filepath.Join(t.TempDir(), "missing"), 2)
			if err := c.Add(transport.Pair{Key: []byte("a")}); err != nil {
				t.Fatal(err)
			}
			err := c.Add(transport.Pair{Key: []byte("b")})
			if err == nil || !strings.Contains(err.Error(), "create run file") || !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("a flush into a missing dir returned %v, want the wrapped create run file error", err)
			}
			c.Close()
			if c.(*hashCollector).file != nil {
				t.Error("Close after a failed flush left a run file open")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, ctor := range ctors {
				t.Run(ctor.name, func(t *testing.T) { tc.run(t, ctor.new) })
			}
		})
	}
}
