package groupx

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"github.com/casm-project/casm/internal/sortx"
	"github.com/casm-project/casm/internal/transport"
)

// refHashCollector is the hash collector as it was before it kept one flat
// pair buffer: a group → []Pair table rebuilt after every flush, flushed
// through Sorter.Add. It is the reference the collector is held to — same
// stream, same counters, same spilled bytes.
type refHashCollector struct {
	codec    sortx.Codec[transport.Pair]
	dir      string
	memItems int

	groups   map[string]*refHashGroup
	buffered int
	stats    Stats
	sorter   *sortx.Sorter[transport.Pair]
}

type refHashGroup struct {
	key   []byte
	pairs []transport.Pair
}

func (c *refHashCollector) Add(p transport.Pair) error {
	g, ok := c.groups[string(p.Key)]
	if !ok {
		g = &refHashGroup{key: p.Key}
		c.groups[string(p.Key)] = g
		c.stats.Groups++
	}
	g.pairs = append(g.pairs, p)
	c.buffered++
	c.stats.Items++
	if c.memItems > 0 && c.buffered >= c.memItems {
		return c.flush()
	}
	return nil
}

func (c *refHashCollector) sortedGroups() []*refHashGroup {
	gs := make([]*refHashGroup, 0, len(c.groups))
	for _, g := range c.groups {
		gs = append(gs, g)
	}
	slices.SortFunc(gs, func(a, b *refHashGroup) int { return bytes.Compare(a.key, b.key) })
	return gs
}

func (c *refHashCollector) flush() error {
	if c.sorter == nil {
		c.sorter = sortx.NewContext(context.Background(), PairKeyCompare, c.codec, c.dir, c.memItems)
	}
	for _, g := range c.sortedGroups() {
		for _, p := range g.pairs {
			if err := c.sorter.Add(p); err != nil {
				return err
			}
		}
	}
	c.stats.Spills++
	c.groups = make(map[string]*refHashGroup, len(c.groups))
	c.buffered = 0
	return nil
}

func (c *refHashCollector) Iterate() (Iterator, error) {
	if c.sorter != nil {
		if c.buffered > 0 {
			if err := c.flush(); err != nil {
				return nil, err
			}
			c.stats.Spills--
		}
		return c.sorter.Iterate()
	}
	var out []transport.Pair
	for _, g := range c.sortedGroups() {
		out = append(out, g.pairs...)
	}
	return &refIterator{out}, nil
}

func (c *refHashCollector) Close() {
	if c.sorter != nil {
		c.sorter.Close()
	}
}

func (c *refHashCollector) Stats() Stats {
	st := c.stats
	if c.sorter != nil {
		ss := c.sorter.Stats()
		st.Runs, st.SpilledBytes = ss.Runs, ss.SpilledBytes
	}
	return st
}

type refIterator struct{ pairs []transport.Pair }

func (it *refIterator) Next() (p transport.Pair, ok bool, err error) {
	if len(it.pairs) == 0 {
		return p, false, nil
	}
	p, it.pairs = it.pairs[0], it.pairs[1:]
	return p, true, nil
}
func (it *refIterator) Close() {}

// spillLog is a codec that also records every byte it is asked to spill,
// in order: two collectors whose logs, run counts and spilled-byte counts
// agree wrote the same run files.
type spillLog struct {
	testCodec
	log *[]byte
}

func (c spillLog) EncodeTo(dst []byte, p transport.Pair) ([]byte, error) {
	dst, err := c.testCodec.EncodeTo(dst, p)
	*c.log = append(*c.log, dst...)
	return dst, err
}

// TestHashCollectorMatchesReference holds the collector to the
// implementation it replaced on random arrival sequences — few keys and
// many, budgets from "flush every other pair" to "never": the same pairs
// in the same order, the same Stats, the same bytes spilled in the same
// order into the same number of runs; and MaxGroup, which the reference
// never knew, is the largest group's size. Collectors run side by side on
// four goroutines (run with -race -count=10): they share nothing.
func TestHashCollectorMatchesReference(t *testing.T) {
	type tc struct{ n, nKeys, mem int }
	var cases []tc
	for _, n := range []int{0, 1, 70, 600, 5000} {
		for _, nKeys := range []int{1, 13, 400} {
			for _, mem := range []int{0, 2, 7, 291, 292, 293, 1000} {
				if mem == 0 || n/mem <= 300 { // a run is a temp file
					cases = append(cases, tc{n, nKeys, mem})
				}
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(cases); i += 4 {
				c := cases[i]
				pairs := randomPairs(rand.New(rand.NewSource(int64(i))), c.n, c.nKeys)
				var gotLog, wantLog []byte
				got := NewHash(spillLog{log: &gotLog}, t.TempDir(), c.mem)
				want := &refHashCollector{codec: spillLog{log: &wantLog}, dir: t.TempDir(), memItems: c.mem, groups: map[string]*refHashGroup{}}
				sizes := map[string]int64{}
				for _, p := range pairs {
					if err := got.Add(p); err != nil {
						t.Error(err)
						return
					}
					if err := want.Add(p); err != nil {
						t.Error(err)
						return
					}
					sizes[string(p.Key)]++
				}
				label := fmt.Sprintf("n=%d keys=%d mem=%d", c.n, c.nKeys, c.mem)
				gotPairs, err := drainErr(got)
				if err != nil {
					t.Error(err)
					return
				}
				wantPairs, err := drainErr(want)
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.EqualFunc(gotPairs, wantPairs, func(a, b transport.Pair) bool {
					return bytes.Equal(a.Key, b.Key) && bytes.Equal(a.Value, b.Value)
				}) {
					t.Errorf("%s: iteration order differs from the reference", label)
				}
				gs, ws := got.Stats(), want.Stats()
				var maxGroup int64
				for _, n := range sizes {
					maxGroup = max(maxGroup, n)
				}
				if gs.MaxGroup != maxGroup {
					t.Errorf("%s: MaxGroup = %d, largest group has %d pairs", label, gs.MaxGroup, maxGroup)
				}
				gs.MaxGroup = 0
				if gs != ws {
					t.Errorf("%s: stats %+v, reference %+v", label, gs, ws)
				}
				if !bytes.Equal(gotLog, wantLog) {
					t.Errorf("%s: spilled bytes differ from the reference (%d vs %d)", label, len(gotLog), len(wantLog))
				}
				if c.mem > 0 && c.n >= c.mem && gs.Runs == 0 {
					t.Errorf("%s: never spilled", label)
				}
				got.Close()
				want.Close()
			}
		}(w)
	}
	wg.Wait()
}

// TestHashCollectorAllocatesWhatItHolds is the collector's allocation
// ceiling: a buffered pair costs its own bytes plus its four-byte link,
// once — at most 1.25× that, counting the group table, chunk rounding and
// the spill fallback — whether the collector holds everything or flushes
// every 4096 pairs, and iterating what it holds allocates next to nothing:
// the pairs are walked where they lie, never copied into an ordered slice.
func TestHashCollectorAllocatesWhatItHolds(t *testing.T) {
	const n, nKeys = 200_000, 500
	pairs := randomPairs(rand.New(rand.NewSource(9)), n, nKeys)
	perPair := float64(unsafe.Sizeof(transport.Pair{}) + 4)
	allocated := func(f func()) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	for _, mem := range []int{0, 4096} {
		c := NewHash(testCodec{}, t.TempDir(), mem)
		add := allocated(func() {
			for _, p := range pairs {
				if err := c.Add(p); err != nil {
					t.Fatal(err)
				}
			}
		})
		held := n
		if mem > 0 {
			held = mem
		}
		t.Logf("mem=%d: adding %d pairs allocated %.0f bytes, %.1f per held pair", mem, n, add, add/float64(held))
		if ceiling := 1.25*perPair*float64(held) + 256<<10; add > ceiling {
			// 256 KiB: the spill fallback's run writer, encode scratch and
			// descriptors, and the group table of 500 keys.
			t.Errorf("mem=%d: adding %d pairs allocated %.0f bytes, ceiling %.0f (%.1f per held pair, want ≤ %.1f)",
				mem, n, add, ceiling, add/float64(held), 1.25*perPair)
		}
		var it Iterator
		iterate := allocated(func() {
			var err error
			if it, err = c.Iterate(); err != nil {
				t.Fatal(err)
			}
			if mem > 0 {
				return // the merge reads runs back through buffers of its own
			}
			for {
				if _, ok, err := it.Next(); err != nil || !ok {
					break
				}
			}
		})
		if mem == 0 && iterate > 0.1*perPair*n {
			t.Errorf("iterating %d held pairs allocated %.0f bytes: a second copy of them would be %.0f", n, iterate, perPair*n)
		}
		it.Close()
	}
}
