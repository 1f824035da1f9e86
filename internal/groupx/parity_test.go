package groupx

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"github.com/casm-project/casm/internal/transport"
)

// refHashCollector is a model of the hash collector: a group → []Pair
// table, flushed past the budget into runs held as frames (refRun), and
// the whole stream kept unbounded beside them. It is the reference the
// collector is held to — the unbounded stream, the same Stats, and the
// same bytes in the same runs, the fan-in passes' counted in SpilledBytes.
type refHashCollector struct {
	memItems int

	groups   map[string]*refHashGroup
	all      map[string]*refHashGroup // every pair, never flushed
	buffered int
	runs     []refRun
	stats    Stats
}

type refHashGroup struct {
	key   []byte
	pairs []transport.Pair
}

func newRefHash(memItems int) *refHashCollector {
	return &refHashCollector{memItems: memItems, groups: map[string]*refHashGroup{}, all: map[string]*refHashGroup{}}
}

func (c *refHashCollector) Add(p transport.Pair) error {
	for _, groups := range []map[string]*refHashGroup{c.groups, c.all} {
		g, ok := groups[string(p.Key)]
		if !ok {
			g = &refHashGroup{key: p.Key}
			groups[string(p.Key)] = g
		}
		g.pairs = append(g.pairs, p)
	}
	if len(c.groups[string(p.Key)].pairs) == 1 {
		c.stats.Groups++
	}
	c.buffered++
	c.stats.Items++
	if c.memItems > 0 && c.buffered >= c.memItems {
		c.flush()
	}
	return nil
}

func sortedGroups(groups map[string]*refHashGroup) []*refHashGroup {
	gs := make([]*refHashGroup, 0, len(groups))
	for _, g := range groups {
		gs = append(gs, g)
	}
	slices.SortFunc(gs, func(a, b *refHashGroup) int { return bytes.Compare(a.key, b.key) })
	return gs
}

func (c *refHashCollector) flush() {
	var run refRun
	for _, g := range sortedGroups(c.groups) {
		f := refFrame{key: g.key}
		for _, p := range g.pairs {
			f.values = append(f.values, p.Value)
		}
		run = append(run, f)
	}
	c.runs = append(c.runs, run)
	c.stats.Runs++
	c.stats.SpilledBytes += int64(len(run.bytes()))
	c.groups = map[string]*refHashGroup{}
	c.buffered = 0
}

func (c *refHashCollector) Iterate() (Iterator, error) {
	c.stats.SpilledBytes += refFanInBytes(c.runs)
	var out []transport.Pair
	for _, g := range sortedGroups(c.all) {
		out = append(out, g.pairs...)
	}
	return &refIterator{out}, nil
}

func (c *refHashCollector) Close() {}

func (c *refHashCollector) Stats() Stats { return c.stats }

type refIterator struct{ pairs []transport.Pair }

func (it *refIterator) Next() (p transport.Pair, ok bool, err error) {
	if len(it.pairs) == 0 {
		return p, false, nil
	}
	p, it.pairs = it.pairs[0], it.pairs[1:]
	return p, true, nil
}
func (it *refIterator) Close() {}

// refRun is a group-framed run as the model holds it: frames by ascending
// key, each with its values in order.
type refRun []refFrame

type refFrame struct {
	key    []byte
	values [][]byte
}

// bytes encodes the run: uvarint(len key) key uvarint(n), then n ×
// (uvarint(len v) v), per frame.
func (r refRun) bytes() []byte {
	var b []byte
	for _, f := range r {
		b = binary.AppendUvarint(b, uint64(len(f.key)))
		b = append(b, f.key...)
		b = binary.AppendUvarint(b, uint64(len(f.values)))
		for _, v := range f.values {
			b = binary.AppendUvarint(b, uint64(len(v)))
			b = append(b, v...)
		}
	}
	return b
}

// refMerge merges runs, oldest first, into one: a frame per key holding
// its values from every run in run order.
func refMerge(runs []refRun) refRun {
	byKey := map[string]int{}
	var out refRun
	for _, r := range runs {
		for _, f := range r {
			i, ok := byKey[string(f.key)]
			if !ok {
				i = len(out)
				out = append(out, refFrame{key: f.key})
				byKey[string(f.key)] = i
			}
			out[i].values = append(out[i].values, f.values...)
		}
	}
	slices.SortFunc(out, func(a, b refFrame) int { return bytes.Compare(a.key, b.key) })
	return out
}

// refFanInBytes applies the fan-in bound to runs — while more than fanIn
// remain, merge the oldest fanIn at a time into one in their place, until
// the count fits — and returns the bytes the merged runs take.
func refFanInBytes(runs []refRun) int64 {
	var written int64
	for len(runs) > fanIn {
		var next []refRun
		for i := 0; i < len(runs); {
			if len(next)+len(runs)-i <= fanIn {
				next = append(next, runs[i:]...)
				break
			}
			end := min(i+fanIn, len(runs))
			merged := refMerge(runs[i:end])
			written += int64(len(merged.bytes()))
			next = append(next, merged)
			i = end
		}
		runs = next
	}
	return written
}

// runFileBytes reads back every run a hash collector has spilled, in order.
func runFileBytes(t testing.TB, coll Collector) [][]byte {
	t.Helper()
	c := coll.(*hashCollector)
	var out [][]byte
	for _, r := range c.runs {
		data, err := io.ReadAll(io.NewSectionReader(c.file, r.offset, r.length))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// TestHashCollectorMatchesReference holds the collector to its model on
// random arrival sequences — few keys and many, budgets from "flush every
// other pair" (past the fan-in, so merge passes run) to "never": the
// unbounded stream, pair for pair; the same Stats, SpilledBytes counting
// every run and merge pass the frame format implies; the same bytes in
// the same runs; and MaxGroup, which the model does not track, is the
// largest group's size. Collectors run side by side on four goroutines
// (run with -race -count=10): they share nothing.
func TestHashCollectorMatchesReference(t *testing.T) {
	type tc struct {
		n, nKeys, mem int
		word          bool // wordKeys, not k%03d
	}
	var cases []tc
	for _, n := range []int{0, 1, 70, 600, 5000} {
		for _, nKeys := range []int{1, 13, 400} {
			for _, mem := range []int{0, 2, 7, 291, 292, 293, 1000} {
				for _, word := range []bool{false, true} {
					cases = append(cases, tc{n, nKeys, mem, word})
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
				rng := rand.New(rand.NewSource(int64(i)))
				var pairs []transport.Pair
				if c.word {
					pairs = pairsOver(rng, c.n, wordKeys(rng, c.nKeys))
				} else {
					pairs = randomPairs(rng, c.n, c.nKeys)
				}
				got := NewHash(testCodec{}, t.TempDir(), c.mem)
				want := newRefHash(c.mem)
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
				label := fmt.Sprintf("n=%d keys=%d mem=%d word=%v", c.n, c.nKeys, c.mem, c.word)
				gotRuns := runFileBytes(t, got)
				if len(gotRuns) != len(want.runs) {
					t.Errorf("%s: %d runs, the model %d", label, len(gotRuns), len(want.runs))
				} else {
					for r := range gotRuns {
						if !bytes.Equal(gotRuns[r], want.runs[r].bytes()) {
							t.Errorf("%s: run %d differs from the model's frames", label, r)
							break
						}
					}
				}
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
					t.Errorf("%s: iteration differs from the unbounded stream", label)
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
					t.Errorf("%s: stats %+v, model %+v", label, gs, ws)
				}
				if c.mem > 0 && c.n >= c.mem && gs.Runs == 0 {
					t.Errorf("%s: never spilled", label)
				}
				got.Close()
			}
		}(w)
	}
	wg.Wait()
}

// TestHashCollectorAllocatesWhatItHolds is the collector's allocation
// ceiling: a buffered pair costs its own bytes plus its four-byte link,
// once — at most 1.25× that, counting the group table, chunk rounding and
// the run writer — whether the collector holds everything or flushes
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
			// 256 KiB: the run writer and descriptor, and the group table
			// of 500 keys.
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

// TestHashTableAllocsOnlyGrowth is the group table's allocation ceiling.
// Once every key has a group, Add allocates nothing but the growth of the
// collector's arrays — a new pair chunk, or a regrowth of the chunk list,
// the table's slots, the groups or the resident list — and finding a
// group, new or old, allocates nothing of its own. Ordering the resident
// groups allocates at most one int32 per group, the radix sort's scratch,
// and nothing once the scratch is there.
func TestHashTableAllocsOnlyGrowth(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const nKeys = 5000
	rng := rand.New(rand.NewSource(13))
	keys := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = binary.AppendUvarint(fmt.Appendf(nil, "k%d/", rng.Intn(100)), uint64(i))
	}
	mallocs := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	c := NewHash(testCodec{}, "", 0).(*hashCollector)
	// A new chunk shows as the list's length, a regrowth as a capacity.
	caps := func() [6]int {
		return [6]int{len(c.chunks), cap(c.chunks), cap(c.chunks[len(c.chunks)-1]), cap(c.slots), cap(c.groups), cap(c.resident)}
	}
	// The first half of the keys arrive first, then pairs over all of
	// them: half the groups are found, half made.
	for _, phase := range [][]transport.Pair{pairsOver(rng, 3*nKeys, keys[:nKeys/2]), pairsOver(rng, 3*nKeys, keys)} {
		var growths uint64
		allocs := mallocs(func() {
			for _, p := range phase {
				was := [6]int{}
				if len(c.chunks) > 0 {
					was = caps()
				}
				if err := c.Add(p); err != nil {
					t.Fatal(err)
				}
				for i, n := range caps() {
					if n != was[i] {
						growths++
					}
				}
			}
		})
		t.Logf("%d pairs, %d groups: %d allocations, %d array growths", len(phase), len(c.groups), allocs, growths)
		if allocs > growths {
			t.Errorf("adding %d pairs allocated %d times; the collector's arrays grew %d times", len(phase), allocs, growths)
		}
	}
	n := len(c.resident)
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	if b := allocated(c.sortResident); b > uint64(4*n)*9/8 {
		t.Errorf("ordering %d groups allocated %d bytes, want at most %d int32s", n, b, n)
	}
	if b := allocated(c.sortResident); b != 0 {
		t.Errorf("ordering %d groups again allocated %d bytes, want none", n, b)
	}
}
