// Package groupx collects a reducer's shuffled pairs and hands them back
// grouped. Two collectors implement the same Collector interface:
//
//   - the hash collector, every reducer's (Leis et al.'s morsel
//     partitioned grouping, the Hespe et al. in-memory OLAP shape): reduce
//     only needs pairs *grouped*, so pairs go straight into one flat
//     buffer, chained per group by a key → group table, and no per-item
//     comparison sort runs. When the buffered-pair budget is exceeded the
//     buffer is written out as a sorted run and the collector degrades to
//     the external-sort path, so memory stays bounded and the output
//     stream (groups ascending by key) is identical either way;
//   - the sort collector drains everything through a sortx external sort
//     (the classic Hadoop shape the paper assumes: "reducers collect
//     pairs and use external sorting to group pairs with the same key
//     value"). No job runs it; it stays as the reference the hash
//     collector is tested against and the baseline the wall-clock
//     benchmark's grouping kernel times.
//
// Both collectors are single-goroutine: Add all pairs, then Iterate once.
package groupx

import (
	"bytes"
	"context"
	"math"
	"slices"

	"github.com/casm-project/casm/internal/sortx"
	"github.com/casm-project/casm/internal/transport"
)

// Stats reports a collector's work, feeding ReduceTaskStats and the cost model.
type Stats struct {
	Items        int64 // pairs added
	Groups       int64 // distinct resident groups (hash collector; 0 sorted)
	MaxGroup     int64 // pairs in the largest group, known once Iterate has run (hash collector; 0 sorted)
	Spills       int64 // hash-table flushes into the sorted-run fallback
	Runs         int   // spilled run files
	SpilledBytes int64 // bytes written to spill runs
}

// Iterator yields a collector's pairs, grouped, in ascending group-key
// order. A pair's Key and Value are only guaranteed valid until the
// following Next call (spilled pairs alias reused read buffers — the
// sortx contract).
type Iterator interface {
	Next() (transport.Pair, bool, error)
	Close()
}

// Collector accumulates shuffled pairs and yields them grouped.
type Collector interface {
	Add(p transport.Pair) error
	// Iterate finalizes the collector; it cannot be reused afterwards.
	Iterate() (Iterator, error)
	Stats() Stats
	// Close releases the collector's resources (spill-run descriptors,
	// buffered pairs) without iterating — the error/cancel teardown
	// hook. Idempotent; on the happy path the Iterator's Close already
	// released the runs and this is a no-op.
	Close()
}

// PairKeyCompare orders pairs by their full shuffle key, the comparison
// both collectors spill and merge under. bytes.Compare orders byte keys
// exactly as strings.Compare ordered their string forms, so the output
// stream is bit-identical to the string-keyed implementation.
func PairKeyCompare(a, b transport.Pair) int { return bytes.Compare(a.Key, b.Key) }

// --- sorted path ---

type sortCollector struct {
	s *sortx.Sorter[transport.Pair]
}

// NewSort returns the external-sort collector: pairs come back in full
// shuffle-key order.
func NewSort(codec sortx.Codec[transport.Pair], dir string, memItems int) Collector {
	return &sortCollector{s: sortx.New(PairKeyCompare, codec, dir, memItems)}
}

func (c *sortCollector) Add(p transport.Pair) error { return c.s.Add(p) }

func (c *sortCollector) Iterate() (Iterator, error) { return c.s.Iterate() }

func (c *sortCollector) Close() { c.s.Close() }

func (c *sortCollector) Stats() Stats {
	ss := c.s.Stats()
	return Stats{
		Items:        ss.Items,
		Runs:         ss.Runs,
		SpilledBytes: ss.SpilledBytes,
	}
}

// --- hash path ---

// hashGroup is one distinct group key: the chain of its buffered pairs
// (indices into the pair buffer, -1 when none) and how many pairs it has
// received in all.
type hashGroup struct {
	key        []byte
	head, tail int32
	total      int64
}

// hashPair is one buffered pair, linked to its group's next in arrival
// order (-1 at the end).
type hashPair struct {
	transport.Pair
	next int32
}

// pairChunk is the pair buffer's allocation unit: whole chunks are added
// as the buffer fills, never regrown, so a buffered pair is written once.
// The first chunk alone grows from nothing, for the many reducers that
// receive a handful of pairs. 292 pairs of 56 bytes and the allocator's
// 8-byte header fill a 16 KiB size class; 256 would waste an eighth of it.
const pairChunk = 292

type hashCollector struct {
	ctx      context.Context
	codec    sortx.Codec[transport.Pair]
	dir      string
	memItems int

	// The group table outlives flushes: a group seen again after a flush
	// is found, not rebuilt. order lists the groups by ascending key and is
	// brought up to date when a flush or the iteration needs it.
	ids    map[string]int32
	groups []hashGroup
	order  []int32

	// chunks holds the n buffered pairs; pair i is chunks[i/pairChunk][i%pairChunk].
	chunks [][]hashPair
	n      int
	stats  Stats

	// sorter is the spill fallback, created on the first flush. A flush
	// hands it the memItems buffered pairs in (group key, arrival) order —
	// what a stable key sort of the batch yields — as one finished run, so
	// its run files are byte-identical to the ones the sorted path would
	// have written for the same arrival sequence.
	sorter *sortx.Sorter[transport.Pair]

	// The iteration, once Iterate has run: mem over the table, or merged.
	mem    func() (transport.Pair, bool)
	merged *sortx.Iterator[transport.Pair]
}

// NewHash returns the hash-grouped collector. memItems bounds the pairs
// buffered in the table before a flush to sorted runs (< 1 = unbounded,
// matching the sortx convention). codec and dir parameterize the spill
// fallback.
func NewHash(codec sortx.Codec[transport.Pair], dir string, memItems int) Collector {
	return NewHashContext(context.Background(), codec, dir, memItems)
}

// NewHashContext is NewHash with a cancellation context threaded into
// the spill-fallback sorter's spill and merge loops.
func NewHashContext(ctx context.Context, codec sortx.Codec[transport.Pair], dir string, memItems int) Collector {
	if memItems < 1 || memItems > math.MaxInt32 {
		memItems = math.MaxInt32 // pairs are chained by int32 index
	}
	return &hashCollector{
		ctx:      ctx,
		codec:    codec,
		dir:      dir,
		memItems: memItems,
		ids:      make(map[string]int32),
	}
}

func (c *hashCollector) Add(p transport.Pair) error {
	// map[string(bytes)] probes without allocating; the map-key string
	// only materializes on first sight of a distinct group. p.Key doubles
	// as the group key — transport bytes stay valid for the job, so this
	// retains a borrowed slice, not a copy.
	id, ok := c.ids[string(p.Key)]
	if !ok {
		id = int32(len(c.groups))
		c.ids[string(p.Key)] = id
		c.groups = append(c.groups, hashGroup{key: p.Key, head: -1})
	}
	g := &c.groups[id]
	i := int32(c.n)
	k, off := c.n/pairChunk, c.n%pairChunk
	if k == len(c.chunks) {
		var chunk []hashPair
		if k > 0 {
			chunk = make([]hashPair, 0, pairChunk)
		}
		c.chunks = append(c.chunks, chunk)
	}
	c.chunks[k] = append(c.chunks[k][:off], hashPair{Pair: p, next: -1})
	if g.head < 0 {
		g.head = i
		c.stats.Groups++ // resident in this table; counted again after a flush
	} else {
		c.pair(g.tail).next = i
	}
	g.tail = i
	g.total++
	c.n++
	c.stats.Items++
	if c.n >= c.memItems {
		return c.flush()
	}
	return nil
}

func (c *hashCollector) pair(i int32) *hashPair {
	return &c.chunks[i/pairChunk][i%pairChunk]
}

// drain returns the buffered pairs in (group key, arrival) order — each
// group's chain in turn, groups by ascending key — as a pull function, and
// empties the table behind it: once it has yielded ok=false no group holds
// a pair. The pairs stay where Add wrote them; nothing is copied.
func (c *hashCollector) drain() func() (transport.Pair, bool) {
	if len(c.order) < len(c.groups) {
		for id := len(c.order); id < len(c.groups); id++ {
			c.order = append(c.order, int32(id))
		}
		slices.SortFunc(c.order, func(a, b int32) int { return bytes.Compare(c.groups[a].key, c.groups[b].key) })
	}
	rank, at := 0, int32(-1)
	return func() (transport.Pair, bool) {
		for at < 0 {
			if rank == len(c.order) {
				c.n = 0
				return transport.Pair{}, false
			}
			g := &c.groups[c.order[rank]]
			rank++
			at, g.head = g.head, -1
		}
		p := c.pair(at)
		at = p.next
		return p.Pair, true
	}
}

// flush writes every buffered pair to the spill sorter as one sorted run
// and empties the table. Pairs carry their original key bytes straight
// into the byte-keyed spill codec — no string round-trip anywhere on the
// spill path.
func (c *hashCollector) flush() error {
	if c.sorter == nil {
		c.sorter = sortx.NewContext(c.ctx, PairKeyCompare, c.codec, c.dir, 0)
	}
	c.stats.Spills++
	return c.sorter.SpillSorted(c.drain())
}

// Iterate returns the collector itself: it walks the table in place, or
// the sorter's merge once it has spilled, and closing it releases both.
func (c *hashCollector) Iterate() (Iterator, error) {
	for i := range c.groups {
		c.stats.MaxGroup = max(c.stats.MaxGroup, c.groups[i].total)
	}
	if c.sorter == nil {
		c.mem = c.drain()
		return c, nil
	}
	// Degraded mode: the residue joins the spilled runs and the whole
	// stream comes back merge-sorted, exactly like NewSort.
	var err error
	if c.merged, err = c.sorter.IterateSorted(c.n, c.drain()); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *hashCollector) Next() (transport.Pair, bool, error) {
	if c.merged != nil {
		return c.merged.Next()
	}
	p, ok := c.mem()
	return p, ok, nil
}

func (c *hashCollector) Close() {
	if c.sorter != nil {
		c.sorter.Close()
	}
	c.ids, c.groups, c.order, c.chunks = nil, nil, nil, nil
}

func (c *hashCollector) Stats() Stats {
	st := c.stats
	if c.sorter != nil {
		ss := c.sorter.Stats()
		st.Runs, st.SpilledBytes = ss.Runs, ss.SpilledBytes
	}
	return st
}
