// Package groupx collects a reducer's shuffled pairs and hands them back
// grouped, through one collector (Leis et al.'s morsel partitioned
// grouping, the Hespe et al. in-memory OLAP shape). The paper's reducers
// "collect pairs and use external sorting to group pairs with the same key
// value"; reduce only needs pairs *grouped*, so here pairs go straight into
// one flat buffer, chained per group, and no per-item comparison sort runs.
// Groups are found by an open-addressing table of 64-bit words, a hash tag
// and a group id each, and are ordered, once per flush or iteration, by a
// radix sort on their keys' first eight bytes (table.go). When the
// buffered-pair budget is exceeded the groups are written out as a
// group-framed run (runs.go: each group's key once, then its values) and
// the iteration becomes a merge of the runs with what the table still
// holds, a group at a time. Memory stays bounded, and the output stream is
// a stable key-order sort's either way: groups ascending by key, each
// group's pairs in arrival order.
//
// A collector is single-goroutine and single-use: Add all pairs, then
// Iterate once.
package groupx

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"github.com/casm-project/casm/internal/transport"
)

// Stats reports a collector's work, feeding ReduceTaskStats and the cost model.
type Stats struct {
	Items        int64 // pairs added
	Groups       int64 // distinct resident groups; a group counts again each time it turns resident after a flush
	MaxGroup     int64 // pairs in the largest group, known once Iterate has run
	Runs         int   // runs spilled by the table; merge passes' runs are not counted
	SpilledBytes int64 // bytes written to spill runs, merge passes' runs included
}

// Iterator yields a collector's pairs, grouped, in ascending group-key
// order. A pair's Key and Value are only guaranteed valid until the
// following Next call (spilled pairs alias reused read buffers).
type Iterator interface {
	Next() (transport.Pair, bool, error)
	Close()
}

// Collector accumulates shuffled pairs and yields them grouped.
type Collector interface {
	Add(p transport.Pair) error
	// Iterate finalizes the collector: afterwards, as after Close, Add and
	// Iterate return an error.
	Iterate() (Iterator, error)
	Stats() Stats
	// Close releases the collector's resources (spill-run descriptors,
	// buffered pairs) without iterating — the error/cancel teardown
	// hook. Idempotent; on the happy path the Iterator's Close already
	// released the runs and this is a no-op.
	Close()
}

// hashGroup is one distinct group key: the chain of its buffered pairs
// (indices into the pair buffer, -1 when none) and how many pairs it has
// received in all.
type hashGroup struct {
	key        []byte
	head, tail int32
	total      int64
}

// hashPair is one buffered pair, linked to its group's next in arrival
// order (-1 at the end). rank is its place in the chain, from 1, so the
// tail's is the chain's length — a flush's frame count, kept in what
// would otherwise be the struct's padding.
type hashPair struct {
	transport.Pair
	next, rank int32
}

// pairChunk is the pair buffer's allocation unit: whole chunks are added
// as the buffer fills, never regrown, so a buffered pair is written once.
// The first chunk alone grows from nothing, for the many reducers that
// receive a handful of pairs. 292 pairs of 56 bytes and the allocator's
// 8-byte header fill a 16 KiB size class; 256 would waste an eighth of it.
const pairChunk = 292

type hashCollector struct {
	ctx      context.Context
	done     <-chan struct{} // ctx.Done(), cached: polling it takes no lock, unlike ctx.Err()
	dir      string
	memItems int

	// The group table outlives flushes: a group seen again after a flush
	// is found, not rebuilt. slots is the table (table.go), shift places a
	// hash in it, and groups are the groups by id. resident lists the
	// groups holding pairs now, sorted by key, through scratch, when a
	// flush or the iteration walks them, so neither walks the groups an
	// earlier flush emptied.
	slots    []uint64
	shift    uint8
	groups   []hashGroup
	resident []int32
	scratch  []int32

	// chunks holds the n buffered pairs; pair i is chunks[i/pairChunk][i%pairChunk].
	chunks [][]hashPair
	n      int
	stats  Stats

	// Spill state, made on the first flush: the collector's one run file,
	// unlinked at creation, its writer, and each run's place in the file
	// in spill order. cursors are the merges' run readers — at most fanIn,
	// reused by every merge pass.
	file    *os.File
	w       *bufio.Writer
	end     int64 // the file's length, where the next run starts; -1 after a failed run
	lenBuf  [binary.MaxVarintLen64]byte
	runs    []span
	cursors []*cursor

	mem  func() (transport.Pair, bool) // the iteration, when nothing spilled
	used bool                          // Iterate or Close has run: Add and Iterate are errors
}

// errUsed is Add or Iterate on a collector already iterated or closed.
var errUsed = errors.New("groupx: collector used after Iterate or Close")

// NewHash returns the collector. memItems bounds the pairs buffered in the
// table before a flush to a spill run (< 1 = unbounded), written to a file
// in dir (the OS default when empty). codec is unused — the collector
// writes its own run format. It stays, typed any, because the wall-clock
// benchmark's kernels (benchmark/kernels.go) pass their own pair codec,
// and that directory changes only with the benchmark itself (ROADMAP
// item 3).
func NewHash(codec any, dir string, memItems int) Collector {
	return NewHashContext(context.Background(), dir, memItems)
}

// NewSort returns the same collector as NewHash, under the name of the
// stream it yields: a stable sort's — pairs in full shuffle-key order,
// pairs of one key in arrival order, at every budget. The name and the
// unused codec stay for the benchmark's kernels, which time grouping
// through it.
func NewSort(codec any, dir string, memItems int) Collector {
	return NewHash(codec, dir, memItems)
}

// NewHashContext is NewHash with a cancellation context: the spill and
// merge loops poll it and stop with its error once it is cancelled.
func NewHashContext(ctx context.Context, dir string, memItems int) Collector {
	if memItems < 1 || memItems > math.MaxInt32 {
		memItems = math.MaxInt32 // pairs are chained by int32 index
	}
	return &hashCollector{
		ctx:      ctx,
		done:     ctx.Done(),
		dir:      dir,
		memItems: memItems,
	}
}

func (c *hashCollector) Add(p transport.Pair) error {
	if c.used {
		return errUsed
	}
	id := c.group(p.Key)
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
	rank := int32(1)
	if g.head < 0 {
		g.head = i
		c.resident = append(c.resident, id)
		c.stats.Groups++ // resident in this table; counted again after a flush
	} else {
		tail := c.pair(g.tail)
		tail.next = i
		rank = tail.rank + 1
	}
	c.chunks[k] = append(c.chunks[k][:off], hashPair{Pair: p, next: -1, rank: rank})
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

// canceled reports the context's error once it is cancelled.
func (c *hashCollector) canceled() error {
	select {
	case <-c.done:
		return c.ctx.Err()
	default:
		return nil
	}
}

// take empties group g's chain and returns its first pair's index.
func (c *hashCollector) take(g *hashGroup) int32 {
	at := g.head
	g.head = -1
	return at
}

// drain returns the buffered pairs in (group key, arrival) order — each
// group's chain in turn, groups by ascending key — as a pull function, and
// empties the table behind it: once it has yielded ok=false no group holds
// a pair. The pairs stay where Add wrote them; nothing is copied.
func (c *hashCollector) drain() func() (transport.Pair, bool) {
	c.sortResident()
	rank, at := 0, int32(-1)
	return func() (transport.Pair, bool) {
		for at < 0 {
			if rank == len(c.resident) {
				c.n, c.resident = 0, c.resident[:0]
				return transport.Pair{}, false
			}
			at = c.take(&c.groups[c.resident[rank]])
			rank++
		}
		p := c.pair(at)
		at = p.next
		return p.Pair, true
	}
}

// flush writes the table as one run — a frame per group holding pairs,
// groups by ascending key, each group's pairs in arrival order — and
// empties it. Pairs go from where Add wrote them straight into the run
// writer's buffer.
func (c *hashCollector) flush() error {
	if err := c.canceled(); err != nil {
		return err
	}
	c.sortResident()
	offset, err := c.beginRun()
	if err != nil {
		return err
	}
	var length int64
	written := 0
	for _, id := range c.resident {
		g := &c.groups[id]
		length += c.putHead(g.key, uint64(c.pair(g.tail).rank))
		for at := c.take(g); at >= 0; {
			p := c.pair(at)
			length += c.putValue(p.Value)
			at = p.next
			if written++; written%cancelCheckStride == 0 {
				if err := c.canceled(); err != nil {
					c.abortRun()
					return err
				}
			}
		}
	}
	c.n, c.resident = 0, c.resident[:0]
	run, err := c.endRun(offset, length)
	if err != nil {
		return err
	}
	c.runs = append(c.runs, run)
	c.stats.Runs++
	return nil
}

// beginRun readies the run file for a new run and returns where it starts.
func (c *hashCollector) beginRun() (int64, error) {
	if c.file == nil {
		f, err := os.CreateTemp(c.dir, "groupx-run-*.bin")
		if err != nil {
			return 0, fmt.Errorf("groupx: create run file: %w", err)
		}
		// Unlinked at once, so runs never outlive the process even on a
		// crash; the disk space is reclaimed when the descriptor closes.
		os.Remove(f.Name())
		c.file, c.w, c.end = f, bufio.NewWriterSize(f, runBufSize), 0
	}
	if c.end < 0 {
		// A failed run wrote an unknown part of itself. The writer is
		// empty between runs, so the file offset is past those bytes.
		end, err := c.file.Seek(0, io.SeekCurrent)
		if err != nil {
			return 0, fmt.Errorf("groupx: write run: %w", err)
		}
		c.end = end
	}
	return c.end, nil
}

// abortRun drops what the writer holds of a failed run.
func (c *hashCollector) abortRun() {
	c.w.Reset(c.file)
	c.end = -1
}

// endRun flushes the run begun at offset and counts its bytes.
func (c *hashCollector) endRun(offset, length int64) (span, error) {
	if err := c.w.Flush(); err != nil {
		c.abortRun()
		return span{}, fmt.Errorf("groupx: write run: %w", err)
	}
	c.end = offset + length
	c.stats.SpilledBytes += length
	return span{offset, length}, nil
}

// putUvarint writes x to the run and returns its length. A write error
// sticks in the writer and surfaces at endRun's Flush.
func (c *hashCollector) putUvarint(x uint64) int64 {
	if x < 0x80 {
		c.w.WriteByte(byte(x))
		return 1
	}
	n := binary.PutUvarint(c.lenBuf[:], x)
	c.w.Write(c.lenBuf[:n])
	return int64(n)
}

// putHead writes a frame's key and value count.
func (c *hashCollector) putHead(key []byte, n uint64) int64 {
	l := c.putUvarint(uint64(len(key)))
	c.w.Write(key)
	return l + int64(len(key)) + c.putUvarint(n)
}

// putValue writes one of a frame's values.
func (c *hashCollector) putValue(v []byte) int64 {
	if b := c.w.AvailableBuffer(); cap(b) >= binary.MaxVarintLen64+len(v) {
		b = append(binary.AppendUvarint(b, uint64(len(v))), v...)
		c.w.Write(b) // b is the writer's own free space: Write only commits it
		return int64(len(b))
	}
	l := c.putUvarint(uint64(len(v)))
	c.w.Write(v)
	return l + int64(len(v))
}

// open returns a heap of cursors on runs, each on its first frame; the
// i-th run's cursor is the collector's i-th, its readers reused.
func (c *hashCollector) open(runs []span) (runHeap, error) {
	h := make(runHeap, 0, len(runs))
	for i, s := range runs {
		if i == len(c.cursors) {
			c.cursors = append(c.cursors, new(cursor))
		}
		cur := c.cursors[i]
		cur.reset(io.NewSectionReader(c.file, s.offset, s.length), s.length, i)
		ok, err := cur.nextFrame()
		if err != nil {
			return nil, err
		}
		if ok {
			h.push(cur)
		}
	}
	return h, nil
}

// mergeRuns merges runs, consecutive in spill order, into one run appended
// to the file: a frame per key, holding the key's values from every run,
// the older run's first.
func (c *hashCollector) mergeRuns(runs []span) (span, error) {
	h, err := c.open(runs)
	if err != nil {
		return span{}, err
	}
	offset, err := c.beginRun()
	if err != nil {
		return span{}, err
	}
	var length int64
	written := 0
	var group []*cursor
	for len(h) > 0 {
		group = h.popGroup(group[:0])
		var n uint64
		for _, cur := range group {
			n += cur.n
		}
		length += c.putHead(group[0].key, n)
		for _, cur := range group {
			for cur.n > 0 {
				v, err := cur.value()
				if err != nil {
					c.abortRun()
					return span{}, err
				}
				length += c.putValue(v)
				if written++; written%cancelCheckStride == 0 {
					if err := c.canceled(); err != nil {
						c.abortRun()
						return span{}, err
					}
				}
			}
			ok, err := cur.nextFrame()
			if err != nil {
				c.abortRun()
				return span{}, err
			}
			if ok {
				h.push(cur)
			}
		}
	}
	return c.endRun(offset, length)
}

// boundFanIn merges the oldest runs, fanIn at a time, until at most fanIn
// remain. Each merged run takes the place of the runs it replaces, so the
// runs stay in spill order and the merge stays stable; every pass reads
// and rewrites its runs' bytes once more, which SpilledBytes counts.
func (c *hashCollector) boundFanIn() error {
	for len(c.runs) > fanIn {
		runs := c.runs
		var next []span
		for i := 0; i < len(runs); {
			if len(next)+len(runs)-i <= fanIn {
				next = append(next, runs[i:]...)
				break
			}
			end := min(i+fanIn, len(runs))
			merged, err := c.mergeRuns(runs[i:end])
			if err != nil {
				return err
			}
			next = append(next, merged)
			i = end
		}
		c.runs = next
	}
	return nil
}

// Iterate walks the table in place when nothing spilled, and otherwise
// merges the runs with the table's residue. Closing the iterator releases
// both.
func (c *hashCollector) Iterate() (Iterator, error) {
	if c.used {
		return nil, errUsed
	}
	c.used = true
	for i := range c.groups {
		c.stats.MaxGroup = max(c.stats.MaxGroup, c.groups[i].total)
	}
	if c.file == nil {
		c.mem = c.drain()
		return c, nil
	}
	if err := c.canceled(); err != nil {
		return nil, err
	}
	if err := c.boundFanIn(); err != nil {
		return nil, err
	}
	h, err := c.open(c.runs)
	if err != nil {
		return nil, err
	}
	c.sortResident()
	return &merge{c: c, runs: h, resAt: -1}, nil
}

func (c *hashCollector) Next() (transport.Pair, bool, error) {
	p, ok := c.mem()
	return p, ok, nil
}

func (c *hashCollector) Close() {
	c.used = true
	if c.file != nil {
		c.file.Close()
		c.file = nil
	}
	c.slots, c.groups, c.resident, c.scratch, c.chunks = nil, nil, nil, nil, nil
	c.w, c.runs, c.cursors = nil, nil, nil
}

func (c *hashCollector) Stats() Stats { return c.stats }

// merge is a spilled collector's iteration: a group at a time, the
// smallest key among the runs' current frames and the table's residue,
// its values streamed from each run holding it in spill order, then from
// the residue — the arrival order of the group's pairs.
type merge struct {
	c    *hashCollector
	runs runHeap

	group []*cursor // the runs holding the current group, oldest first
	at    int       // the one being read
	res   bool      // the residue holds the current group too, after the runs

	rank  int   // the residue's next group, a rank in c.resident
	resAt int32 // the next residue pair of the current group, -1 when none

	calls int
}

// residue returns the residue's next group, nil at its end.
func (m *merge) residue() *hashGroup {
	if m.rank == len(m.c.resident) {
		return nil
	}
	return &m.c.groups[m.c.resident[m.rank]]
}

func (m *merge) Next() (transport.Pair, bool, error) {
	if m.calls++; m.calls%cancelCheckStride == 0 {
		if err := m.c.canceled(); err != nil {
			return transport.Pair{}, false, err
		}
	}
	for {
		if m.at < len(m.group) {
			cur := m.group[m.at]
			if cur.n > 0 {
				v, err := cur.value()
				if err != nil {
					return transport.Pair{}, false, err
				}
				return transport.Pair{Key: cur.key, Value: v}, true, nil
			}
			// The frame is done and its last value released: the run
			// moves on, its next key past this group's.
			ok, err := cur.nextFrame()
			if err != nil {
				return transport.Pair{}, false, err
			}
			if ok {
				m.runs.push(cur)
			}
			m.at++
			continue
		}
		if m.res {
			m.res = false
			m.resAt = m.c.take(m.residue())
			m.rank++
		}
		if m.resAt >= 0 {
			p := m.c.pair(m.resAt)
			m.resAt = p.next
			return p.Pair, true, nil
		}
		// The next group: the smallest key of the runs and the residue.
		g := m.residue()
		if len(m.runs) == 0 && g == nil {
			return transport.Pair{}, false, nil
		}
		cmp := -1
		if g != nil {
			cmp = 1
			if len(m.runs) > 0 {
				cmp = bytes.Compare(m.runs[0].key, g.key)
			}
		}
		m.group, m.at = m.group[:0], 0
		if cmp <= 0 {
			m.group = m.runs.popGroup(m.group)
		}
		m.res = cmp >= 0
	}
}

func (m *merge) Close() { m.c.Close() }
