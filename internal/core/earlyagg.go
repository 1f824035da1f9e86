package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"slices"
	"sync"

	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/localeval"
	"github.com/casm-project/casm/internal/measure"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/recio"
	"github.com/casm-project/casm/internal/workflow"
)

// Map-side early aggregation (paper Section III-D): a combining job's map
// tasks fold every (block, record) into per-(block, basic measure, region)
// partial states and ship those instead of the records. The states live in
// one flat table per task — after Leis et al.'s thread-local
// pre-aggregation: an open-addressing index over fixed-width states in a
// slab, keys in one byte arena, a switch on the aggregate kind instead of
// an interface call — and a record is probed once per distinct basic
// grain, not once per basic measure.

// partialTag prefixes early-aggregation payloads.
const partialTag = 1

// appendPartialHeader appends a partial payload up to its state bytes:
// the tag, the basic measure's index, and the region's AppendCoords form.
func appendPartialHeader(dst []byte, basicIdx int, region []byte) []byte {
	dst = append(dst, partialTag)
	dst = binary.AppendUvarint(dst, uint64(basicIdx))
	dst = binary.AppendUvarint(dst, uint64(len(region)))
	return append(dst, region...)
}

// splitPartial slices a partial payload into its parts without decoding
// the coordinates; ck and state alias b. Its errors, like those of the
// session that merges the parts, wrap localeval.ErrCorruptValue.
func splitPartial(b []byte) (int, []byte, []byte, error) {
	if len(b) < 2 || b[0] != partialTag {
		return 0, nil, nil, fmt.Errorf("%w: not a partial payload", localeval.ErrCorruptValue)
	}
	b = b[1:]
	idx, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, nil, fmt.Errorf("%w: corrupt partial index", localeval.ErrCorruptValue)
	}
	b = b[n:]
	ckLen, n := binary.Uvarint(b)
	if n <= 0 || uint64(len(b[n:])) < ckLen {
		return 0, nil, nil, fmt.Errorf("%w: corrupt partial coords", localeval.ErrCorruptValue)
	}
	b = b[n:]
	return int(idx), b[:ckLen], b[ckLen:], nil
}

// earlyAggPlan is what the combiners of one job share: the basic measures
// grouped by grain, and the tables its finished flushes left behind.
type earlyAggPlan struct {
	s      *cube.Schema
	arity  int
	grains []aggGrain
	// byBasic locates basic measure i — its grain and its state's position
	// among that grain's states — for the flush, which emits in basic order.
	byBasic []aggBasicAt

	mu   sync.Mutex
	free []*aggTable
}

// aggGrain is one distinct grain among the basics. Basics at one grain see
// the same region for every record, so they share one table entry.
type aggGrain struct {
	grain  cube.Grain
	basics []aggBasic
}

type aggBasicAt struct{ grain, pos int }

type aggBasic struct {
	idx   int // index among the workflow's basics: the payload's basic index
	kind  measure.FlatKind
	input int // schema attribute aggregated, -1 for COUNT over records
}

func newEarlyAggPlan(s *cube.Schema, basics []*workflow.Measure) *earlyAggPlan {
	p := &earlyAggPlan{s: s, arity: s.NumAttrs(), byBasic: make([]aggBasicAt, len(basics))}
	for i, b := range basics {
		kind, ok := b.Agg.FlatKind()
		if !ok {
			// earlyFor admits a workflow only when every basic is mergeable.
			panic(fmt.Sprintf("core: holistic measure %q reached the combiner", b.Name))
		}
		gi := slices.IndexFunc(p.grains, func(g aggGrain) bool { return g.grain.Equal(b.Grain) })
		if gi < 0 {
			gi = len(p.grains)
			p.grains = append(p.grains, aggGrain{grain: b.Grain})
		}
		g := &p.grains[gi]
		p.byBasic[i] = aggBasicAt{grain: gi, pos: len(g.basics)}
		g.basics = append(g.basics, aggBasic{idx: i, kind: kind, input: b.InputAttr})
	}
	return p
}

// newCombiner returns the combiner of one map task.
func (p *earlyAggPlan) newCombiner(st *mr.MapTaskStats) *earlyAggCombiner {
	return &earlyAggCombiner{plan: p, st: st}
}

// newEarlyAggCombiner is a one-task plan's combiner.
func newEarlyAggCombiner(s *cube.Schema, basics []*workflow.Measure, st *mr.MapTaskStats) *earlyAggCombiner {
	return newEarlyAggPlan(s, basics).newCombiner(st)
}

func (p *earlyAggPlan) getTable() *aggTable {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		t := p.free[n-1]
		p.free = p.free[:n-1]
		return t
	}
	return &aggTable{
		index:  make([]uint32, aggMinIndex),
		bindex: make([]uint32, aggMinIndex),
		coord:  make([]int64, p.arity),
	}
}

func (p *earlyAggPlan) putTable(t *aggTable) {
	p.mu.Lock()
	p.free = append(p.free, t)
	p.mu.Unlock()
}

// earlyAggCombiner is one map task's streaming early-aggregation combiner
// (mr.Combiner). It holds a table only between its first fold and the
// flush that follows: a flush hands the emptied table, buffers and all,
// back to the plan, where the job's next map task — or this one, after a
// LocalAggBudget spill — picks it up.
type earlyAggCombiner struct {
	plan *earlyAggPlan
	st   *mr.MapTaskStats
	t    *aggTable
}

// aggTable is the flat table: two open-addressed indexes (linear probing,
// load ≤ ½, ordinal + 1 per cell) over two arrays. A block is a distinct
// block key, interned on the first entry that needs it, so an entry names
// its block by ordinal and the flush ranks blocks once instead of comparing
// their bytes in every sort step. An entry is a (block, grain, region): its
// key bytes in keys are the region in AppendCoords form — what the flush
// sorts by and ships — and its states, one per basic of its grain, are
// slab[slot:slot+len(grain.basics)].
type aggTable struct {
	index   []uint32
	entries []aggEntry
	bindex  []uint32
	blocks  []aggBlock
	keys    []byte
	slab    []measure.FlatState

	// Per-fold scratch and the flush's orderings, recycled with the rest.
	coord  []int64
	key    []byte
	border []uint32
	order  []aggSortKey
}

type aggEntry struct {
	hash   uint64
	off, n uint32 // region bytes in keys
	blk    uint32
	grain  uint32
	slot   uint32
}

type aggBlock struct {
	hash   uint64
	off, n uint32 // block key bytes in keys
	rank   uint32 // position among the table's blocks in key order; set by the flush
}

// aggSortKey orders one entry in the flush without touching the table:
// block rank and grain in hi, the first eight region bytes (big-endian,
// zero-padded) in prefix. Regions are a few small varints, so the prefix
// almost always decides; a tie falls back to the bytes.
type aggSortKey struct {
	hi, prefix uint64
	entry      uint32
}

const aggMinIndex = 1 << 10

// aggSeed keys the table's hashes. Probe order depends on it; nothing
// observable does — the flush sorts.
var aggSeed = maphash.MakeSeed()

func (t *aggTable) region(e *aggEntry) []byte { return t.keys[e.off : e.off+e.n] }
func (t *aggTable) block(blk uint32) []byte {
	b := &t.blocks[blk]
	return t.keys[b.off : b.off+b.n]
}

// slotFor returns the first state of the entry for key — the block key
// (blen bytes) followed by the encoded region — at the grain, creating
// the entry, with that many zeroed states, if the table has none.
func (t *aggTable) slotFor(key []byte, blen, grain, states int) (slot uint32, found bool) {
	h := maphash.Bytes(aggSeed, key) ^ uint64(grain)*0x9E3779B97F4A7C15
	mask := uint64(len(t.index) - 1)
	i := h & mask
	for ; t.index[i] != 0; i = (i + 1) & mask {
		e := &t.entries[t.index[i]-1]
		if e.hash == h && e.grain == uint32(grain) &&
			bytes.Equal(t.region(e), key[blen:]) && bytes.Equal(t.block(e.blk), key[:blen]) {
			return e.slot, true
		}
	}
	blk := t.blockFor(key[:blen]) // may append to keys: before the region's offset is taken
	slot = uint32(len(t.slab))
	t.entries = append(t.entries, aggEntry{hash: h, off: uint32(len(t.keys)), n: uint32(len(key) - blen),
		blk: blk, grain: uint32(grain), slot: slot})
	t.keys = append(t.keys, key[blen:]...)
	for k := 0; k < states; k++ {
		t.slab = append(t.slab, measure.FlatState{})
	}
	t.index[i] = uint32(len(t.entries))
	if 2*len(t.entries) > len(t.index) {
		t.index = make([]uint32, 2*len(t.index))
		for n := range t.entries {
			seat(t.index, t.entries[n].hash, n)
		}
	}
	return slot, false
}

// blockFor interns a block key.
func (t *aggTable) blockFor(key []byte) uint32 {
	h := maphash.Bytes(aggSeed, key)
	mask := uint64(len(t.bindex) - 1)
	i := h & mask
	for ; t.bindex[i] != 0; i = (i + 1) & mask {
		if blk := t.bindex[i] - 1; t.blocks[blk].hash == h && bytes.Equal(t.block(blk), key) {
			return blk
		}
	}
	t.blocks = append(t.blocks, aggBlock{hash: h, off: uint32(len(t.keys)), n: uint32(len(key))})
	t.keys = append(t.keys, key...)
	t.bindex[i] = uint32(len(t.blocks))
	if 2*len(t.blocks) > len(t.bindex) {
		t.bindex = make([]uint32, 2*len(t.bindex))
		for n := range t.blocks {
			seat(t.bindex, t.blocks[n].hash, n)
		}
	}
	return uint32(len(t.blocks) - 1)
}

// seat places ordinal n in a free cell of a grown index.
func seat(index []uint32, hash uint64, n int) {
	mask := uint64(len(index) - 1)
	i := hash & mask
	for index[i] != 0 {
		i = (i + 1) & mask
	}
	index[i] = uint32(n + 1)
}

func (t *aggTable) reset() {
	clear(t.index)
	clear(t.bindex)
	t.entries, t.blocks, t.keys, t.slab = t.entries[:0], t.blocks[:0], t.keys[:0], t.slab[:0]
}

func (c *earlyAggCombiner) table() *aggTable {
	if c.t == nil {
		c.t = c.plan.getTable()
	}
	return c.t
}

// Add folds one record into the block's partial states: one probe per
// distinct basic grain, one switch per basic measure.
func (c *earlyAggCombiner) Add(blockKey []byte, rec []int64) error {
	p, t := c.plan, c.table()
	if len(rec) != p.arity {
		return fmt.Errorf("core: record of arity %d, schema has %d attributes", len(rec), p.arity)
	}
	for gi := range p.grains {
		g := &p.grains[gi]
		p.s.CoordOf(rec, g.grain, t.coord)
		t.key = cube.AppendCoords(append(t.key[:0], blockKey...), t.coord)
		slot, found := t.slotFor(t.key, len(blockKey), gi, len(g.basics))
		if found {
			c.st.CombineMerges += int64(len(g.basics))
		}
		states := t.slab[slot : int(slot)+len(g.basics)]
		for j, b := range g.basics {
			v := 0.0
			if b.input >= 0 {
				v = float64(rec[b.input])
			}
			states[j].Add(b.kind, v)
		}
	}
	return nil
}

// Len is the number of buffered partial states: one per (block, basic
// measure, region), however many of them share an entry.
func (c *earlyAggCombiner) Len() int {
	if c.t == nil {
		return 0
	}
	return len(c.t.slab)
}

// Flush emits every partial state — blocks in ascending key order, and
// within a block in (basic index, encoded region) byte order, so the
// shuffle byte stream never depends on probe order — then recycles the
// table. The shuffle retains what it is handed until the job ends, so all
// of a flush's keys and payloads are carved from one exact-size
// allocation; the table's own arenas never leave it.
func (c *earlyAggCombiner) Flush(emit func(key, value []byte) error) error {
	t := c.t
	if t == nil {
		return nil
	}
	c.t = nil
	defer func() {
		t.reset()
		c.plan.putTable(t)
	}()
	p := c.plan

	// Rank the blocks by key bytes, then sort the entries on integers.
	t.border = t.border[:0]
	for blk := range t.blocks {
		t.border = append(t.border, uint32(blk))
	}
	slices.SortFunc(t.border, func(a, b uint32) int { return bytes.Compare(t.block(a), t.block(b)) })
	for rank, blk := range t.border {
		t.blocks[blk].rank = uint32(rank)
	}
	t.order = t.order[:0]
	size := 0
	for n := range t.entries {
		e := &t.entries[n]
		region := t.region(e)
		var prefix [8]byte
		copy(prefix[:], region)
		t.order = append(t.order, aggSortKey{
			hi:     uint64(t.blocks[e.blk].rank)<<32 | uint64(e.grain),
			prefix: binary.BigEndian.Uint64(prefix[:]),
			entry:  uint32(n),
		})
		for j, b := range p.grains[e.grain].basics {
			size += 1 + recio.UvarintLen(uint64(b.idx)) + recio.UvarintLen(uint64(len(region))) + len(region) +
				t.slab[int(e.slot)+j].StateLen(b.kind)
		}
	}
	for blk := range t.blocks {
		size += int(t.blocks[blk].n)
	}
	slices.SortFunc(t.order, func(a, b aggSortKey) int {
		if a.hi != b.hi {
			return cmp.Compare(a.hi, b.hi)
		}
		if a.prefix != b.prefix {
			return cmp.Compare(a.prefix, b.prefix)
		}
		return bytes.Compare(t.region(&t.entries[a.entry]), t.region(&t.entries[b.entry]))
	})

	out := make([]byte, 0, size)
	for lo := 0; lo < len(t.order); {
		// One block's run, and one key slice for all of its pairs.
		rank := t.order[lo].hi >> 32
		hi := lo
		for hi < len(t.order) && t.order[hi].hi>>32 == rank {
			hi++
		}
		run := t.order[lo:hi]
		lo = hi
		out = append(out, t.block(t.border[rank])...)
		blockKey := out[len(out)-int(t.blocks[t.border[rank]].n) : len(out) : len(out)]
		// The run is sorted by grain, then region: a basic's entries are the
		// contiguous stretch at its grain, and basics emit in index order.
		for i, at := range p.byBasic {
			kind := p.grains[at.grain].basics[at.pos].kind
			first, _ := slices.BinarySearchFunc(run, uint32(at.grain), func(k aggSortKey, g uint32) int {
				return cmp.Compare(uint32(k.hi), g)
			})
			for _, k := range run[first:] {
				if uint32(k.hi) != uint32(at.grain) {
					break
				}
				e := &t.entries[k.entry]
				start := len(out)
				out = appendPartialHeader(out, i, t.region(e))
				out = t.slab[int(e.slot)+at.pos].AppendState(out, kind)
				if err := emit(blockKey, out[start:len(out):len(out)]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
