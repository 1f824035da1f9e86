package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"

	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/distkey"
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
// slab, integer keys, a switch on the aggregate kind instead of an
// interface call — and a record is probed once per distinct basic grain,
// not once per basic measure. Records arrive a batch of columns at a time,
// and each grain's region ordinals are summed column by column before the
// probes. Blocks and regions stay ordinals of their mixed-radix spaces
// (distkey.BlockMapper) until the flush ships them, sorted on integers.

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
// grouped by grain.
type earlyAggPlan struct {
	arity  int
	grains []aggGrain
	// byBasic locates basic measure i — its grain and its state's position
	// among that grain's states — for the flush, which emits in basic order.
	byBasic []aggBasicAt
}

// aggGrain is one distinct grain among the basics. Basics at one grain see
// the same region for every record, so they share one table entry. Its
// regions are the blocks of the grain's unannotated key: space numbers
// them, and live weighs the attributes the grain does not roll up to ALL.
type aggGrain struct {
	space  *distkey.BlockMapper
	live   []aggAttr
	basics []aggBasic
}

type aggAttr struct {
	attr     *cube.Attribute
	a, level int
	stride   uint64
}

type aggBasicAt struct{ grain, pos int }

type aggBasic struct {
	idx   int // index among the workflow's basics: the payload's basic index
	kind  measure.FlatKind
	input int // schema attribute aggregated, -1 for COUNT over records
}

// newEarlyAggPlan groups the basics by grain. It returns nil when some
// grain has more regions than 64 bits number: a job with such a basic
// ships its records.
func newEarlyAggPlan(s *cube.Schema, basics []*workflow.Measure) *earlyAggPlan {
	p := &earlyAggPlan{arity: s.NumAttrs(), byBasic: make([]aggBasicAt, len(basics))}
	for i, b := range basics {
		kind, ok := b.Agg.FlatKind()
		if !ok {
			// earlyFor admits a workflow only when every basic is mergeable.
			panic(fmt.Sprintf("core: holistic measure %q reached the combiner", b.Name))
		}
		gi := slices.IndexFunc(p.grains, func(g aggGrain) bool { return g.space.Key().Grain.Equal(b.Grain) })
		if gi < 0 {
			space, err := distkey.NewBlockMapper(s, distkey.FromGrain(b.Grain), 1)
			if err != nil {
				return nil
			}
			if _, fits := space.NumBlocks(); !fits {
				return nil
			}
			g := aggGrain{space: space}
			for a, level := range b.Grain {
				if level != s.Attr(a).AllIndex() {
					g.live = append(g.live, aggAttr{attr: s.Attr(a), a: a, level: level, stride: space.Stride(a)})
				}
			}
			gi = len(p.grains)
			p.grains = append(p.grains, g)
		}
		g := &p.grains[gi]
		p.byBasic[i] = aggBasicAt{grain: gi, pos: len(g.basics)}
		g.basics = append(g.basics, aggBasic{idx: i, kind: kind, input: b.InputAttr})
	}
	return p
}

// newCombiner returns the combiner of one map task; bm numbers its blocks.
func (p *earlyAggPlan) newCombiner(bm *distkey.BlockMapper, st *mr.MapTaskStats) *earlyAggCombiner {
	return &earlyAggCombiner{plan: p, blocks: bm, st: st}
}

// aggTables recycles emptied tables, buffers and all, across the map tasks
// of every combining job: nothing a table holds belongs to one plan.
var aggTables = sync.Pool{New: func() any {
	return &aggTable{index: make([]uint32, aggMinIndex), bindex: make([]uint32, aggMinIndex)}
}}

// earlyAggCombiner is one map task's streaming early-aggregation combiner
// (mr.Combiner), keyed by block ordinal. It holds a table only between its
// first fold and the flush that follows: a flush hands the emptied table
// back to aggTables, where the next map task of this job or another — or
// this one, after a LocalAggBudget spill — picks it up.
type earlyAggCombiner struct {
	plan   *earlyAggPlan
	blocks *distkey.BlockMapper
	st     *mr.MapTaskStats
	t      *aggTable
}

// aggTable is the flat table: two open-addressed indexes (linear probing,
// load ≤ ½, ordinal + 1 per cell) over two arrays. A block is a distinct
// block ordinal, so an entry names its block by position and the flush
// ranks blocks once instead of comparing their bytes in every sort step.
// An entry is a (block, grain, region ordinal); its states, one per basic
// of its grain, are slab[slot:slot+len(grain.basics)]. The flush decodes
// each block's key and each entry's region, in AppendCoords form, into
// keys: what it sorts by and ships.
type aggTable struct {
	index   []uint32
	entries []aggEntry
	bindex  []uint32
	blocks  []aggBlock
	keys    []byte
	slab    []measure.FlatState

	// Fold's region ordinals, one run per grain, and the flush's
	// orderings (spare is the radix sort's second buffer): scratch,
	// recycled with the rest.
	regions []uint64
	border  []uint32
	order   []aggSortKey
	spare   []aggSortKey
	// last is the position + 1 of the block the last fold probed, 0 when
	// none: a run of pairs of one block skips blockFor.
	last    uint32
	lastOrd uint64
}

type aggEntry struct {
	region           uint64
	blk, grain, slot uint32
	off, n           uint32 // region bytes in keys; set by the flush
}

type aggBlock struct {
	ord          uint64
	off, n, rank uint32 // key bytes in keys, position among the table's blocks in key order; set by the flush
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
var aggSeed = rand.Uint64()

// aggHash mixes a seeded integer key (murmur3's 64-bit finalizer).
func aggHash(x uint64) uint64 {
	x ^= aggSeed
	x = (x ^ x>>33) * 0xff51afd7ed558ccd
	x = (x ^ x>>33) * 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

func entryHash(blk, grain uint32, region uint64) uint64 {
	return aggHash(region ^ uint64(blk)<<40 ^ uint64(grain)<<32)
}

func (t *aggTable) region(e *aggEntry) []byte { return t.keys[e.off : e.off+e.n] }
func (t *aggTable) block(blk uint32) []byte {
	b := &t.blocks[blk]
	return t.keys[b.off : b.off+b.n]
}

// slotFor returns the first state of the entry (blk, grain, region),
// creating it, with that many zeroed states, if the table has none.
func (t *aggTable) slotFor(blk, grain uint32, region uint64, states int) (slot uint32, found bool) {
	mask := uint64(len(t.index) - 1)
	i := entryHash(blk, grain, region) & mask
	for ; t.index[i] != 0; i = (i + 1) & mask {
		if e := &t.entries[t.index[i]-1]; e.region == region && e.blk == blk && e.grain == grain {
			return e.slot, true
		}
	}
	slot = uint32(len(t.slab))
	t.entries = append(t.entries, aggEntry{region: region, blk: blk, grain: grain, slot: slot})
	for k := 0; k < states; k++ {
		t.slab = append(t.slab, measure.FlatState{})
	}
	t.index[i] = uint32(len(t.entries))
	if 2*len(t.entries) > len(t.index) {
		t.index = make([]uint32, 2*len(t.index))
		for n, e := range t.entries {
			seat(t.index, entryHash(e.blk, e.grain, e.region), n)
		}
	}
	return slot, false
}

// blockFor returns the position of block ordinal ord, adding it if new.
func (t *aggTable) blockFor(ord uint64) uint32 {
	mask := uint64(len(t.bindex) - 1)
	i := aggHash(ord) & mask
	for ; t.bindex[i] != 0; i = (i + 1) & mask {
		if blk := t.bindex[i] - 1; t.blocks[blk].ord == ord {
			return blk
		}
	}
	t.blocks = append(t.blocks, aggBlock{ord: ord})
	t.bindex[i] = uint32(len(t.blocks))
	if 2*len(t.blocks) > len(t.bindex) {
		t.bindex = make([]uint32, 2*len(t.bindex))
		for n := range t.blocks {
			seat(t.bindex, aggHash(t.blocks[n].ord), n)
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
	t.last = 0
}

func (c *earlyAggCombiner) table() *aggTable {
	if c.t == nil {
		c.t = aggTables.Get().(*aggTable)
	}
	return c.t
}

// Fold folds the pairs (blocks[k], record rows[k] of b) into their blocks'
// partial states: one probe per distinct basic grain, at the region
// ordinal its rolled columns sum to, and one switch per basic measure. It
// stops right after the pair that brings Len to budget.
func (c *earlyAggCombiner) Fold(b mr.Batch, blocks []uint64, rows []int32, budget int) (int, int, error) {
	p, t := c.plan, c.table()
	if len(b.Cols) != p.arity {
		return 0, 0, fmt.Errorf("core: record of arity %d, schema has %d attributes", len(b.Cols), p.arity)
	}
	// Region ordinals for the records the pairs span, one run per grain.
	lo := int(rows[0])
	span := int(rows[len(rows)-1]) + 1 - lo
	t.regions = slices.Grow(t.regions[:0], len(p.grains)*span)[:len(p.grains)*span]
	clear(t.regions)
	for gi := range p.grains {
		regions := t.regions[gi*span : (gi+1)*span]
		for _, x := range p.grains[gi].live {
			for i, v := range b.Cols[x.a][lo : lo+span] {
				regions[i] += uint64(x.attr.Roll(v, x.level)) * x.stride
			}
		}
	}
	hits := 0
	for k, ord := range blocks {
		if t.last == 0 || ord != t.lastOrd {
			t.last, t.lastOrd = t.blockFor(ord)+1, ord
		}
		row := int(rows[k])
		grew := false
		for gi := range p.grains {
			g := &p.grains[gi]
			slot, found := t.slotFor(t.last-1, uint32(gi), t.regions[gi*span+row-lo], len(g.basics))
			if found {
				c.st.CombineMerges += int64(len(g.basics))
			}
			grew = grew || !found
			states := t.slab[slot : int(slot)+len(g.basics)]
			for j, bs := range g.basics {
				v := 0.0
				if bs.input >= 0 {
					v = float64(b.Cols[bs.input][row])
				}
				states[j].Add(bs.kind, v)
			}
		}
		if !grew {
			hits++
		}
		if len(t.slab) >= budget {
			return k + 1, hits, nil
		}
	}
	return len(blocks), hits, nil
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
// table. The entries are ordered by an LSD radix sort over the integers
// that decide that order (radixSort), or by comparison when some region
// is too long for them to. The shuffle retains what it is handed until the
// job ends, so all of a flush's keys and payloads are carved from one
// exact-size allocation; the table's own arenas never leave it.
func (c *earlyAggCombiner) Flush(emit func(key, value []byte) error) error {
	t := c.t
	if t == nil {
		return nil
	}
	c.t = nil
	defer func() {
		t.reset()
		aggTables.Put(t)
	}()
	p := c.plan

	// Decode each block's key once, rank the blocks by it, then decode
	// each entry's region and sort the entries on integers.
	t.border = t.border[:0]
	for blk := range t.blocks {
		b := &t.blocks[blk]
		b.off = uint32(len(t.keys))
		t.keys = c.blocks.AppendBlockKey(t.keys, b.ord)
		b.n = uint32(len(t.keys)) - b.off
		t.border = append(t.border, uint32(blk))
	}
	slices.SortFunc(t.border, func(a, b uint32) int { return bytes.Compare(t.block(a), t.block(b)) })
	for rank, blk := range t.border {
		t.blocks[blk].rank = uint32(rank)
	}
	t.order = t.order[:0]
	size, long := 0, false
	for n := range t.entries {
		e := &t.entries[n]
		e.off = uint32(len(t.keys))
		t.keys = p.grains[e.grain].space.AppendBlockKey(t.keys, e.region)
		e.n = uint32(len(t.keys)) - e.off
		region := t.region(e)
		long = long || len(region) > 8
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
	order := t.order
	if long {
		slices.SortFunc(order, func(a, b aggSortKey) int {
			if a.hi != b.hi {
				return cmp.Compare(a.hi, b.hi)
			}
			if a.prefix != b.prefix {
				return cmp.Compare(a.prefix, b.prefix)
			}
			return bytes.Compare(t.region(&t.entries[a.entry]), t.region(&t.entries[b.entry]))
		})
	} else {
		t.spare = slices.Grow(t.spare[:0], len(order))[:len(order)]
		order = radixSort(order, t.spare)
	}

	out := make([]byte, 0, size)
	for lo := 0; lo < len(order); {
		// One block's run, and one key slice for all of its pairs.
		rank := order[lo].hi >> 32
		hi := lo
		for hi < len(order) && order[hi].hi>>32 == rank {
			hi++
		}
		run := order[lo:hi]
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

// radixSort sorts keys by (hi, prefix) with a stable LSD radix sort over
// their sixteen bytes, prefix's lowest byte first, skipping every byte all
// keys share — most of them: hi is a block rank and a grain, prefix a
// region's first bytes. tmp is a second buffer of len(keys); the result is
// in one of the two. While every region fits in its eight-byte prefix,
// distinct entries have distinct keys (a grain's regions are the same
// number of varints, which no zero padding can make collide), so this is
// the comparison order.
func radixSort(keys, tmp []aggSortKey) []aggSortKey {
	var or, and [2]uint64
	and[0], and[1] = ^uint64(0), ^uint64(0)
	for _, k := range keys {
		or[0], and[0] = or[0]|k.prefix, and[0]&k.prefix
		or[1], and[1] = or[1]|k.hi, and[1]&k.hi
	}
	for d := 0; d < 16; d++ {
		w, shift := d/8, uint(d%8)*8
		if (or[w]^and[w])>>shift&0xff == 0 {
			continue
		}
		digit := func(k *aggSortKey) uint64 {
			if w == 0 {
				return k.prefix >> shift & 0xff
			}
			return k.hi >> shift & 0xff
		}
		var pos [256]int
		for i := range keys {
			pos[digit(&keys[i])]++
		}
		sum := 0
		for v, n := range pos {
			pos[v], sum = sum, sum+n
		}
		for i := range keys {
			v := digit(&keys[i])
			tmp[pos[v]] = keys[i]
			pos[v]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}
