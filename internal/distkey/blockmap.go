package distkey

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/exec"
)

// BlockMapper turns the chosen execution plan — a distribution key plus a
// clustering factor — into the mapper- and reducer-side key logic of
// Sections III-B.2 and III-C:
//
//   - Session.Walk enumerates, for a batch of raw records, the
//     distribution blocks each must be dispatched to (one block normally;
//     several when overlapping distribution duplicates the record into
//     neighbouring blocks) as integers, and Session.Key their keys;
//   - Owner identifies the unique block allowed to output a given result
//     region, implementing the reducer-side filter that removes duplicated
//     and incorrect results ("we only output a measure record in the
//     reducer when its associated region resides in the region specified
//     by the current group").
//
// With clustering factor cf, cf neighbouring key regions along each
// annotated attribute merge into one block: the region coordinate t maps
// to block coordinate t div cf, so "regions with neighboring time values
// will be assigned with the same key value".
//
// The paper restricts execution to a single annotated attribute; this
// mapper takes the cross product of per-attribute block ranges, with one
// clustering factor for every annotated attribute, so forced
// multi-annotated keys execute correctly too.
type BlockMapper struct {
	schema   *cube.Schema
	key      Key
	cf       int64
	annAttrs []int   // annotated attribute indices (possibly empty)
	annCards []int64 // key-level cardinality per annotated attribute
	// A block's ordinal weighs each block coordinate by its attribute's
	// stride (mixed radix, last attribute fastest); strides is nil when
	// the blocks, numBlocks of them, do not fit in 64 bits.
	strides   []uint64
	numBlocks uint64
}

// NewBlockMapper validates the plan and returns a mapper. cf must be ≥ 1
// and is only meaningful for overlapping keys (it must be 1 otherwise).
func NewBlockMapper(s *cube.Schema, key Key, cf int64) (*BlockMapper, error) {
	if len(key.Grain) != s.NumAttrs() || len(key.Anns) != s.NumAttrs() {
		return nil, fmt.Errorf("distkey: key arity does not match schema")
	}
	if cf < 1 {
		return nil, fmt.Errorf("distkey: clustering factor %d < 1", cf)
	}
	bm := &BlockMapper{schema: s, key: key.Clone(), cf: cf}
	for _, x := range key.AnnotatedAttrs() {
		if s.Attr(x).Kind() == cube.Nominal {
			return nil, fmt.Errorf("distkey: annotated attribute %q is nominal", s.Attr(x).Name())
		}
		bm.annAttrs = append(bm.annAttrs, x)
		bm.annCards = append(bm.annCards, s.Attr(x).CardAt(key.Grain[x]))
	}
	if len(bm.annAttrs) == 0 && cf != 1 {
		return nil, fmt.Errorf("distkey: clustering factor %d needs an annotated attribute", cf)
	}
	bm.strides, bm.numBlocks = make([]uint64, len(key.Grain)), 1
	for i := len(key.Grain) - 1; i >= 0 && bm.strides != nil; i-- {
		radix := uint64(s.Attr(i).CardAt(key.Grain[i]))
		if slices.Contains(bm.annAttrs, i) {
			radix = (radix + uint64(cf) - 1) / uint64(cf)
		}
		var carry uint64
		bm.strides[i] = bm.numBlocks
		if carry, bm.numBlocks = bits.Mul64(bm.numBlocks, radix); carry != 0 {
			bm.strides = nil
		}
	}
	return bm, nil
}

// Key returns the plan's distribution key.
func (bm *BlockMapper) Key() Key { return bm.key }

// ClusteringFactor returns the plan's clustering factor.
func (bm *BlockMapper) ClusteringFactor() int64 { return bm.cf }

// NumBlocks returns the number of distribution blocks the plan produces
// (the paper's n_G/cf for single-annotated overlapping keys), and false
// when it does not fit in 64 bits: such a plan's blocks have no ordinals.
func (bm *BlockMapper) NumBlocks() (uint64, bool) { return bm.numBlocks, bm.strides != nil }

// Stride is attribute x's weight in a block ordinal: the ordinal is the
// sum of each block coordinate times its attribute's stride.
func (bm *BlockMapper) Stride(x int) uint64 { return bm.strides[x] }

// AppendBlockKey appends to dst the key of the block with mixed-radix
// ordinal ord (Session.Walk's ordinal when NumBlocks fits).
func (bm *BlockMapper) AppendBlockKey(dst []byte, ord uint64) []byte {
	for _, w := range bm.strides {
		dst = binary.AppendUvarint(dst, ord/w)
		ord %= w
	}
	return dst
}

// ReplicationFactor estimates how many blocks an average record is copied
// to: the product over annotated attributes of (d_i+cf)/cf.
func (bm *BlockMapper) ReplicationFactor() float64 {
	r := 1.0
	for _, x := range bm.annAttrs {
		r *= float64(bm.key.Anns[x].Width()+bm.cf) / float64(bm.cf)
	}
	return r
}

// blockCoord fills dst with the block coordinates for key-grain
// coordinates src, applying the clustering division on every annotated
// attribute.
func (bm *BlockMapper) blockCoord(src, dst []int64) {
	copy(dst, src)
	for _, x := range bm.annAttrs {
		dst[x] = src[x] / bm.cf
	}
}

// Owner returns the key of the unique block allowed to output a measure
// record whose region is r, whose grain must be at least as fine as the
// key's (feasible keys generalize every measure grain); Session.Owns is
// the allocation-free test against a given block.
func (bm *BlockMapper) Owner(r cube.Region) string {
	ss := bm.NewSession()
	defer ss.Release()
	return string(ss.owner(r))
}

// maxInterned bounds a session's intern tables; past it the next Walk
// resets them wholesale (later keys just re-allocate).
const maxInterned = 1 << 17

// Session is the per-task scratch state for one BlockMapper user: the
// coordinate and block buffers, Walk's reused output, and an intern table
// of arena-backed block keys by block ordinal, behind a last-block fast
// path (records arrive clustered in practice), so a block's key is encoded
// once per session. Sessions come from interns and go back to it, their
// scratch and tables cleared, through Release.
//
// Interning contract: returned key slices are SHARED across calls and
// must be treated as immutable. Arena chunks are never reallocated or
// reused, so every key the session returned stays valid and byte-stable
// for its lifetime and after its Release: shuffle batches may retain them
// for the whole job. A Session is single-goroutine; the BlockMapper is
// read-only and may be shared by any number of sessions.
type Session struct {
	bm                     *BlockMapper
	coord, block, los, his []int64
	ords                   []uint64  // reused Walk output: block ordinals
	rows                   []int32   // reused Walk output: their records
	one                    [][]int64 // Blocks' batch of one record
	keys                   [][]byte  // reused Blocks output slice
	enc                    []byte    // reused block-coord encode buffer
	tag                    []byte    // prefixed to every key the session interns
	lastOrd                uint64    // the last ordinal Key served, and its key
	lastKey, arena         []byte    // arena: current chunk; old chunks stay live via interned keys
	arenaNext              int       // next chunk's capacity (geometric growth, capped)
	tables                 internTables
}

// internTables are a session's interned keys, byOrd by block ordinal and,
// for blocks without mixed-radix ordinals, byKey's session ordinals, made
// on first use. An entry weighs about 48 bytes; peak is the most they have
// held.
type internTables struct {
	byOrd map[uint64][]byte
	byKey map[string]uint64
	peak  int
}

// interns keeps released sessions, their tables and scratch, for the next
// task of any job and mapper.
var interns = exec.NewFreeList("distkey.interns", func(ss *Session) int {
	return 48*ss.tables.peak + 12*cap(ss.ords) + cap(ss.enc) + 24*cap(ss.keys) +
		8*(cap(ss.coord)+cap(ss.block)+cap(ss.los)+cap(ss.his)+cap(ss.one))
})

// NewSession returns per-task scratch state for bm, made of a released
// session when there is one; Release it when the task is done.
func (bm *BlockMapper) NewSession() *Session {
	ss, _ := interns.Get()
	if ss == nil {
		ss = new(Session)
	}
	n := bm.schema.NumAttrs()
	ss.bm, ss.lastKey = bm, nil
	ss.coord, ss.block = exec.Resize(ss.coord, n), exec.Resize(ss.block, n)
	ss.los, ss.his = exec.Resize(ss.los, len(bm.annAttrs)), exec.Resize(ss.his, len(bm.annAttrs))
	ss.one = exec.Resize(ss.one, n)
	for a := range ss.one {
		ss.one[a] = exec.Resize(ss.one[a], 1)
	}
	return ss
}

// Prefix makes every key the session interns start with tag, a shared
// scan's group tag. Call it before the first.
func (ss *Session) Prefix(tag []byte) { ss.tag = tag }

func (ss *Session) interned() *internTables {
	if t := &ss.tables; t.byOrd == nil {
		t.byOrd, t.byKey = map[uint64][]byte{}, map[string]uint64{}
	}
	return &ss.tables
}

func (t *internTables) reset() {
	t.peak = max(t.peak, len(t.byOrd)+len(t.byKey))
	clear(t.byOrd)
	clear(t.byKey)
}

// Release gives the session back once the task is done: the keys handed
// out stay valid in the arena, which the session lets go of; the session
// is invalid after it.
func (ss *Session) Release() {
	ss.tables.reset()
	clear(ss.keys[:cap(ss.keys)])
	ss.bm, ss.tag, ss.lastKey, ss.arena, ss.arenaNext = nil, nil, nil, nil, 0
	ss.ords, ss.rows, ss.keys = ss.ords[:0], ss.rows[:0], ss.keys[:0]
	interns.Put(ss)
}

// Arena chunks grow geometrically from arenaChunkMin to arenaChunkMax: a
// session interning a handful of keys costs hundreds of bytes, a
// key-dense one converges to one make per 64KiB of distinct key bytes.
const (
	arenaChunkMin = 256
	arenaChunkMax = 1 << 16
)

// arenaCopy copies b into the session arena and returns the stable copy.
// A full chunk is abandoned, kept alive by the keys into it: chunks never
// grow in place, so handed-out keys never move.
func (ss *Session) arenaCopy(b []byte) []byte {
	if cap(ss.arena)-len(ss.arena) < len(b) {
		size := max(ss.arenaNext, arenaChunkMin)
		ss.arenaNext = min(size*2, arenaChunkMax)
		ss.arena = make([]byte, 0, max(size, len(b)))
	}
	start := len(ss.arena)
	ss.arena = append(ss.arena, b...)
	return ss.arena[start:len(ss.arena):len(ss.arena)]
}

// Walk computes the distribution blocks of a batch of records held
// column-major (cols[c][i] is record i's value of attribute c): pairs
// (ords[k], rows[k]), block ords[k] for record rows[k], in record order,
// each record's home block — the one whose key is "generated without
// being adjusted with a delta value" — before the neighbouring blocks
// overlapping plans add. Both slices are reused by the next Walk. An
// ordinal is the block's mixed-radix number (AppendBlockKey) when
// NumBlocks fits in 64 bits, else a number the session gives the block on
// first sight; Key returns its key either way.
func (ss *Session) Walk(cols [][]int64) (ords []uint64, rows []int32) {
	bm := ss.bm
	if len(ss.tables.byOrd) >= maxInterned {
		ss.tables.reset()
		ss.lastKey = nil
	}
	ss.ords, ss.rows = ss.ords[:0], ss.rows[:0]
	if bm.strides == nil || len(bm.annAttrs) > 0 {
		for i := range cols[0] {
			for a, level := range bm.key.Grain {
				ss.coord[a] = bm.schema.Attr(a).Roll(cols[a][i], level)
			}
			ss.walk(int32(i))
		}
		return ss.ords, ss.rows
	}
	// Home blocks only: each key attribute's rolled column, weighed by its
	// stride, is summed into the ordinals column by column.
	ss.ords = slices.Grow(ss.ords, len(cols[0]))[:len(cols[0])]
	clear(ss.ords)
	for a, level := range bm.key.Grain {
		if attr := bm.schema.Attr(a); level != attr.AllIndex() {
			for i, v := range cols[a] {
				ss.ords[i] += uint64(attr.Roll(v, level)) * bm.strides[a]
			}
		}
	}
	for i := range ss.ords {
		ss.rows = append(ss.rows, int32(i))
	}
	return ss.ords, ss.rows
}

// walk appends record row's blocks, from its key coordinates in ss.coord.
func (ss *Session) walk(row int32) {
	bm := ss.bm
	bm.blockCoord(ss.coord, ss.block)
	home := len(ss.ords)
	ss.add(row, home)
	// Per annotated attribute X with annotation (Low, High): the record
	// at key coordinate t is input to output regions at key coordinates
	// c ∈ [t−High, t−Low], and goes to the cross product of the blocks
	// covering those ranges.
	for i, x := range bm.annAttrs {
		ann := bm.key.Anns[x]
		t := ss.coord[x]
		lo, hi := max(t-ann.High, 0), min(t-ann.Low, bm.annCards[i]-1)
		if lo > hi { // no output coordinate along x: nothing beyond the home block
			return
		}
		ss.los[i], ss.his[i] = floorDiv(lo, bm.cf), floorDiv(hi, bm.cf)
	}
	// Odometer walk over the cross product of the per-attribute ranges,
	// last annotated attribute fastest.
	for i, x := range bm.annAttrs {
		ss.block[x] = ss.los[i]
	}
	for {
		ss.add(row, home)
		i := len(bm.annAttrs) - 1
		for ; i >= 0; i-- {
			x := bm.annAttrs[i]
			if ss.block[x] < ss.his[i] {
				ss.block[x]++
				break
			}
			ss.block[x] = ss.los[i]
		}
		if i < 0 {
			return
		}
	}
}

// add appends the block in ss.block for row unless it is the row's home
// block, ss.ords[home], which the walk adds first. A block without a
// mixed-radix ordinal is interned here, under the next session ordinal.
func (ss *Session) add(row int32, home int) {
	var o uint64
	if ss.bm.strides != nil {
		for i, w := range ss.bm.strides {
			o += uint64(ss.block[i]) * w
		}
	} else {
		ss.enc = cube.AppendCoords(append(ss.enc[:0], ss.tag...), ss.block)
		t := ss.interned()
		var ok bool
		if o, ok = t.byKey[string(ss.enc)]; !ok {
			o = uint64(len(t.byKey))
			k := ss.arenaCopy(ss.enc)
			t.byKey[string(k)], t.byOrd[o] = o, k
		}
	}
	if len(ss.ords) == home || o != ss.ords[home] {
		ss.ords, ss.rows = append(ss.ords, o), append(ss.rows, row)
	}
}

// Key returns the interned key of the block Walk numbered ord.
func (ss *Session) Key(ord uint64) []byte {
	if ss.lastKey == nil || ord != ss.lastOrd {
		t := ss.interned()
		k, ok := t.byOrd[ord]
		if !ok {
			ss.enc = ss.bm.AppendBlockKey(append(ss.enc[:0], ss.tag...), ord)
			k = ss.arenaCopy(ss.enc)
			t.byOrd[ord] = k
		}
		ss.lastOrd, ss.lastKey = ord, k
	}
	return ss.lastKey
}

// Blocks returns the keys of rec's blocks, Walk over a batch of one; the
// outer slice is reused by the next call, the keys are Key's.
func (ss *Session) Blocks(rec cube.Record) [][]byte {
	for a, col := range ss.one {
		col[0] = rec[a]
	}
	ords, _ := ss.Walk(ss.one)
	ss.keys = ss.keys[:0]
	for _, o := range ords {
		ss.keys = append(ss.keys, ss.Key(o))
	}
	return ss.keys
}

// Owns reports whether blockKey is BlockMapper.Owner's block for region
// r, a region computed from the records shuffled to blockKey: the
// reduce-side ownership filter. The owner's key is encoded into session
// scratch and compared, never interned, so a reducer that sees thousands
// of blocks allocates and retains nothing for them.
//
// Ownership is a property of the key. A key with no annotated attribute
// ships every record to its home block alone, so nothing is duplicated
// and every region a block's records yield, at any grain the key
// generalizes, rolls up to that block: the block owns all it computes,
// and Owns answers without encoding an owner.
func (ss *Session) Owns(r cube.Region, blockKey []byte) bool {
	if len(ss.bm.annAttrs) == 0 {
		return true
	}
	return bytes.Equal(ss.owner(r), blockKey)
}

// owner encodes the key of r's owning block into session scratch.
func (ss *Session) owner(r cube.Region) []byte {
	bm := ss.bm
	for i := range ss.coord {
		ss.coord[i] = bm.schema.Attr(i).RollBetween(r.Coord[i], r.Grain[i], bm.key.Grain[i])
	}
	bm.blockCoord(ss.coord, ss.block)
	ss.enc = cube.AppendCoords(ss.enc[:0], ss.block)
	return ss.enc
}
