package distkey

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"github.com/casm-project/casm/internal/cube"
)

// BlockMapper turns the chosen execution plan — a distribution key plus a
// clustering factor — into the mapper- and reducer-side key logic of
// Sections III-B.2 and III-C:
//
//   - Session.Blocks enumerates the distribution blocks a raw record must
//     be dispatched to (one block normally; several when overlapping
//     distribution duplicates the record into neighbouring blocks), and
//     Session.BlockOrdinals the same blocks as integers;
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

// AppendBlockKey appends to dst the key Session.Blocks returns for the
// block Session.BlockOrdinals numbers ord.
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
		d := bm.key.Anns[x].Width()
		r *= float64(d+bm.cf) / float64(bm.cf)
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

// Owner returns the block key of the unique block allowed to output a
// measure record whose region is r. The region's grain must be at least
// as fine as the key's grain on every attribute (guaranteed for feasible
// keys, which generalize every measure grain). Session.Owns is the
// allocation-free test against a given block.
func (bm *BlockMapper) Owner(r cube.Region) string {
	return string(bm.NewSession().owner(r))
}

// maxInterned bounds a session's intern cache against pathological plans
// (huge block counts in adversarial record order). On overflow the cache
// is reset wholesale: later keys just re-allocate.
const maxInterned = 1 << 17

// Session is the per-task scratch state for one BlockMapper user: the
// coordinate and block buffers, plus an intern cache of arena-backed
// block keys. Records arrive clustered in practice, so a last-block fast
// path and a map keyed by the encoded block coordinates make the
// per-record key encoding a cache hit; a miss copies the key into the
// arena exactly once.
//
// Interning contract: returned key slices are SHARED across calls and
// must be treated as immutable. Arena chunks are never reallocated or
// reused, so every key the session returned stays valid and byte-stable
// for its lifetime: shuffle batches may retain them for the whole job. A
// Session is single-goroutine; the BlockMapper is read-only and may be
// shared by any number of sessions.
type Session struct {
	bm *BlockMapper

	coord, block []int64
	los, his     []int64
	keys         [][]byte // reused Blocks output slice
	ords         []uint64 // reused BlockOrdinals output slice
	enc          []byte   // reused block-coord encode buffer
	lastKey      []byte   // intern fast path: key of the last encoded block
	interned     map[string][]byte
	arena        []byte // current arena chunk; old chunks stay live via interned keys
	arenaNext    int    // next chunk's capacity (geometric growth, capped)

	// Hits counts intern-cache hits (last-block fast path included);
	// Misses counts keys that had to be allocated.
	Hits, Misses int64
}

// NewSession returns fresh per-task scratch state for bm.
func (bm *BlockMapper) NewSession() *Session {
	n := bm.schema.NumAttrs()
	return &Session{
		bm:       bm,
		coord:    make([]int64, n),
		block:    make([]int64, n),
		los:      make([]int64, len(bm.annAttrs)),
		his:      make([]int64, len(bm.annAttrs)),
		enc:      make([]byte, 0, n*3),
		interned: make(map[string][]byte),
	}
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
		size := ss.arenaNext
		size = max(size, arenaChunkMin)
		ss.arenaNext = min(size*2, arenaChunkMax)
		ss.arena = make([]byte, 0, max(size, len(b)))
	}
	start := len(ss.arena)
	ss.arena = append(ss.arena, b...)
	return ss.arena[start:len(ss.arena):len(ss.arena)]
}

// intern returns the canonical key bytes for the block coordinates in
// ss.block, copying into the arena only on first sight.
func (ss *Session) intern() []byte {
	ss.enc = cube.AppendCoords(ss.enc[:0], ss.block)
	// Last-block fast path: consecutive records overwhelmingly map to the
	// same block when the data is clustered along the annotated attribute.
	if len(ss.lastKey) > 0 && bytes.Equal(ss.enc, ss.lastKey) {
		ss.Hits++
		return ss.lastKey
	}
	if k, ok := ss.interned[string(ss.enc)]; ok {
		ss.Hits++
		ss.lastKey = k
		return k
	}
	if len(ss.interned) >= maxInterned {
		clear(ss.interned)
	}
	k := ss.arenaCopy(ss.enc)
	ss.interned[string(k)] = k
	ss.Misses++
	ss.lastKey = k
	return k
}

// Blocks returns the block keys record rec must be dispatched to, home
// block first: the one whose key is "generated without being adjusted
// with a delta value"; overlapping plans add neighbouring blocks. The
// returned outer slice is reused by the next Blocks call; the key byte
// slices are interned in the session arena and stay valid for the
// session's lifetime.
func (ss *Session) Blocks(rec cube.Record) [][]byte {
	ss.walk(rec, false)
	return ss.keys
}

// BlockOrdinals returns the ordinals of Blocks(rec), in its order; the
// slice is reused by the next call. It panics when NumBlocks does not fit.
func (ss *Session) BlockOrdinals(rec cube.Record) []uint64 {
	ss.walk(rec, true)
	return ss.ords
}

// walk fills ss.keys, or with ords ss.ords, with rec's blocks.
func (ss *Session) walk(rec cube.Record, ords bool) {
	bm := ss.bm
	bm.schema.CoordOf(rec, bm.key.Grain, ss.coord)
	bm.blockCoord(ss.coord, ss.block)
	ss.keys, ss.ords = ss.keys[:0], ss.ords[:0]
	ss.add(ords)
	if len(bm.annAttrs) == 0 {
		return
	}
	// Per annotated attribute X with annotation (Low, High): the record
	// at key coordinate t is input to output regions at key coordinates
	// c ∈ [t−High, t−Low], and goes to the cross product of the blocks
	// covering those ranges.
	for i, x := range bm.annAttrs {
		ann := bm.key.Anns[x]
		t := ss.coord[x]
		lo, hi := t-ann.High, t-ann.Low
		if lo < 0 {
			lo = 0
		}
		if max := bm.annCards[i] - 1; hi > max {
			hi = max
		}
		if lo > hi {
			// No valid output coordinate along this attribute: the record
			// contributes to nothing beyond its home block.
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
		ss.add(ords)
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

// add appends the block in ss.block to the walk's output unless it is
// the home block, which the walk adds first.
func (ss *Session) add(ords bool) {
	if ords {
		var o uint64
		for i, w := range ss.bm.strides[:len(ss.block)] {
			o += uint64(ss.block[i]) * w
		}
		if len(ss.ords) == 0 || o != ss.ords[0] {
			ss.ords = append(ss.ords, o)
		}
	} else if k := ss.intern(); len(ss.keys) == 0 || !bytes.Equal(k, ss.keys[0]) {
		ss.keys = append(ss.keys, k)
	}
}

// Owns reports whether blockKey is BlockMapper.Owner's block for region
// r: the reduce-side ownership filter. The owner's key is encoded into
// session scratch and compared, never interned, so a reducer that sees
// thousands of blocks allocates and retains nothing for them.
func (ss *Session) Owns(r cube.Region, blockKey []byte) bool {
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
