package distkey

import (
	"bytes"
	"fmt"

	"github.com/casm-project/casm/internal/cube"
)

// BlockMapper turns the chosen execution plan — a distribution key plus a
// clustering factor — into the mapper- and reducer-side key logic of
// Sections III-B.2 and III-C:
//
//   - BlocksFor enumerates the distribution blocks a raw record must be
//     dispatched to (one block normally; several when overlapping
//     distribution duplicates the record into neighbouring blocks);
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
// The paper's implementation (and its optimizer) restricts execution to a
// single annotated attribute; this mapper generalizes to several, taking
// the cross product of per-attribute block ranges, with the same
// clustering factor applied to every annotated attribute. The optimizer
// still emits single-annotated plans, but forced multi-annotated keys
// execute correctly.
type BlockMapper struct {
	schema   *cube.Schema
	key      Key
	cf       int64
	annAttrs []int   // annotated attribute indices (possibly empty)
	annCards []int64 // key-level cardinality per annotated attribute
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
	return bm, nil
}

// Key returns the plan's distribution key.
func (bm *BlockMapper) Key() Key { return bm.key }

// ClusteringFactor returns the plan's clustering factor.
func (bm *BlockMapper) ClusteringFactor() int64 { return bm.cf }

// NumBlocks returns the total number of distribution blocks the plan
// produces (the paper's n_G/cf for single-annotated overlapping keys).
func (bm *BlockMapper) NumBlocks() int64 {
	n := int64(1)
	ann := 0
	for i, li := range bm.key.Grain {
		card := bm.schema.Attr(i).CardAt(li)
		if ann < len(bm.annAttrs) && bm.annAttrs[ann] == i {
			card = (card + bm.cf - 1) / bm.cf
			ann++
		}
		n *= card
	}
	return n
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

// BlocksFor calls emit with the block key of every distribution block
// record rec must be dispatched to. The first emitted block is always the
// record's home block (the one whose key is "generated without being
// adjusted with a delta value"); overlapping plans may emit further
// neighbouring blocks.
//
// This convenience form allocates scratch per call; hot loops should hold
// a Session and use Session.Blocks instead.
func (bm *BlockMapper) BlocksFor(rec cube.Record, emit func(blockKey string)) {
	ss := bm.NewSession()
	for _, k := range ss.Blocks(rec) {
		emit(string(k))
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

// HomeBlock returns the block key of rec's home block (no delta
// adjustment), used by the non-overlapping fast path and by tests.
// Allocating form of Session.HomeBlock.
func (bm *BlockMapper) HomeBlock(rec cube.Record) string {
	return string(bm.NewSession().HomeBlock(rec))
}

// maxInterned bounds a session's intern cache. A mapper task normally
// touches far fewer distinct blocks than this; the bound only guards
// pathological plans (huge block counts with adversarial record order)
// from growing the cache without limit. On overflow the cache is reset
// wholesale — correctness is unaffected, later keys just re-allocate.
const maxInterned = 1 << 17

// Session is the per-task scratch state for one BlockMapper user: the
// coordinate/block buffers that BlocksFor, Owner and HomeBlock would
// otherwise allocate per call, plus an intern cache of arena-backed
// block-key byte slices. Records arrive clustered in practice, so a
// last-block fast path and a small map keyed by the encoded block
// coordinates turn the per-record key encoding into a cache hit; a miss
// copies the key into the session's arena exactly once.
//
// Interning contract: the returned key slices are SHARED across calls
// (and with every other consumer of the same session) — callers must
// treat them as immutable and must never assume a fresh allocation. The
// arena is chunked and chunks are never reallocated or reused, so every
// key the session has ever returned stays valid (and byte-stable) for
// the session's lifetime — shuffle batches may retain them for the whole
// job. A Session is single-goroutine; the BlockMapper itself stays
// read-only and may be shared by any number of sessions.
type Session struct {
	bm *BlockMapper

	coord, block []int64
	los, his     []int64
	keys         [][]byte // reused Blocks output slice
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

// Arena chunks grow geometrically from arenaChunkMin to arenaChunkMax:
// a session interning a handful of keys (short-lived per-task sessions
// dominate numerically) costs hundreds of bytes instead of a fixed
// 64KiB, while a key-dense session still converges to one make per 64KiB
// of distinct key bytes.
const (
	arenaChunkMin = 256
	arenaChunkMax = 1 << 16
)

// arenaCopy copies b into the session arena and returns the stable copy.
// A full chunk is abandoned (kept alive by the keys pointing into it)
// and a fresh one started — chunks never grow in place, so handed-out
// key slices can never be moved or logically extended.
func (ss *Session) arenaCopy(b []byte) []byte {
	if cap(ss.arena)-len(ss.arena) < len(b) {
		size := ss.arenaNext
		if size < arenaChunkMin {
			size = arenaChunkMin
		}
		if next := size * 2; next <= arenaChunkMax {
			ss.arenaNext = next
		} else {
			ss.arenaNext = arenaChunkMax
		}
		if len(b) > size {
			size = len(b)
		}
		ss.arena = make([]byte, 0, size)
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
// block first (the semantics of BlockMapper.BlocksFor). The returned
// outer slice is reused by the next Blocks call; the key byte slices are
// interned in the session arena and stay valid for the session's
// lifetime.
func (ss *Session) Blocks(rec cube.Record) [][]byte {
	bm := ss.bm
	bm.schema.CoordOf(rec, bm.key.Grain, ss.coord)
	bm.blockCoord(ss.coord, ss.block)
	home := ss.intern()
	ss.keys = append(ss.keys[:0], home)
	if len(bm.annAttrs) == 0 {
		return ss.keys
	}
	// Per annotated attribute X with annotation (Low, High): the record
	// at key coordinate t is input to output regions at key coordinates
	// c with t ∈ [c+Low, c+High], i.e. c ∈ [t−High, t−Low]; the blocks
	// covering those outputs form the per-attribute range below. The
	// record goes to the cross product of the ranges, skipping the home
	// block (already emitted).
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
			return ss.keys
		}
		ss.los[i], ss.his[i] = floorDiv(lo, bm.cf), floorDiv(hi, bm.cf)
	}
	// Odometer walk over the cross product of the per-attribute ranges
	// (last annotated attribute varies fastest, matching the recursive
	// enumeration this replaces), skipping the home block.
	for i, x := range bm.annAttrs {
		ss.block[x] = ss.los[i]
	}
	for {
		// Interned keys are canonical, so pointer identity (&k[0] ==
		// &home[0]) would suffice; bytes.Equal is as cheap and clearer.
		if k := ss.intern(); !bytes.Equal(k, home) {
			ss.keys = append(ss.keys, k)
		}
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
			return ss.keys
		}
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

// HomeBlock is the allocation-free form of BlockMapper.HomeBlock.
func (ss *Session) HomeBlock(rec cube.Record) []byte {
	bm := ss.bm
	bm.schema.CoordOf(rec, bm.key.Grain, ss.coord)
	bm.blockCoord(ss.coord, ss.block)
	return ss.intern()
}
