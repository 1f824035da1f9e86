package core

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/exec"
	"github.com/casm-project/casm/internal/localeval"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/recio"
	"github.com/casm-project/casm/internal/workflow"
)

// assembler builds Result.Measures for every producer of a Result. The
// job's drain adopts the chunks its reduce tasks filled (rowChunk); the
// manifest replay and the baseline push rows one at a time, LoadResults
// adds packed <coordinates, value> rows (appendMeasureRecord). finish
// only orders each measure's rows — canonically, by bytes.Compare of
// their encoded coordinates — and fills its records in that order.
type assembler struct {
	arity int
	slots []*asmSlot
}

// asmChunkRows is the rows per chunk: 256 rows of up to 8 coordinates
// fill a size class exactly.
const asmChunkRows = 256

// rowChunk is up to asmChunkRows rows of one measure: row i's coordinates
// are coords[i*arity:(i+1)*arity] and its value vals[i]. Per attribute, or
// is the OR of the rows' coordinates, whose uvarint is the longest seen,
// and diff the OR of their XOR with row 0's, zero while the attribute has
// not varied: what asmSlot.layout needs, kept as rows are added. A reduce
// task fills one per measure of each query of its job and hands it to the
// job's output; q and m say whose rows it holds — the query's ordinal in
// the job and the measure's index in its workflow's Measures.
type rowChunk struct {
	q, m     int
	coords   []int64
	vals     []float64
	or, diff []uint64
}

// newRowChunk returns an empty chunk with room for rows rows; with 0 it
// starts at 16 rows and grows fourfold up to asmChunkRows as rows are
// added, so a chunk that fills has copied 80 rows on the way, and one left
// partly filled holds at most four times its rows.
func newRowChunk(q, m, arity, rows int) *rowChunk {
	return &rowChunk{q: q, m: m, coords: make([]int64, 0, rows*arity), vals: make([]float64, 0, rows), or: make([]uint64, arity), diff: make([]uint64, arity)}
}

// spareChunks and spareCoords hold what no Result keeps of the chunks: all
// of one a stream has read or the assembler copied, all but the
// coordinates of one a Result keeps. A reduce task's chunk is on loan
// until it goes to the job's output (or back, when the task fails).
var (
	spareChunks = exec.NewFreeList("core.chunks", func(c *rowChunk) int { return 8 * (cap(c.vals) + cap(c.or) + cap(c.diff)) })
	spareCoords = exec.NewFreeList("core.coords", func(c []int64) int { return 8 * cap(c) })
	sortWords   = exec.NewFreeList("core.sortWords", func(w []uint64) int { return 8 * cap(w) }) // asmSlot.build's
)

// takeRowChunk lends a reduce task an empty whole chunk of the arity.
func takeRowChunk(q, m, arity int) *rowChunk {
	c, ok := spareChunks.Get()
	if !ok || cap(c.or) < arity {
		c = &rowChunk{vals: make([]float64, 0, asmChunkRows), or: make([]uint64, arity), diff: make([]uint64, arity)}
	}
	coords, ok := spareCoords.Get()
	if !ok || cap(coords) < asmChunkRows*arity {
		coords = make([]int64, 0, asmChunkRows*arity)
	}
	or, diff := c.or[:arity], c.diff[:arity]
	clear(or)
	clear(diff)
	*c = rowChunk{q: q, m: m, coords: coords, vals: c.vals[:0], or: or, diff: diff}
	return c
}

// giveRowChunk gives back a chunk no Result keeps.
func giveRowChunk(c *rowChunk) {
	spareCoords.Give(c.coords[:0])
	c.coords = nil
	spareChunks.Give(c)
}

// takeWords lends n words from sortWords.
func takeWords(n int) []uint64 {
	w, _ := sortWords.Get()
	if cap(w) < n {
		w = make([]uint64, n)
	}
	return w[:n]
}

// add appends a row; the chunk must not be full.
func (c *rowChunk) add(coord []int64, v float64) {
	n, a := len(c.vals), len(coord)
	if n == cap(c.vals) {
		size := min(max(4*n, 16), asmChunkRows)
		c.coords = append(make([]int64, 0, size*a), c.coords...)
		c.vals = append(make([]float64, 0, size), c.vals...)
	}
	c.coords, c.vals = c.coords[:(n+1)*a], append(c.vals, v)
	copy(c.coords[n*a:], coord)
	first, or, diff := c.coords[:a], c.or[:a], c.diff[:a]
	for j, x := range coord {
		or[j] |= uint64(x)
		diff[j] |= uint64(x ^ first[j])
	}
}

func (c *rowChunk) full() bool { return len(c.vals) == asmChunkRows }

func (c *rowChunk) row(i, arity int) []int64 {
	off := i * arity
	return c.coords[off : off+arity : off+arity]
}

// asmSlot is one measure's rows on their way into one Result: row i is row
// i%asmChunkRows of chunks[i/asmChunkRows], and every chunk but the last
// is full.
type asmSlot struct {
	dst    map[string][]MeasureRecord
	m      *workflow.Measure
	arity  int
	n      int
	chunks []*rowChunk
	row    []int64 // add's decoding scratch
	recs   []MeasureRecord
}

// slot registers a measure whose records finish stores in dst[m.Name]
// (an empty slice when no row is added).
func (a *assembler) slot(dst map[string][]MeasureRecord, m *workflow.Measure) *asmSlot {
	s := &asmSlot{dst: dst, m: m, arity: a.arity, row: make([]int64, a.arity)}
	a.slots = append(a.slots, s)
	return s
}

// drain adopts the job's output chunks into the results of its queries
// until the pipe ends, then closes it. A chunk says whose rows it holds.
func (a *assembler) drain(pipe *mr.Pipe[*rowChunk], queries []*jobQuery, results []*Result) error {
	slots := make([][]*asmSlot, len(queries))
	for {
		c, ok, err := pipe.Next()
		if err != nil || !ok {
			return cmp.Or(err, pipe.Close())
		}
		if slots[c.q] == nil {
			slots[c.q] = make([]*asmSlot, len(queries[c.q].w.Measures()))
		}
		s := &slots[c.q][c.m]
		if *s == nil {
			*s = a.slot(results[c.q].Measures, queries[c.q].w.Measures()[c.m])
		}
		(*s).adopt(c)
	}
}

// adopt takes a chunk of the measure's rows: a full one becomes the slot's
// storage as it is, ahead of the chunk being filled; a partly filled one,
// a reduce task's last, has its rows copied.
func (s *asmSlot) adopt(c *rowChunk) {
	if !c.full() {
		for i, v := range c.vals {
			s.push(c.row(i, s.arity), v)
		}
		giveRowChunk(c)
		return
	}
	s.n += asmChunkRows
	s.chunks = slices.Insert(s.chunks, max(len(s.chunks)-1, 0), c)
}

// add decodes one packed row into the slot without retaining payload.
func (s *asmSlot) add(payload []byte) error {
	key, v, err := splitMeasureRecord(payload)
	if err != nil {
		return err
	}
	if err := cube.DecodeCoordsInto(key, s.row); err != nil {
		return err
	}
	s.push(s.row, v)
	return nil
}

// push copies one row into the slot's last chunk. The first chunk grows; a
// later one is allocated whole, never regrown.
func (s *asmSlot) push(coord []int64, v float64) {
	if k := len(s.chunks); k == 0 || s.chunks[k-1].full() {
		s.chunks = append(s.chunks, newRowChunk(0, 0, s.arity, min(k, 1)*asmChunkRows))
	}
	s.chunks[len(s.chunks)-1].add(coord, v)
	s.n++
}

func (s *asmSlot) coord(i uint32) []int64 {
	return s.chunks[i/asmChunkRows].row(int(i%asmChunkRows), s.arity)
}

// finish orders every slot and stores its records. Slots are independent,
// so each is one pooled task of ex (the default executor when nil):
// concurrent, and inside a shared executor's worker bound.
func (a *assembler) finish(ctx context.Context, ex *exec.Executor) error {
	if ex == nil {
		ex = exec.Default()
	}
	for _, s := range a.slots {
		if s.n > math.MaxUint32 { // build's row indices are uint32
			return fmt.Errorf("core: measure %q: more than %d rows", s.m.Name, uint32(math.MaxUint32))
		}
	}
	g := ex.NewGroup(ctx, exec.Options{})
	for _, s := range a.slots {
		g.Go("", nil, func(context.Context) error { s.build(); return nil })
	}
	if err := g.Wait(); err != nil {
		return err
	}
	for _, s := range a.slots {
		s.dst[s.m.Name] = s.recs
	}
	return nil
}

// build fills the slot's records in canonical order. A measure holds each
// region once, so the order is total and independent of arrival order.
//
// Uvarints are prefix-free, so bytes.Compare of two encoded keys is decided
// by the first attribute whose uvarints differ, at the first byte in which
// they differ; an attribute that never varies decides nothing. The varying
// attributes' uvarints, each left-aligned and zero-padded to the
// attribute's longest, thus concatenate into a key whose integer order is
// the canonical one. Each row's key is packed into one word above its row
// index — the last byte of each uvarint, never a continuation byte, in
// only the bits the slot's largest coordinate needs — and the words are
// radix-sorted on the key bits. Attributes the word cannot hold (none at
// any suite query's grain) break its ties by a comparator.
func (s *asmSlot) build() {
	fields, rowBits, keyBits, rest := s.layout()
	words, scratch := takeWords(s.n), takeWords(s.n)
	defer sortWords.Put(words)
	defer sortWords.Put(scratch)
	for i := range words {
		c, k := s.coord(uint32(i)), uint64(0)
		for _, f := range fields {
			v := uint64(c[f.attr])
			for range f.w - 1 {
				b := v & 0x7f
				if v >>= 7; v != 0 {
					b |= 0x80
				}
				k = k<<8 | b
			}
			k = k<<f.last | v
		}
		words[i] = k<<rowBits | uint64(i)
	}
	sorted := words
	if len(words) < 256 { // too few to repay the radix passes' 2¹¹ counters
		slices.Sort(words)
	} else {
		sorted = localeval.Radix(words, scratch, rowBits, rowBits+keyBits)
	}
	if len(rest) > 0 {
		s.sortTies(sorted, rowBits, rest)
	}
	s.recs = make([]MeasureRecord, s.n)
	for i, w := range sorted {
		r := uint32(w & (1<<rowBits - 1))
		s.recs[i] = MeasureRecord{Region: cube.Region{Grain: s.m.Grain, Coord: s.coord(r)}, Value: s.chunks[r/asmChunkRows].vals[r%asmChunkRows]}
	}
	for _, c := range s.chunks { // the records keep the coordinates; the rest of a whole chunk is spare
		if c.coords = nil; cap(c.vals) == asmChunkRows {
			spareChunks.Give(c)
		}
	}
	s.chunks = nil
}

// asmField is one varying attribute's place in a packed key: w uvarint
// bytes, the last of them in last bits.
type asmField struct{ attr, w, last int }

// layout returns the fields a packed key holds, rowBits of row index below
// keyBits of key, and rest: the attributes from the first it cannot hold.
//
// The chunks' or and diff words merge into the slot's: an attribute varies
// across the slot when it varies inside a chunk or between the chunks'
// first rows.
func (s *asmSlot) layout() (fields []asmField, rowBits, keyBits int, rest []int) {
	rowBits = bits.Len(uint(s.n))
	or, diff := make([]uint64, s.arity), make([]uint64, s.arity)
	for _, c := range s.chunks {
		for j := range or {
			or[j] |= c.or[j]
			diff[j] |= c.diff[j] | uint64(c.coords[j]^s.chunks[0].coords[j])
		}
	}
	for j, d := range diff {
		if d == 0 {
			continue
		}
		w := max(1, (bits.Len64(or[j])+6)/7)
		f := asmField{attr: j, w: w, last: bits.Len64(or[j] >> (7 * (w - 1)))}
		if n := 8*(w-1) + f.last; rest == nil && rowBits+keyBits+n <= 64 {
			fields, keyBits = append(fields, f), keyBits+n
		} else {
			rest = append(rest, j)
		}
	}
	return fields, rowBits, keyBits, rest
}

// sortTies sorts each run of words with equal keys by the attributes rest,
// comparing coordinates as bytes.Compare orders their uvarints.
func (s *asmSlot) sortTies(words []uint64, rowBits int, rest []int) {
	for i, j := 0, 1; i < len(words); i, j = j, j+1 {
		for j < len(words) && words[j]>>rowBits == words[i]>>rowBits {
			j++
		}
		slices.SortFunc(words[i:j], func(p, q uint64) int {
			cp, cq := s.coord(uint32(p&(1<<rowBits-1))), s.coord(uint32(q&(1<<rowBits-1)))
			for _, a := range rest {
				// Byte by byte: equal low bits and both continued, or
				// the first byte that differs decides.
				for x, y := uint64(cp[a]), uint64(cq[a]); x != y; x, y = x>>7, y>>7 {
					if x&0x7f != y&0x7f || x < 0x80 || y < 0x80 {
						return cmp.Compare(x&0x7f|min(x>>7, 1)<<7, y&0x7f|min(y>>7, 1)<<7)
					}
				}
			}
			return 0
		})
	}
}

// --- payload codec ---

// appendMeasureRecord appends a packed <region coordinates, value> record
// to dst and returns the extended slice.
func appendMeasureRecord(dst []byte, coords []int64, v float64) []byte {
	dst = cube.AppendCoords(dst, coords)
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// measureRecordLen is the length of appendMeasureRecord's record.
func measureRecordLen(coords []int64) int {
	n := 8
	for _, c := range coords {
		n += recio.UvarintLen(uint64(c))
	}
	return n
}

// splitMeasureRecord slices a packed record into its encoded coordinate
// key (aliasing b) and its value.
func splitMeasureRecord(b []byte) ([]byte, float64, error) {
	if len(b) < 8 {
		return nil, 0, fmt.Errorf("core: truncated measure record")
	}
	n := len(b) - 8
	return b[:n], math.Float64frombits(binary.LittleEndian.Uint64(b[n:])), nil
}
