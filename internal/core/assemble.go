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
	"github.com/casm-project/casm/internal/transport"
	"github.com/casm-project/casm/internal/workflow"
)

// assembler builds Result.Measures from packed <coordinates, value> rows
// (appendMeasureRecord) for every producer of a Result: the single-query
// and shared-job drains, the manifest replay, the baseline, LoadResults.
// add decodes each row as it arrives, into chunks that become the
// result's coordinate storage; finish only orders each measure's rows —
// canonically, by bytes.Compare of their encoded coordinates — and fills
// its records in that order.
type assembler struct {
	arity int
	slots []*asmSlot
}

// asmChunkRows is the rows per storage chunk: 256 rows of up to 8
// coordinates fill a size class exactly. Only the first chunk grows.
const asmChunkRows = 256

// asmSlot is one measure's rows on their way into one Result: row i's
// coordinates and value are in chunk i/asmChunkRows of coords and vals.
type asmSlot struct {
	dst    map[string][]MeasureRecord
	m      *workflow.Measure
	arity  int
	n      int
	coords [][]int64
	vals   [][]float64
	// Per attribute: the OR of its coordinates, whose uvarint is the
	// longest seen, and the OR of their XOR with row 0's, zero while the
	// attribute has not varied.
	or, diff []uint64
	recs     []MeasureRecord
}

// slot registers a measure whose records finish stores in dst[m.Name]
// (an empty slice when no row is added).
func (a *assembler) slot(dst map[string][]MeasureRecord, m *workflow.Measure) *asmSlot {
	s := &asmSlot{dst: dst, m: m, arity: a.arity, or: make([]uint64, a.arity), diff: make([]uint64, a.arity)}
	a.slots = append(a.slots, s)
	return s
}

// drain consumes the job's output to its end and closes the pipe. Each
// distinct output key is resolved to its slot once and then probed by
// its raw bytes.
func (a *assembler) drain(pipe *mr.Pipe, resolve func(key []byte) (*asmSlot, error)) error {
	byKey := make(map[string]*asmSlot)
	for {
		_, pairs, ok, err := pipe.NextBatch()
		if err != nil {
			return err
		}
		if !ok {
			return pipe.Close()
		}
		for _, p := range pairs {
			s, ok := byKey[string(p.Key)]
			if !ok {
				if s, err = resolve(p.Key); err != nil {
					return err
				}
				byKey[string(p.Key)] = s
			}
			if err := s.add(p.Value); err != nil {
				return err
			}
		}
		transport.RecycleBatch(pairs)
	}
}

// add decodes one packed row into the slot without retaining payload.
func (s *asmSlot) add(payload []byte) error {
	key, v, err := splitMeasureRecord(payload)
	if err != nil {
		return err
	}
	if s.n == math.MaxUint32 {
		return fmt.Errorf("core: measure %q: more than %d rows", s.m.Name, uint32(math.MaxUint32))
	}
	k, a := s.n/asmChunkRows, s.arity
	if k == len(s.vals) {
		size := min(k, 1) * asmChunkRows // a later chunk is allocated whole, never regrown
		s.coords, s.vals = append(s.coords, make([]int64, 0, size*a)), append(s.vals, make([]float64, 0, size))
	}
	c := slices.Grow(s.coords[k], a)
	row := c[len(c) : len(c)+a]
	if err := cube.DecodeCoordsInto(key, row); err != nil {
		return err
	}
	s.coords[k], s.vals[k] = c[:len(c)+a], append(s.vals[k], v)
	first, or, diff := s.coords[0][:a], s.or[:a], s.diff[:a]
	for j, c := range row {
		or[j] |= uint64(c)
		diff[j] |= uint64(c ^ first[j])
	}
	s.n++
	return nil
}

func (s *asmSlot) coord(i uint32) []int64 {
	off := int(i%asmChunkRows) * s.arity
	return s.coords[i/asmChunkRows][off : off+s.arity : off+s.arity]
}

// finish orders every slot and stores its records. Slots are independent,
// so each is one pooled task of ex (the default executor when nil):
// concurrent, and inside a shared executor's worker bound.
func (a *assembler) finish(ctx context.Context, ex *exec.Executor) error {
	if ex == nil {
		ex = exec.Default()
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
	words := make([]uint64, s.n)
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
	if len(words) < 256 { // too few to repay the radix passes' 2¹¹ counters
		slices.Sort(words)
	} else {
		words = localeval.Radix(words, make([]uint64, len(words)), rowBits, rowBits+keyBits)
	}
	if len(rest) > 0 {
		s.sortTies(words, rowBits, rest)
	}
	s.recs = make([]MeasureRecord, s.n)
	for i, w := range words {
		r := uint32(w & (1<<rowBits - 1))
		s.recs[i] = MeasureRecord{Region: cube.Region{Grain: s.m.Grain, Coord: s.coord(r)}, Value: s.vals[r/asmChunkRows][r%asmChunkRows]}
	}
	s.vals = nil
}

// asmField is one varying attribute's place in a packed key: w uvarint
// bytes, the last of them in last bits.
type asmField struct{ attr, w, last int }

// layout returns the fields a packed key holds, rowBits of row index below
// keyBits of key, and rest: the attributes from the first it cannot hold.
func (s *asmSlot) layout() (fields []asmField, rowBits, keyBits int, rest []int) {
	rowBits = bits.Len(uint(s.n))
	for j, d := range s.diff {
		if d == 0 {
			continue
		}
		w := max(1, (bits.Len64(s.or[j])+6)/7)
		f := asmField{attr: j, w: w, last: bits.Len64(s.or[j] >> (7 * (w - 1)))}
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

// splitMeasureRecord slices a packed record into its encoded coordinate
// key (aliasing b) and its value.
func splitMeasureRecord(b []byte) ([]byte, float64, error) {
	if len(b) < 8 {
		return nil, 0, fmt.Errorf("core: truncated measure record")
	}
	n := len(b) - 8
	return b[:n], math.Float64frombits(binary.LittleEndian.Uint64(b[n:])), nil
}
