package blockstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"github.com/casm-project/casm/internal/recio"
)

// Columnar block codec: a data block's records (fixed arity, row-major
// []int64) are stored column-major, each column as a zigzag-encoded
// delta-varint stream. Cube records are coordinates — small integers
// with heavy run structure per attribute — so delta+varint routinely
// shrinks a block several-fold relative to the row-major recio framing.
//
// RowReader is the decoder: it hands a block's records out a batch at a
// time, one decoded []int64 per column, after checking the entry shape
// before any allocation, then column truncation, trailing bytes and the
// footer's raw-length invariant — each failing with ErrCorruptBlock.
// carveRows cuts a block into runs of rows by one decode of it, recording
// where each run starts, so that a run's reader resumes there, mid-batch
// or not. frameColumnar frames the
// records back into the recio frame stream the writer measured, byte for
// byte, for ReadBlock.

// ErrCorruptBlock marks a columnar entry whose checksum verified but
// whose contents do not decode: a shape the payload cannot hold, a
// truncated or overlong column, or a decoded size that contradicts the
// footer. A CRC is not a MAC, so these are input errors, not invariants.
var ErrCorruptBlock = errors.New("blockstore: corrupt columnar block")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorruptBlock}, args...)...)
}

// checkColumnarShape rejects, before anything is allocated from them,
// entry-header fields no payload of payloadLen bytes can back: every
// value occupies at least one payload byte, and every framed record at
// least arity+1 and at most (arity+1)*MaxVarintLen64 bytes of rawLen.
// The fields arrive as int(uint64), so negatives are overflowed headers.
// A block holds at least one record (the Writer cuts none empty), which
// is what bounds arity by the payload too.
func checkColumnarShape(arity, n, rawLen, payloadLen int) error {
	if arity <= 0 || n <= 0 || rawLen < 0 {
		return corruptf("invalid shape arity=%d records=%d raw=%d", arity, n, rawLen)
	}
	if n > payloadLen/arity {
		return corruptf("%d records of arity %d cannot fit a %d-byte payload", n, arity, payloadLen)
	}
	if min := n * (arity + 1); rawLen < min || rawLen > min*binary.MaxVarintLen64 {
		return corruptf("raw length %d outside [%d,%d] for %d records of arity %d",
			rawLen, min, min*binary.MaxVarintLen64, n, arity)
	}
	return nil
}

// zigzag maps signed deltas to unsigned varint-friendly space.
func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendColumnar appends the column-major delta encoding of n records
// (rows holds n*arity values, row-major) to dst.
func appendColumnar(dst []byte, rows []int64, arity, n int) []byte {
	var tmp [binary.MaxVarintLen64]byte
	for c := 0; c < arity; c++ {
		prev := int64(0)
		for r := 0; r < n; r++ {
			v := rows[r*arity+c]
			k := binary.PutUvarint(tmp[:], zigzag(v-prev))
			dst = append(dst, tmp[:k]...)
			prev = v
		}
	}
	return dst
}

// frameColumnar decodes a columnar payload into the exact recio frame
// stream the writer measured: rawLen bytes of uvarint-framed,
// uvarint-attribute records, built batch by batch from a RowReader into
// the one buffer it returns (each frame in place, a row's values read
// across the batch's columns).
func frameColumnar(payload []byte, arity, n, rawLen int) ([]byte, error) {
	r, err := newRowReader(payload, arity, n, rawLen)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	out := make([]byte, 0, rawLen)
	for r.decoded < r.n {
		if err := r.fill(rowBatch); err != nil {
			return nil, err
		}
		for i := range r.cols[0] {
			out = binary.AppendUvarint(out, uint64(recordLen(r.cols, i)))
			for _, col := range r.cols {
				out = binary.AppendUvarint(out, uint64(col[i]))
			}
		}
	}
	if len(out) != rawLen {
		return nil, corruptf("decoded %d bytes, footer says %d", len(out), rawLen)
	}
	return out, nil
}

// recordLen is the size of row i of cols as a recio record: one uvarint
// per attribute.
func recordLen(cols [][]int64, i int) int {
	n := 0
	for _, col := range cols {
		n += recio.UvarintLen(uint64(col[i]))
	}
	return n
}

// rowBatch is how many rows a RowReader decodes per refill: large enough
// to amortize the per-column cursor switch over a long run of one
// column's bytes, small enough that the batch (rowBatch*arity int64s)
// stays cache-resident while the consumer walks it.
const rowBatch = 1024

// Batch is a run of decoded records, column-major: Cols[c][i] is record
// i's value of attribute c, and every column holds N values.
type Batch struct {
	N    int
	Cols [][]int64
}

// RowReader decodes one columnar block a batch at a time. It keeps one
// cursor per column (found by a single skip pass over the payload at open)
// and decodes the next rowBatch values of every column into that column's
// buffer, so no n×arity matrix exists at any point. Next yields one batch
// per call; its columns alias the reader's buffers and are valid until the
// following Next. A RowReader is single-goroutine and single-use.
type RowReader struct {
	payload []byte
	arity   int
	n       int     // records in the block
	rawLen  int     // the footer's framed size, checked once the last row is decoded
	decoded int     // rows decoded so far
	raw     int     // framed bytes the decoded rows would occupy
	cur     []int   // per column: offset of its next undecoded value
	prev    []int64 // per column: the last decoded value (deltas add to it)

	cols  [][]int64 // per column: the current batch's values, in buf
	buf   *Columns
	entry []byte // the entry buffer payload lies in, when the reader owns it
	err   error
}

// newRowReader validates the entry shape, then locates every column: a
// varint ends at its first byte below 0x80, so counting n of those per
// column finds the column boundaries — and a column that runs out of
// payload, or payload left over after the last one — without decoding.
func newRowReader(payload []byte, arity, n, rawLen int) (*RowReader, error) {
	if err := checkColumnarShape(arity, n, rawLen, len(payload)); err != nil {
		return nil, err
	}
	r := &RowReader{payload: payload, arity: arity, n: n, rawLen: rawLen,
		cur: make([]int, arity), prev: make([]int64, arity)}
	off := 0
	for c := 0; c < arity; c++ {
		r.cur[c] = off
		left := n
		// Eight bytes at a time while more terminators are left than a word
		// holds, so no word reaches past the column's last one.
		for ; left > 8 && off+8 <= len(payload); off += 8 {
			left -= bits.OnesCount64(^binary.LittleEndian.Uint64(payload[off:]) & 0x8080808080808080)
		}
		for ; left > 0; off++ {
			if off == len(payload) {
				return nil, corruptf("truncated column %d at record %d", c, n-left)
			}
			if payload[off] < 0x80 {
				left--
			}
		}
	}
	if off != len(payload) {
		return nil, corruptf("%d trailing bytes in columnar payload", len(payload)-off)
	}
	r.buf = NewColumns(arity, min(n, rowBatch))
	r.cols = r.buf.Cols
	return r, nil
}

// Columns is a batch's storage: Cols holds arity empty column buffers of
// capacity rows each, carved from one array. NewColumns takes them from a
// process-wide pool and Release gives them back, so a warm scan decodes
// (or transposes) every batch into buffers an earlier reader left behind.
// Nothing may use the buffers after Release.
type Columns struct {
	Cols [][]int64
	vals []int64
}

var columns = sync.Pool{New: func() any { return new(Columns) }}

// NewColumns returns pooled storage for batches of up to rows records of
// arity values.
func NewColumns(arity, rows int) *Columns {
	b := columns.Get().(*Columns)
	if cap(b.vals) < arity*rows {
		b.vals = make([]int64, arity*rows)
	}
	if cap(b.Cols) < arity {
		b.Cols = make([][]int64, arity)
	}
	b.Cols = b.Cols[:arity]
	for c := range b.Cols {
		b.Cols[c] = b.vals[c*rows : c*rows : (c+1)*rows]
	}
	return b
}

// Release returns the storage to the pool.
func (b *Columns) Release() { columns.Put(b) }

// Next returns the block's next batch of at most rowBatch records;
// ok=false after the last one. An error is terminal.
func (r *RowReader) Next() (Batch, bool, error) {
	if r.err != nil || r.decoded == r.n {
		return Batch{}, false, r.err
	}
	if r.err = r.fill(rowBatch); r.err != nil {
		return Batch{}, false, r.err
	}
	return Batch{N: len(r.cols[0]), Cols: r.cols}, true, nil
}

// Close recycles the reader's buffers — its columns, and the entry it
// read when it owns it — and ends the stream. Idempotent.
func (r *RowReader) Close() error {
	if r.buf != nil {
		r.buf.Release()
	}
	if r.entry != nil {
		recycleEntry(r.entry)
	}
	r.payload, r.cols, r.buf, r.entry = nil, nil, nil, nil
	r.decoded = r.n
	return nil
}

// fill decodes the next batch of at most limit rows into the column
// buffers, one column at a time, and accounts the bytes its rows occupy
// in recio framing — arithmetically, so the footer's raw-length invariant
// is still checked without a frame being built: each value's uvarint
// length as it is decoded, then each record's frame prefix, one byte
// unless arity values could reach 128 bytes.
func (r *RowReader) fill(limit int) error {
	b := min(r.n-r.decoded, limit)
	p := r.payload
	for c, col := range r.cols {
		col = col[:b]
		off, prev, size := r.cur[c], r.prev[c], 0
		for i := range col {
			// Deltas of up to four bytes are nearly all of them. The skip
			// pass found this value's terminator inside the column, so each
			// byte read past a continuation byte exists, and Uvarint below
			// cannot run into the next column.
			u := uint64(p[off])
			if u < 0x80 {
				off++
			} else if b1 := uint64(p[off+1]); b1 < 0x80 {
				u = u&0x7f | b1<<7
				off += 2
			} else if b2 := uint64(p[off+2]); b2 < 0x80 {
				u = u&0x7f | (b1&0x7f)<<7 | b2<<14
				off += 3
			} else if b3 := uint64(p[off+3]); b3 < 0x80 {
				u = u&0x7f | (b1&0x7f)<<7 | (b2&0x7f)<<14 | b3<<21
				off += 4
			} else {
				var k int
				if u, k = binary.Uvarint(p[off:]); k <= 0 {
					return corruptf("truncated column %d at record %d", c, r.decoded+i)
				}
				off += k
			}
			prev += unzigzag(u)
			col[i] = prev
			size += recio.UvarintLen(uint64(prev))
		}
		r.cols[c] = col
		r.cur[c], r.prev[c] = off, prev
		r.raw += size
	}
	if len(r.cols)*binary.MaxVarintLen64 < 0x80 {
		r.raw += b
	} else {
		for i := 0; i < b; i++ {
			r.raw += recio.UvarintLen(uint64(recordLen(r.cols, i)))
		}
	}
	r.decoded += b
	if r.decoded == r.n && r.raw != r.rawLen {
		return corruptf("decoded %d bytes, footer says %d", r.raw, r.rawLen)
	}
	return nil
}

// rowCursor is where a RowReader stands between two rows: the rows
// decoded and the framed bytes they occupy, and per column the offset of
// its next value and the last value decoded.
type rowCursor struct {
	row, raw int
	cur      []int
	prev     []int64
}

func (r *RowReader) cursor() rowCursor {
	return rowCursor{row: r.decoded, raw: r.raw, cur: slices.Clone(r.cur), prev: slices.Clone(r.prev)}
}

// RowRun is one run of a block's rows, as ReadBlockRuns cuts them: the
// block's verified payload, which every run of the block shares, and the
// cursor the run starts at. It holds nothing else.
type RowRun struct {
	payload     []byte
	arity       int
	end, endRaw int // the rows and the framed bytes up to the run's end
	from        rowCursor
}

// Size returns the framed bytes the run's rows occupy.
func (r RowRun) Size() int { return r.endRaw - r.from.raw }

// Open returns a RowReader over the run, resumed from its cursor; a run
// may be opened any number of times. The run ends where its rows do, and
// so does its framed size: the reader checks the run like a block.
func (r RowRun) Open() *RowReader {
	rr := &RowReader{payload: r.payload, arity: r.arity, n: r.end, rawLen: r.endRaw,
		decoded: r.from.row, raw: r.from.raw, cur: slices.Clone(r.from.cur), prev: slices.Clone(r.from.prev)}
	rr.buf = NewColumns(r.arity, min(r.end-r.from.row, rowBatch))
	rr.cols = rr.buf.Cols
	return rr
}

// carveRows cuts a columnar block into runs of whole rows, each closed as
// soon as its framed size reaches targetBytes (the last may be smaller),
// in one row-at-a-time decode that checks the block as RowReader does and
// records the cursor each run starts at.
func carveRows(payload []byte, arity, n, rawLen, targetBytes int) ([]RowRun, error) {
	r, err := newRowReader(payload, arity, n, rawLen)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var runs []RowRun
	start := r.cursor()
	for r.decoded < r.n {
		if err := r.fill(1); err != nil {
			return nil, err
		}
		if r.raw-start.raw >= targetBytes || r.decoded == r.n {
			runs = append(runs, RowRun{payload: payload, arity: arity, end: r.decoded, endRaw: r.raw, from: start})
			start = r.cursor()
		}
	}
	return runs, nil
}
