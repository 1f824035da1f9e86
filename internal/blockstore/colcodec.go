package blockstore

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/casm-project/casm/internal/recio"
)

// Columnar block codec: a data block's records (fixed arity, row-major
// []int64) are stored column-major, each column as a zigzag-encoded
// delta-varint stream. Cube records are coordinates — small integers
// with heavy run structure per attribute — so delta+varint routinely
// shrinks a block several-fold relative to the row-major recio framing.
//
// RowReader is the decoder: it hands a block's records out as decoded
// []int64 rows, a batch at a time, after checking the entry shape before
// any allocation, then column truncation, trailing bytes and the footer's
// raw-length invariant — each failing with ErrCorruptBlock. frameColumnar
// frames those batches back into the recio frame stream the writer
// measured, byte for byte, for the consumers of the []byte plane
// (FrameReader, SplitFrameRuns, morsel carving, every job that shuffles
// the raw record as its value), which stay oblivious to how blocks rest
// on disk.

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
// the one buffer it returns (each frame in place: recio.AppendFrame would
// want the record encoded somewhere else first).
func frameColumnar(payload []byte, arity, n, rawLen int) ([]byte, error) {
	r, err := newRowReader(payload, arity, n, rawLen)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, rawLen)
	for r.decoded < r.n {
		if err := r.fill(); err != nil {
			return nil, err
		}
		for row := r.rows; len(row) > 0; row = row[arity:] {
			recLen := 0
			for _, v := range row[:arity] {
				recLen += recio.UvarintLen(uint64(v))
			}
			out = binary.AppendUvarint(out, uint64(recLen))
			out = recio.AppendRecord(out, row[:arity])
		}
	}
	if len(out) != rawLen {
		return nil, corruptf("decoded %d bytes, footer says %d", len(out), rawLen)
	}
	return out, nil
}

// rowBatch is how many rows a RowReader decodes per refill: large enough
// to amortize the per-column cursor switch over a long run of one
// column's bytes, small enough that the batch (rowBatch*arity int64s)
// stays cache-resident while the consumer walks it.
const rowBatch = 1024

// RowReader decodes one columnar block into rows, a batch at a time. It
// keeps one cursor per column (found by a single skip pass over the
// payload at open) and decodes the next rowBatch values of every column
// into a row-major batch, so no n×arity matrix exists at any point. Next
// yields one row per call; the row aliases the batch and is valid until
// the following Next. A RowReader is single-goroutine and single-use.
type RowReader struct {
	payload []byte
	arity   int
	n       int     // records in the block
	rawLen  int     // the footer's framed size, checked once the last row is decoded
	decoded int     // rows decoded so far
	raw     int     // framed bytes the decoded rows would occupy
	cur     []int   // per column: offset of its next undecoded value
	prev    []int64 // per column: the last decoded value (deltas add to it)

	batch []int64
	rows  []int64 // undelivered remainder of the current batch
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
		for left := n; left > 0; off++ {
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
	r.batch = make([]int64, min(n, rowBatch)*arity)
	return r, nil
}

// Next returns the block's next record; ok=false after the last one. An
// error is terminal.
func (r *RowReader) Next() ([]int64, bool, error) {
	if len(r.rows) == 0 {
		if r.err != nil || r.decoded == r.n {
			return nil, false, r.err
		}
		if r.err = r.fill(); r.err != nil {
			return nil, false, r.err
		}
	}
	row := r.rows[:r.arity:r.arity]
	r.rows = r.rows[r.arity:]
	return row, true, nil
}

// Close drops the reader's buffers. Idempotent.
func (r *RowReader) Close() error {
	r.payload, r.batch, r.rows = nil, nil, nil
	r.decoded = r.n
	return nil
}

// fill decodes the next batch, column by column, and accounts the bytes
// its rows occupy in recio framing — arithmetically, so the footer's
// raw-length invariant is still checked without a frame being built.
func (r *RowReader) fill() error {
	arity := r.arity
	b := min(r.n-r.decoded, rowBatch)
	batch := r.batch[:b*arity]
	p := r.payload
	for c := 0; c < arity; c++ {
		off, prev := r.cur[c], r.prev[c]
		for i := c; i < len(batch); i += arity {
			// One- and two-byte deltas are nearly all of them. The skip pass
			// found this value's terminator inside the column, so p[off+1]
			// exists here and Uvarint below cannot run into the next column.
			u := uint64(p[off])
			if u < 0x80 {
				off++
			} else if b1 := uint64(p[off+1]); b1 < 0x80 {
				u = u&0x7f | b1<<7
				off += 2
			} else {
				var k int
				if u, k = binary.Uvarint(p[off:]); k <= 0 {
					return corruptf("truncated column %d at record %d", c, r.decoded+i/arity)
				}
				off += k
			}
			prev += unzigzag(u)
			batch[i] = prev
		}
		r.cur[c], r.prev[c] = off, prev
	}
	for row := 0; row < len(batch); row += arity {
		recLen := 0
		for _, v := range batch[row : row+arity] {
			recLen += recio.UvarintLen(uint64(v))
		}
		r.raw += recio.UvarintLen(uint64(recLen)) + recLen
	}
	r.decoded += b
	if r.decoded == r.n && r.raw != r.rawLen {
		return corruptf("decoded %d bytes, footer says %d", r.raw, r.rawLen)
	}
	r.rows = batch
	return nil
}
