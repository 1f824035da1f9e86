// Package recio defines the byte encodings of the []byte data plane: a
// cube record is the concatenation of its attributes as uvarints, and a
// block (a store block decoded for a map task, a morsel, a saved result
// block) is a sequence of length-prefixed frames, so every block is an
// independently readable input split for a mapper.
//
// Frame format: uvarint payload length, then the payload. A length of 0
// ends a block early; genuine records are never empty because a cube
// record has at least one attribute, and AppendFrame writes no empty frame.
package recio

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"github.com/casm-project/casm/internal/cube"
)

// AppendFrame appends a framed payload to buf and returns the extended
// slice. Empty payloads are reserved as the terminator and rejected.
func AppendFrame(buf, payload []byte) ([]byte, error) {
	if len(payload) == 0 {
		return buf, fmt.Errorf("recio: empty payload is reserved as the block terminator")
	}
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(payload)))
	buf = append(buf, tmp[:n]...)
	return append(buf, payload...), nil
}

// FrameReader iterates the frames of one block.
type FrameReader struct {
	data []byte
	off  int
}

// NewFrameReader returns a reader over one block's bytes.
func NewFrameReader(data []byte) *FrameReader { return &FrameReader{data: data} }

// Next returns the next frame's payload (aliasing the block buffer), or
// ok=false at end of block or at a terminator.
func (r *FrameReader) Next() ([]byte, bool, error) {
	if r.off >= len(r.data) {
		return nil, false, nil
	}
	n, k := binary.Uvarint(r.data[r.off:])
	if k <= 0 {
		return nil, false, fmt.Errorf("recio: corrupt frame header at offset %d", r.off)
	}
	if n == 0 {
		r.off = len(r.data)
		return nil, false, nil
	}
	start := r.off + k
	end := start + int(n)
	if end > len(r.data) {
		return nil, false, fmt.Errorf("recio: frame of %d bytes exceeds block at offset %d", n, r.off)
	}
	r.off = end
	return r.data[start:end], true, nil
}

// AppendRecord appends a cube record's varint encoding to buf.
func AppendRecord(buf []byte, rec cube.Record) []byte {
	var tmp [binary.MaxVarintLen64]byte
	for _, v := range rec {
		n := binary.PutUvarint(tmp[:], uint64(v))
		buf = append(buf, tmp[:n]...)
	}
	return buf
}

// DecodeRecord parses a record of the given arity from data.
func DecodeRecord(data []byte, arity int) (cube.Record, error) {
	rec := make(cube.Record, arity)
	if err := DecodeRecordInto(data, rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// DecodeRecordInto parses a record into the caller's buffer, avoiding
// allocation on hot paths.
func DecodeRecordInto(data []byte, rec cube.Record) error {
	off := 0
	for i := range rec {
		v, k := binary.Uvarint(data[off:])
		if k <= 0 {
			return fmt.Errorf("recio: truncated record at attribute %d", i)
		}
		rec[i] = int64(v)
		off += k
	}
	if off != len(data) {
		return fmt.Errorf("recio: %d trailing bytes in record", len(data)-off)
	}
	return nil
}

// SplitFrameRuns carves one block's framed bytes into contiguous runs of
// whole frames, each run targeting targetBytes (the last run may be
// smaller; a single frame larger than the target gets a run of its own).
// The returned slices alias data, so each run is independently readable
// with a FrameReader as long as the block stays alive — this is what
// carves a map split into morsels. A zero length terminates the scan
// exactly like FrameReader does.
func SplitFrameRuns(data []byte, targetBytes int) ([][]byte, error) {
	if targetBytes < 1 {
		targetBytes = 1
	}
	var runs [][]byte
	runStart, off := 0, 0
	for off < len(data) {
		n, k := binary.Uvarint(data[off:])
		if k <= 0 {
			return nil, fmt.Errorf("recio: corrupt frame header at offset %d", off)
		}
		if n == 0 {
			break
		}
		end := off + k + int(n)
		if end > len(data) {
			return nil, fmt.Errorf("recio: frame of %d bytes exceeds block at offset %d", n, off)
		}
		off = end
		if off-runStart >= targetBytes {
			runs = append(runs, data[runStart:off:off])
			runStart = off
		}
	}
	if off > runStart {
		runs = append(runs, data[runStart:off:off])
	}
	return runs, nil
}

// UvarintLen is the encoded size of v as a uvarint.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }
