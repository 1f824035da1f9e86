package blockstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net/url"
	"path/filepath"
	"strconv"
)

// Segment-file layout. Each (node, logical file) pair owns one
// append-only segment. A segment is a header followed by entries:
//
//	header:  8-byte magic "CASMSEG1"
//	entry:   uvarint keyLen | key
//	         uvarint flags              (bit0: columnar payload;
//	                                     bit1: tombstone)
//	         uvarint arity              (columnar entries only)
//	         uvarint recCount           (records in the block; 0 for raw)
//	         uvarint rawLen             (decoded frame-stream length)
//	         uvarint payloadLen | payload
//	         4-byte little-endian CRC32C over everything above
//
// Keys are opaque sort-order-preserving []byte (data blocks use the
// block index as a big-endian uint32, so lexicographic key order is
// append order). The footer fields (recCount, rawLen, CRC) make every
// entry independently verifiable: open-time recovery scans forward and
// truncates the segment at the first entry whose frame or checksum does
// not parse — a torn tail from a crash mid-append — keeping everything
// committed before it.
//
// A tombstone has an empty payload and deletes the key's replica on the
// node whose segment holds it, as of its place in that segment: recovery
// drops the replica, and the key once no replica is left. Only the result
// cache's file (CacheFile) is ever written one; segments written before
// the bit existed never carry it.

const segMagic = "CASMSEG1"

const (
	flagColumnar  = 1
	flagTombstone = 2
)

// castagnoli is the CRC32C table; Castagnoli has hardware support on
// both amd64 and arm64, so checksumming stays off the read-path profile.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// entry is the parsed in-memory form of one segment entry.
type entry struct {
	key      []byte
	flags    uint64
	arity    int
	recCount int
	rawLen   int
	payload  []byte
	crc      uint32
}

// appendEntry encodes an entry (checksum included) onto dst.
func appendEntry(dst []byte, key []byte, flags uint64, arity, recCount, rawLen int, payload []byte) []byte {
	start := len(dst)
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		dst = append(dst, tmp[:n]...)
	}
	put(uint64(len(key)))
	dst = append(dst, key...)
	put(flags)
	if flags&flagColumnar != 0 {
		put(uint64(arity))
	}
	put(uint64(recCount))
	put(uint64(rawLen))
	put(uint64(len(payload)))
	dst = append(dst, payload...)
	sum := crc32.Checksum(dst[start:], castagnoli)
	var crcb [4]byte
	binary.LittleEndian.PutUint32(crcb[:], sum)
	return append(dst, crcb[:]...)
}

// parseEntry decodes one entry starting at data[off]. It returns the
// parsed entry and the offset just past it. Any structural problem —
// truncation, nonsense lengths, checksum mismatch — is an error; the
// caller decides whether that means a torn tail (truncate) or a corrupt
// replica (fail over).
func parseEntry(data []byte, off int) (entry, int, error) {
	var e entry
	p := off
	get := func(what string) (uint64, error) {
		v, k := binary.Uvarint(data[p:])
		if k <= 0 {
			return 0, fmt.Errorf("blockstore: truncated %s at offset %d", what, p)
		}
		p += k
		return v, nil
	}
	keyLen, err := get("key length")
	if err != nil {
		return e, 0, err
	}
	if keyLen > uint64(len(data)-p) {
		return e, 0, fmt.Errorf("blockstore: key of %d bytes exceeds segment at offset %d", keyLen, off)
	}
	e.key = data[p : p+int(keyLen)]
	p += int(keyLen)
	if e.flags, err = get("flags"); err != nil {
		return e, 0, err
	}
	if e.flags&flagColumnar != 0 {
		a, err := get("arity")
		if err != nil {
			return e, 0, err
		}
		e.arity = int(a)
	}
	rc, err := get("record count")
	if err != nil {
		return e, 0, err
	}
	e.recCount = int(rc)
	rl, err := get("raw length")
	if err != nil {
		return e, 0, err
	}
	e.rawLen = int(rl)
	pl, err := get("payload length")
	if err != nil {
		return e, 0, err
	}
	if pl > uint64(len(data)-p) {
		return e, 0, fmt.Errorf("blockstore: payload of %d bytes exceeds segment at offset %d", pl, off)
	}
	e.payload = data[p : p+int(pl)]
	p += int(pl)
	if len(data)-p < 4 {
		return e, 0, fmt.Errorf("blockstore: truncated checksum at offset %d", p)
	}
	e.crc = binary.LittleEndian.Uint32(data[p : p+4])
	if got := crc32.Checksum(data[off:p], castagnoli); got != e.crc {
		return e, 0, fmt.Errorf("blockstore: checksum mismatch at offset %d (stored %08x, computed %08x)", off, e.crc, got)
	}
	return e, p + 4, nil
}

// nodeDir returns the directory holding one storage node's segments.
func nodeDir(root string, node int) string {
	return filepath.Join(root, "n"+strconv.Itoa(node))
}

// segName maps a logical file name to its filesystem-safe segment file
// name (logical names may contain separators, e.g. "results/q6").
func segName(file string) string { return url.PathEscape(file) + ".seg" }

// segFile reverses segName; non-segment files in a node dir are skipped.
func segFile(name string) (string, bool) {
	const suf = ".seg"
	if len(name) <= len(suf) || name[len(name)-len(suf):] != suf {
		return "", false
	}
	f, err := url.PathUnescape(name[:len(name)-len(suf)])
	if err != nil {
		return "", false
	}
	return f, true
}

// SegmentPath returns the on-disk path of one node's segment for a
// logical file. Exported for fault-injection tests that corrupt
// specific replicas on disk.
func SegmentPath(dir string, node int, file string) string {
	return filepath.Join(nodeDir(dir, node), segName(file))
}
