package blockstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"github.com/casm-project/casm/internal/recio"
)

// columnarBlock encodes rows (row-major, n*arity values) the way the
// Writer does and returns the payload with the footer's raw length.
func columnarBlock(rows []int64, arity int) (payload []byte, n, rawLen int) {
	n = len(rows) / arity
	for r := 0; r < n; r++ {
		rec := recio.AppendRecord(nil, rows[r*arity:(r+1)*arity])
		rawLen += recio.UvarintLen(uint64(len(rec))) + len(rec)
	}
	return appendColumnar(nil, rows, arity, n), n, rawLen
}

// referenceDecode is the naive column-at-a-time decoder RowReader is held
// against: it runs the same checks, then decodes every column into an
// n×arity matrix and frames the matrix row by row. It returns the rows and
// the recio frame stream the writer measured.
func referenceDecode(payload []byte, arity, n, rawLen int) (rows []int64, frames []byte, err error) {
	if err := checkColumnarShape(arity, n, rawLen, len(payload)); err != nil {
		return nil, nil, err
	}
	rows = make([]int64, n*arity)
	off := 0
	for c := 0; c < arity; c++ {
		prev := int64(0)
		for r := 0; r < n; r++ {
			u, k := binary.Uvarint(payload[off:])
			if k <= 0 {
				return nil, nil, corruptf("truncated column %d at record %d", c, r)
			}
			off += k
			prev += unzigzag(u)
			rows[r*arity+c] = prev
		}
	}
	if off != len(payload) {
		return nil, nil, corruptf("%d trailing bytes in columnar payload", len(payload)-off)
	}
	for r := 0; r < n; r++ {
		if frames, err = recio.AppendFrame(frames, recio.AppendRecord(nil, rows[r*arity:(r+1)*arity])); err != nil {
			return nil, nil, err
		}
	}
	if len(frames) != rawLen {
		return nil, nil, corruptf("decoded %d bytes, footer says %d", len(frames), rawLen)
	}
	return rows, frames, nil
}

// appendBatch appends b's records to dst row-major, after checking its
// shape: arity columns of b.N values each, b.N in [1, rowBatch].
func appendBatch(t testing.TB, dst []int64, b Batch, arity int) []int64 {
	t.Helper()
	if len(b.Cols) != arity || b.N < 1 || b.N > rowBatch {
		t.Fatalf("batch of %d records in %d columns, arity %d", b.N, len(b.Cols), arity)
	}
	for _, col := range b.Cols {
		if len(col) != b.N {
			t.Fatalf("column of %d values in a batch of %d", len(col), b.N)
		}
	}
	for i := 0; i < b.N; i++ {
		for _, col := range b.Cols {
			dst = append(dst, col[i])
		}
	}
	return dst
}

// decodeChecked runs one entry through RowReader — batch by batch, and
// framed the way ReadBlock frames it — and through the reference, and
// demands that all three agree: the same records, every batch's columns
// equal to the reference's values at its rows, and the same frame bytes,
// or an ErrCorruptBlock from each. It returns the rows and whether the
// entry was accepted. The fuzz target and the parity table share it.
func decodeChecked(t testing.TB, payload []byte, arity, n, rawLen int) ([]int64, bool) {
	t.Helper()
	wantRows, wantFrames, referr := referenceDecode(payload, arity, n, rawLen)
	frames, ferr := frameColumnar(payload, arity, n, rawLen)
	var rows []int64
	rr, rerr := newRowReader(payload, arity, n, rawLen)
	for rerr == nil {
		b, ok, err := rr.Next()
		if err != nil {
			rows, rerr = nil, err
			break
		}
		if !ok {
			break
		}
		first := len(rows) / arity
		rows = appendBatch(t, rows, b, arity)
		for c, col := range b.Cols {
			for i, v := range col {
				if referr == nil && v != wantRows[(first+i)*arity+c] {
					t.Fatalf("record %d attribute %d: batch holds %d, reference %d", first+i, c, v, wantRows[(first+i)*arity+c])
				}
			}
		}
	}
	if (referr == nil) != (rerr == nil) || (referr == nil) != (ferr == nil) {
		t.Fatalf("decoders disagree: reference err=%v, rows err=%v, frames err=%v", referr, rerr, ferr)
	}
	if referr != nil {
		if !errors.Is(rerr, ErrCorruptBlock) || !errors.Is(ferr, ErrCorruptBlock) {
			t.Fatalf("untyped decode error: rows %v, frames %v", rerr, ferr)
		}
		return nil, false
	}
	// Accepted, so the shape bounds held and bound both allocations: the
	// frame buffer is rawLen ≤ 2*MaxVarintLen64*len(payload) bytes, the
	// rows at most len(payload) values.
	if len(rows) != n*arity || len(rows) > len(payload) || len(frames) != rawLen {
		t.Fatalf("decoded %d values and %d frame bytes from a %d-byte payload of shape %dx%d raw %d",
			len(rows), len(frames), len(payload), n, arity, rawLen)
	}
	if !slices.Equal(rows, wantRows) {
		t.Fatal("RowReader and the reference decoded different records")
	}
	if !bytes.Equal(frames, wantFrames) {
		t.Fatal("frameColumnar and the reference built different frame streams")
	}
	return rows, true
}

// carveChecked holds carveRows to what decodeChecked found for the same
// entry: a rejected entry fails the carve with ErrCorruptBlock, and an
// accepted one is cut into runs whose rows, opened in order — each run
// twice, as a retried task would — are the block's rows; every run but
// the last reaches target framed bytes (at least one) and would not
// without its last row, and each run's size is what its rows occupy
// framed.
func carveChecked(t testing.TB, payload []byte, arity, n, rawLen, target int, rows []int64, accepted bool) {
	t.Helper()
	runs, err := carveRows(payload, arity, n, rawLen, target)
	if !accepted {
		if !errors.Is(err, ErrCorruptBlock) {
			t.Fatalf("carve of a rejected entry: %v, want ErrCorruptBlock", err)
		}
		return
	}
	if err != nil {
		t.Fatalf("carve of an accepted entry: %v", err)
	}
	var got []int64
	for i, rr := range runs {
		var run []int64
		for pass := 0; pass < 2; pass++ {
			var again []int64
			r := rr.Open()
			for {
				b, ok, err := r.Next()
				if err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
				if !ok {
					break
				}
				again = appendBatch(t, again, b, arity)
			}
			if pass == 1 && !slices.Equal(again, run) {
				t.Fatalf("run %d read twice: %v, then %v", i, run, again)
			}
			run = again
		}
		framed, last := 0, 0
		for r := 0; r < len(run); r += arity {
			rec := recio.AppendRecord(nil, run[r:r+arity])
			last = recio.UvarintLen(uint64(len(rec))) + len(rec)
			framed += last
		}
		if len(run) == 0 || framed != rr.Size() {
			t.Fatalf("run %d: %d values framed in %d bytes, size says %d", i, len(run), framed, rr.Size())
		}
		if cut := max(target, 1); i < len(runs)-1 && (framed < cut || framed-last >= cut) {
			t.Fatalf("run %d of %d bytes, %d without its last row, at target %d", i, framed, framed-last, target)
		}
		got = append(got, run...)
	}
	if !slices.Equal(got, rows) {
		t.Fatal("the runs' rows are not the block's")
	}
}

// codecCase is one entry of the decoder parity table.
type codecCase struct {
	name             string
	payload          []byte
	arity, n, rawLen int
	valid            bool
	wantRows         []int64
	// crafted marks the shapes of satellite 1: header fields (negative ones
	// are uvarints past MaxInt64 under parseEntry's int()) from which the
	// decoders used to size their allocations before looking at the payload.
	crafted bool
}

// codecCases builds the table around one real block of records rows.
func codecCases(records int) []codecCase {
	rng := rand.New(rand.NewSource(20))
	const arity = 3
	rows := make([]int64, records*arity)
	for i := range rows {
		switch rng.Intn(10) {
		case 0:
			rows[i] = -rng.Int63n(1 << 20) // a negative value is a ten-byte attribute in recio framing
		case 1:
			rows[i] = rng.Int63()
		default:
			rows[i] = rng.Int63n(500)
		}
	}
	payload, n, rawLen := columnarBlock(rows, arity)
	small, sn, sraw := columnarBlock([]int64{1, 2, 3, 4, 5, 6}, 2)
	overlong := append(bytes.Repeat([]byte{0x80}, 10), 0x02) // an 11-byte varint where a value should be
	return []codecCase{
		{name: "valid", payload: payload, arity: arity, n: n, rawLen: rawLen, valid: true, wantRows: rows},
		{name: "valid-small", payload: small, arity: 2, n: sn, rawLen: sraw, valid: true, wantRows: []int64{1, 2, 3, 4, 5, 6}},
		{name: "no-records", payload: nil, arity: 3, n: 0, rawLen: 0},
		{name: "no-records-arity-huge", payload: nil, arity: 1 << 40, n: 0, rawLen: 0, crafted: true},
		{name: "truncated-column", payload: payload[:len(payload)-1], arity: arity, n: n, rawLen: rawLen},
		{name: "truncated-midway", payload: payload[:len(payload)/2], arity: arity, n: n, rawLen: rawLen},
		{name: "trailing-bytes", payload: append(append([]byte(nil), payload...), 0), arity: arity, n: n, rawLen: rawLen},
		{name: "footer-short", payload: payload, arity: arity, n: n, rawLen: rawLen - 1},
		{name: "footer-long", payload: payload, arity: arity, n: n, rawLen: rawLen + 1},
		{name: "overlong-varint", payload: append(overlong, 0x02), arity: 2, n: 1, rawLen: 3},
		{name: "arity-0", payload: small, arity: 0, n: sn, rawLen: sraw},
		{name: "arity-negative", payload: small, arity: -2, n: sn, rawLen: sraw},
		{name: "records-negative", payload: small, arity: 2, n: -1, rawLen: sraw, crafted: true},
		{name: "records-huge", payload: small, arity: 2, n: 1 << 40, rawLen: sraw, crafted: true},
		{name: "shape-overflows", payload: small, arity: 4, n: math.MaxInt64/4 + 1, rawLen: sraw, crafted: true},
		{name: "more-values-than-bytes", payload: small, arity: 2, n: sn + 1, rawLen: sraw + 3},
		{name: "raw-huge", payload: small, arity: 2, n: sn, rawLen: 1 << 40, crafted: true},
		{name: "raw-negative", payload: small, arity: 2, n: sn, rawLen: -1, crafted: true},
		{name: "raw-too-small", payload: small, arity: 2, n: sn, rawLen: sn*3 - 1},
	}
}

// TestColumnarDecodersAgree is the decoder parity table: every payload,
// well-formed or not, gets the same verdict — and on acceptance the same
// records and frames — from RowReader and the reference decoder.
func TestColumnarDecodersAgree(t *testing.T) {
	for _, tc := range codecCases(rowBatch + 100) { // two batches, the second one partial
		t.Run(tc.name, func(t *testing.T) {
			rows, accepted := decodeChecked(t, tc.payload, tc.arity, tc.n, tc.rawLen)
			if accepted != tc.valid {
				t.Fatalf("accepted=%v, want %v", accepted, tc.valid)
			}
			if accepted && !slices.Equal(rows, tc.wantRows) {
				t.Fatal("decoded rows differ from the rows encoded")
			}
			for _, target := range []int{-1, 1, 64, 1 << 20} {
				carveChecked(t, tc.payload, tc.arity, tc.n, tc.rawLen, target, rows, accepted)
			}
		})
	}
}

// writeSegment lays down one node's segment for file by hand.
func writeSegment(t *testing.T, dir string, node int, file string, entries ...[]byte) {
	t.Helper()
	path := SegmentPath(dir, node, file)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	data := []byte(segMagic)
	for _, e := range entries {
		data = append(data, e...)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCraftedEntryShapeRejected: an entry whose checksum is valid — it
// was computed over the crafted header — but whose header promises more
// records than its payload could hold must fail with ErrCorruptBlock
// after trying every replica, not size a slice from the header. (Before
// the shape check this test died in makeslice.)
func TestCraftedEntryShapeRejected(t *testing.T) {
	payload, _, rawLen := columnarBlock([]int64{1, 2, 3, 4, 5, 6, 7, 8}, 4)
	key := []byte{0, 0, 0, 0}
	for _, tc := range codecCases(8) {
		if !tc.crafted {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			crafted := appendEntry(nil, key, flagColumnar, tc.arity, tc.n, tc.rawLen, tc.payload)
			writeSegment(t, dir, 0, "data", crafted)
			writeSegment(t, dir, 1, "data", crafted)
			s, err := Open(Config{Dir: dir, NumNodes: 2, Replication: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if blocks, err := s.Blocks("data"); err != nil || len(blocks) != 1 || len(blocks[0].Replicas) != 2 {
				t.Fatalf("crafted entry not indexed on both nodes: %v %v", blocks, err)
			}
			if _, err := s.ReadBlock("data", 0); !errors.Is(err, ErrCorruptBlock) {
				t.Fatalf("ReadBlock: %v, want ErrCorruptBlock", err)
			}
			if _, err := s.ReadBlockRows("data", 0); !errors.Is(err, ErrCorruptBlock) {
				t.Fatalf("ReadBlockRows: %v, want ErrCorruptBlock", err)
			}
			if got := s.Stats().ChecksumFailovers; got != 4 {
				t.Fatalf("%d failovers, want both replicas tried by both reads", got)
			}
		})
	}
	// Control: the honest header over the same payload reads fine.
	dir := t.TempDir()
	writeSegment(t, dir, 0, "data", appendEntry(nil, key, flagColumnar, 4, 2, rawLen, payload))
	s, err := Open(Config{Dir: dir, NumNodes: 1, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := readAllRows(t, s, "data"); !slices.Equal(got, []int64{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("control block decoded to %v", got)
	}
}

// TestMalformedEntriesCorruptThroughFailover: every malformed shape of the
// parity table, stored under a valid checksum on two nodes, yields
// ErrCorruptBlock from ReadBlock, ReadBlockRows and ReadBlockRuns — also
// when the replica tried first has rotted since open, so the read reaches
// the malformed entry only by failing over to the second.
func TestMalformedEntriesCorruptThroughFailover(t *testing.T) {
	key := []byte{0, 0, 0, 0}
	for _, tc := range codecCases(rowBatch + 100) {
		if tc.valid {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			entry := appendEntry(nil, key, flagColumnar, tc.arity, tc.n, tc.rawLen, tc.payload)
			writeSegment(t, dir, 0, "data", entry)
			writeSegment(t, dir, 1, "data", entry)
			s, err := Open(Config{Dir: dir, NumNodes: 2, Replication: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			blocks, err := s.Blocks("data")
			if err != nil || len(blocks) != 1 || len(blocks[0].Replicas) != 2 {
				t.Fatalf("entry not indexed on both nodes: %v %v", blocks, err)
			}
			path := SegmentPath(dir, blocks[0].Replicas[0], "data")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 0x40 // the entry's checksum footer
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			if _, err := s.ReadBlock("data", 0); !errors.Is(err, ErrCorruptBlock) {
				t.Fatalf("ReadBlock: %v, want ErrCorruptBlock", err)
			}
			rr, err := s.ReadBlockRows("data", 0)
			for err == nil { // footer and varint defects surface while rows are drawn
				var ok bool
				if _, ok, err = rr.Next(); err == nil && !ok {
					t.Fatal("ReadBlockRows decoded a malformed entry to the end")
				}
			}
			if !errors.Is(err, ErrCorruptBlock) {
				t.Fatalf("ReadBlockRows: %v, want ErrCorruptBlock", err)
			}
			if _, err := s.ReadBlockRuns("data", 0, 64); !errors.Is(err, ErrCorruptBlock) {
				t.Fatalf("ReadBlockRuns: %v, want ErrCorruptBlock", err)
			}
			// Each read fails over off the rotted replica; a shape the payload
			// cannot back fails the second replica over too.
			want := int64(3)
			if checkColumnarShape(tc.arity, tc.n, tc.rawLen, len(tc.payload)) != nil {
				want = 6
			}
			if got := s.Stats().ChecksumFailovers; got != want {
				t.Fatalf("%d failovers, want %d", got, want)
			}
		})
	}
}

// TestReadBlockAllocatesOneFrameBuffer: framing a block costs the entry
// read, the rawLen buffer it returns and one batch of columns — never a decoded
// copy of the whole block (8·records·arity bytes) beside them.
func TestReadBlockAllocatesOneFrameBuffer(t *testing.T) {
	const records, arity = 16 << 10, 6
	s, err := Open(Config{Dir: t.TempDir(), BlockSize: 1 << 20, NumNodes: 1, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.WriteRecords("data", arity, "", genRecords(records, arity, 22)); err != nil {
		t.Fatal(err)
	}
	blocks, err := s.Blocks("data")
	if err != nil || len(blocks) != 1 || blocks[0].Records != records {
		t.Fatalf("want one block of %d records, got %v %v", records, blocks, err)
	}
	read := func() {
		if got, err := s.ReadBlock("data", 0); err != nil || len(got) != blocks[0].Size {
			t.Fatalf("ReadBlock: %d bytes, %v", len(got), err)
		}
	}
	before := s.Stats().BytesRead
	read() // warm: file-table and runtime one-offs
	entry := s.Stats().BytesRead - before
	const rounds = 8
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		read()
	}
	runtime.ReadMemStats(&m1)
	perRead := int64(m1.TotalAlloc-m0.TotalAlloc) / rounds
	// The constant covers the three buffers' rounding up to whole pages,
	// the file handle and the reader itself.
	ceiling := entry + int64(blocks[0].Size) + rowBatch*arity*8 + 32<<10
	t.Logf("%d bytes per read: entry %d, frames %d, ceiling %d", perRead, entry, blocks[0].Size, ceiling)
	if perRead > ceiling {
		t.Fatalf("a read allocates %d bytes, ceiling %d (a decoded matrix would add %d)", perRead, ceiling, 8*records*arity)
	}
}

// readAllRows concatenates every row of a file through ReadBlockRows.
func readAllRows(t *testing.T, s *Store, file string) []int64 {
	t.Helper()
	blocks, err := s.Blocks(file)
	if err != nil {
		t.Fatal(err)
	}
	var out []int64
	for _, b := range blocks {
		rr, err := s.ReadBlockRows(file, b.Index)
		if err != nil {
			t.Fatalf("ReadBlockRows %d: %v", b.Index, err)
		}
		for {
			batch, ok, err := rr.Next()
			if err != nil {
				t.Fatalf("block %d: %v", b.Index, err)
			}
			if !ok {
				break
			}
			out = appendBatch(t, out, batch, len(batch.Cols))
		}
		if err := rr.Close(); err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := rr.Next(); ok {
			t.Fatal("Next after Close yielded a row")
		}
	}
	return out
}

// TestRowReadMatchesFrameReadThroughFailover: the row read is the block
// read — same records, same accounting, same failover when the replica
// it tries first is corrupt.
func TestRowReadMatchesFrameReadThroughFailover(t *testing.T) {
	dir := t.TempDir()
	recs := genRecords(3000, 4, 12)
	s, err := Open(Config{Dir: dir, BlockSize: 1 << 12, Replication: 2, NumNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.WriteRecords("data", 4, "", recs); err != nil {
		t.Fatal(err)
	}
	var want []int64
	for _, r := range recs {
		want = append(want, r...)
	}

	before := s.Stats()
	if got := readAllRows(t, s, "data"); !slices.Equal(got, want) {
		t.Fatal("row read returned different records")
	}
	rowReads := s.Stats()
	if !recordsEqual(recs, readAll(t, s, "data", 4)) {
		t.Fatal("frame read returned different records")
	}
	frameReads := s.Stats()
	if a, b := rowReads.BlockReads-before.BlockReads, frameReads.BlockReads-rowReads.BlockReads; a != b || a == 0 {
		t.Fatalf("row scan counted %d block reads, frame scan %d", a, b)
	}
	if a, b := rowReads.BytesRead-before.BytesRead, frameReads.BytesRead-rowReads.BytesRead; a != b {
		t.Fatalf("row scan counted %d bytes read, frame scan %d", a, b)
	}

	blocks, _ := s.Blocks("data")
	path := SegmentPath(dir, blocks[0].Replicas[0], "data")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(segMagic); i < len(data); i++ {
		data[i] ^= 0x40
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := readAllRows(t, s, "data"); !slices.Equal(got, want) {
		t.Fatal("row read through a corrupt first replica returned different records")
	}
	if s.Stats().ChecksumFailovers == 0 {
		t.Fatal("no failover counted")
	}
}

// TestReadEntryCopiesOnce: a read allocates the entry once — the buffer
// it is read into — and returns the payload inside it, not a second copy.
func TestReadEntryCopiesOnce(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), NumNodes: 1, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const size = 1 << 20
	payload := bytes.Repeat([]byte{0xAB}, size)
	if err := s.PutRaw("blob", []byte("k"), payload); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	read := func() {
		got, err := s.ReadBlock("blob", 0)
		if err != nil || len(got) != size {
			t.Fatalf("ReadBlock: %d bytes, %v", len(got), err)
		}
	}
	read() // warm: file-table and runtime one-offs
	const rounds = 8
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		read()
	}
	runtime.ReadMemStats(&m1)
	perRead := float64(m1.TotalAlloc-m0.TotalAlloc) / rounds
	t.Logf("%.2fx the entry allocated per read", perRead/size)
	if perRead > 1.5*size {
		t.Fatalf("a read allocates %.0f bytes for a %d-byte entry: copied more than once", perRead, size)
	}
}

// batchEdgeSizes are block sizes around the decoder's batch of rowBatch
// records: one record, one short of a batch, a batch, one past it, and
// three batches and one record.
var batchEdgeSizes = []int{1, rowBatch - 1, rowBatch, rowBatch + 1, 3*rowBatch + 1}

// edgeRows is n records of arity 3 with small signed values.
func edgeRows(n int) []int64 {
	rng := rand.New(rand.NewSource(int64(n)))
	rows := make([]int64, n*3)
	for i := range rows {
		rows[i] = rng.Int63n(300) - 20
	}
	return rows
}

// TestBatchEdgesDecode: a block of every batchEdgeSizes size decodes, batch
// by batch and framed, to what referenceDecode decodes; and a carve whose
// runs start and end inside batches, at every target from one record to
// past the block, resumes each run mid-batch to the block's records.
func TestBatchEdgesDecode(t *testing.T) {
	for _, n := range batchEdgeSizes {
		rows := edgeRows(n)
		payload, _, rawLen := columnarBlock(rows, 3)
		got, ok := decodeChecked(t, payload, 3, n, rawLen)
		if !ok || !slices.Equal(got, rows) {
			t.Fatalf("%d records: accepted=%v, equal=%v", n, ok, slices.Equal(got, rows))
		}
		midBatch := false
		for _, target := range []int{1, 7, 1000, 4099, rawLen - 1, rawLen + 1} {
			carveChecked(t, payload, 3, n, rawLen, target, rows, true)
			runs, _ := carveRows(payload, 3, n, rawLen, target)
			start := 0
			for _, rr := range runs {
				end := rr.Open().n
				// A run that starts inside a batch and ends past its end.
				midBatch = midBatch || (start%rowBatch != 0 && end/rowBatch > start/rowBatch)
				start = end
			}
			if start != n {
				t.Fatalf("%d records at target %d: the runs end at record %d", n, target, start)
			}
		}
		if n > rowBatch && !midBatch {
			t.Errorf("%d records: no run started inside a batch and crossed its end", n)
		}
	}
}

// TestBatchEdgesCorrupt pins, for blocks of every batchEdgeSizes size, the
// ErrCorruptBlock text of a truncated column, a trailing byte, a footer
// one byte long, and an eleven-byte varint (which the skip pass accepts
// and the batch decode rejects) at records around the batch edges, in the
// first and the last column: RowReader, frameColumnar and carveRows fail
// alike, naming the record the row-at-a-time decoder named.
func TestBatchEdgesCorrupt(t *testing.T) {
	overlongAt := func(rows []int64, n, c, r int) []byte {
		var dst []byte
		for cc := 0; cc < 3; cc++ {
			prev := int64(0)
			for rr := 0; rr < n; rr++ {
				v := rows[rr*3+cc]
				if cc == c && rr == r {
					dst = append(dst, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02)
				} else {
					dst = binary.AppendUvarint(dst, zigzag(v-prev))
				}
				prev = v
			}
		}
		return dst
	}
	for _, tc := range []struct {
		n          int
		name, want string
	}{
		{1, "truncated", "truncated column 2 at record 0"},
		{1, "trailing", "1 trailing bytes in columnar payload"},
		{1, "footer+1", "decoded 5 bytes, footer says 6"},
		{1, "overlong c0 r0", "truncated column 0 at record 0"},
		{1, "overlong c2 r0", "truncated column 2 at record 0"},
		{1023, "truncated", "truncated column 2 at record 1022"},
		{1023, "trailing", "1 trailing bytes in columnar payload"},
		{1023, "footer+1", "decoded 7211 bytes, footer says 7212"},
		{1023, "overlong c0 r0", "truncated column 0 at record 0"},
		{1023, "overlong c0 r1022", "truncated column 0 at record 1022"},
		{1023, "overlong c2 r0", "truncated column 2 at record 0"},
		{1023, "overlong c2 r1022", "truncated column 2 at record 1022"},
		{1024, "truncated", "truncated column 2 at record 1023"},
		{1024, "trailing", "1 trailing bytes in columnar payload"},
		{1024, "footer+1", "decoded 7482 bytes, footer says 7483"},
		{1024, "overlong c0 r0", "truncated column 0 at record 0"},
		{1024, "overlong c0 r1022", "truncated column 0 at record 1022"},
		{1024, "overlong c0 r1023", "truncated column 0 at record 1023"},
		{1024, "overlong c2 r0", "truncated column 2 at record 0"},
		{1024, "overlong c2 r1022", "truncated column 2 at record 1022"},
		{1024, "overlong c2 r1023", "truncated column 2 at record 1023"},
		{1025, "truncated", "truncated column 2 at record 1024"},
		{1025, "trailing", "1 trailing bytes in columnar payload"},
		{1025, "footer+1", "decoded 7406 bytes, footer says 7407"},
		{1025, "overlong c0 r0", "truncated column 0 at record 0"},
		{1025, "overlong c0 r1022", "truncated column 0 at record 1022"},
		{1025, "overlong c0 r1023", "truncated column 0 at record 1023"},
		{1025, "overlong c0 r1024", "truncated column 0 at record 1024"},
		{1025, "overlong c2 r0", "truncated column 2 at record 0"},
		{1025, "overlong c2 r1022", "truncated column 2 at record 1022"},
		{1025, "overlong c2 r1023", "truncated column 2 at record 1023"},
		{1025, "overlong c2 r1024", "truncated column 2 at record 1024"},
		{3073, "truncated", "truncated column 2 at record 3072"},
		{3073, "trailing", "1 trailing bytes in columnar payload"},
		{3073, "footer+1", "decoded 22410 bytes, footer says 22411"},
		{3073, "overlong c0 r0", "truncated column 0 at record 0"},
		{3073, "overlong c0 r1022", "truncated column 0 at record 1022"},
		{3073, "overlong c0 r1023", "truncated column 0 at record 1023"},
		{3073, "overlong c0 r1024", "truncated column 0 at record 1024"},
		{3073, "overlong c0 r1025", "truncated column 0 at record 1025"},
		{3073, "overlong c0 r2047", "truncated column 0 at record 2047"},
		{3073, "overlong c0 r2048", "truncated column 0 at record 2048"},
		{3073, "overlong c0 r3072", "truncated column 0 at record 3072"},
		{3073, "overlong c2 r0", "truncated column 2 at record 0"},
		{3073, "overlong c2 r1022", "truncated column 2 at record 1022"},
		{3073, "overlong c2 r1023", "truncated column 2 at record 1023"},
		{3073, "overlong c2 r1024", "truncated column 2 at record 1024"},
		{3073, "overlong c2 r1025", "truncated column 2 at record 1025"},
		{3073, "overlong c2 r2047", "truncated column 2 at record 2047"},
		{3073, "overlong c2 r2048", "truncated column 2 at record 2048"},
		{3073, "overlong c2 r3072", "truncated column 2 at record 3072"},
	} {
		rows := edgeRows(tc.n)
		payload, _, rawLen := columnarBlock(rows, 3)
		var c, r int
		switch tc.name {
		case "truncated":
			payload = payload[:len(payload)-1]
		case "trailing":
			payload = append(payload, 0)
		case "footer+1":
			rawLen++
		default:
			if _, err := fmt.Sscanf(tc.name, "overlong c%d r%d", &c, &r); err != nil {
				t.Fatal(err)
			}
			payload = overlongAt(rows, tc.n, c, r)
		}
		want := ErrCorruptBlock.Error() + ": " + tc.want
		var rerr error
		rr, err := newRowReader(payload, 3, tc.n, rawLen)
		for rerr = err; rerr == nil; {
			var ok bool
			if _, ok, rerr = rr.Next(); !ok {
				break
			}
		}
		_, ferr := frameColumnar(payload, 3, tc.n, rawLen)
		_, cerr := carveRows(payload, 3, tc.n, rawLen, 64)
		for _, got := range []error{rerr, ferr, cerr} {
			if !errors.Is(got, ErrCorruptBlock) || got.Error() != want {
				t.Errorf("%d records, %s: %v, want %q", tc.n, tc.name, got, want)
			}
		}
	}
}

// FuzzColumnarDecode feeds arbitrary (payload, shape) entries — what a
// segment can hold under a valid checksum — to both decoders: neither may
// panic, both must agree, and a shape the payload cannot back must be
// rejected before it sizes an allocation (decodeBoth checks all three).
// The carve of the entry at a fuzzed target must agree with them too
// (carveChecked). The seed corpus under testdata/fuzz is codecCases(40),
// written out once — a real block and every malformed shape of the parity
// table — with a target each.
func FuzzColumnarDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte, arity, n, rawLen, target int) {
		rows, accepted := decodeChecked(t, payload, arity, n, rawLen)
		carveChecked(t, payload, arity, n, rawLen, target, rows, accepted)
	})
}
