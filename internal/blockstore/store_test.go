package blockstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/recio"
)

func genRecords(n, arity int, seed int64) []cube.Record {
	rng := rand.New(rand.NewSource(seed))
	out := make([]cube.Record, n)
	for i := range out {
		r := make(cube.Record, arity)
		for j := range r {
			r[j] = rng.Int63n(1000)
		}
		out[i] = r
	}
	return out
}

// readAll decodes every record of a file through the block reader.
func readAll(t *testing.T, s *Store, file string, arity int) []cube.Record {
	t.Helper()
	blocks, err := s.Blocks(file)
	if err != nil {
		t.Fatalf("Blocks: %v", err)
	}
	var out []cube.Record
	for _, b := range blocks {
		data, err := s.ReadBlock(file, b.Index)
		if err != nil {
			t.Fatalf("ReadBlock %d: %v", b.Index, err)
		}
		fr := recio.NewFrameReader(data)
		for {
			payload, ok, err := fr.Next()
			if err != nil {
				t.Fatalf("frame: %v", err)
			}
			if !ok {
				break
			}
			rec := make(cube.Record, arity)
			if err := recio.DecodeRecordInto(payload, rec); err != nil {
				t.Fatalf("record: %v", err)
			}
			out = append(out, rec)
		}
	}
	return out
}

func recordsEqual(a, b []cube.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func TestWriteReadRoundTrip(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), BlockSize: 1 << 12, Replication: 2, NumNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs := genRecords(5000, 6, 1)
	if err := s.WriteRecords("data", 6, "digest-a", recs); err != nil {
		t.Fatal(err)
	}
	got := readAll(t, s, "data", 6)
	if !recordsEqual(recs, got) {
		t.Fatalf("round trip mismatch: %d records in, %d out", len(recs), len(got))
	}
	info, err := s.FileInfo("data")
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != int64(len(recs)) || info.Arity != 6 || info.SchemaDigest != "digest-a" {
		t.Fatalf("FileInfo = %+v", info)
	}
	if info.Blocks < 2 {
		t.Fatalf("expected multiple blocks, got %d", info.Blocks)
	}
	if info.StoredBytes >= info.RawBytes {
		t.Fatalf("columnar compression did not shrink: stored %d >= raw %d", info.StoredBytes, info.RawBytes)
	}
}

func TestReopenRebuildsIndexWithoutRescan(t *testing.T) {
	dir := t.TempDir()
	recs := genRecords(3000, 5, 2)
	s, err := Open(Config{Dir: dir, BlockSize: 1 << 12, Replication: 2, NumNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteRecords("data", 5, "dg", recs); err != nil {
		t.Fatal(err)
	}
	if err := s.PutMeta("schema/x", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{Dir: dir, BlockSize: 1 << 12, Replication: 2, NumNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	info, err := s2.FileInfo("data")
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != int64(len(recs)) || info.SchemaDigest != "dg" {
		t.Fatalf("after reopen FileInfo = %+v", info)
	}
	if v, ok := s2.GetMeta("schema/x"); !ok || string(v) != "12345" {
		t.Fatalf("meta after reopen = %q, %v", v, ok)
	}
	got := readAll(t, s2, "data", 5)
	if !recordsEqual(recs, got) {
		t.Fatal("records differ after reopen")
	}
	if st := s2.Stats(); st.TornTails != 0 {
		t.Fatalf("clean reopen counted torn tails: %+v", st)
	}
	if list := s2.List(); len(list) != 1 || list[0] != "data" {
		t.Fatalf("List = %v", list)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	recs := genRecords(4000, 4, 3)
	s, err := Open(Config{Dir: dir, BlockSize: 1 << 12, Replication: 1, NumNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteRecords("data", 4, "", recs); err != nil {
		t.Fatal(err)
	}
	committed, err := s.FileInfo("data")
	if err != nil {
		t.Fatal(err)
	}
	prefix := readAll(t, s, "data", 4)
	s.Close()

	// Simulate a crash mid-append: garbage at the tail of the segment.
	path := SegmentPath(dir, 0, "data")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x17, 0x03, 0xff, 0xfe, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(Config{Dir: dir, BlockSize: 1 << 12, Replication: 1, NumNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.TornTails == 0 {
		t.Fatalf("torn tail not detected: %+v", st)
	}
	info, err := s2.FileInfo("data")
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != committed.Records || info.Blocks != committed.Blocks {
		t.Fatalf("truncation lost committed blocks: %+v vs %+v", info, committed)
	}
	if got := readAll(t, s2, "data", 4); !recordsEqual(prefix, got) {
		t.Fatal("committed prefix differs after truncation")
	}
	// The truncation is physical: a third open is clean.
	s2.Close()
	s3, err := Open(Config{Dir: dir, BlockSize: 1 << 12, Replication: 1, NumNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if st := s3.Stats(); st.TornTails != 0 {
		t.Fatalf("truncation not persisted: %+v", st)
	}
}

func TestBitFlipFailsOverToSurvivingReplica(t *testing.T) {
	dir := t.TempDir()
	recs := genRecords(2000, 4, 4)
	s, err := Open(Config{Dir: dir, BlockSize: 1 << 12, Replication: 2, NumNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteRecords("data", 4, "", recs); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the replica that reads try first: scribble over the
	// whole entry region of block 0's primary node. Every block whose
	// primary landed there must fail over to the surviving replica.
	blocks, err := s.Blocks("data")
	if err != nil {
		t.Fatal(err)
	}
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

	got := readAll(t, s, "data", 4)
	if !recordsEqual(recs, got) {
		t.Fatal("read through bit flip returned wrong records")
	}
	if st := s.Stats(); st.ChecksumFailovers == 0 {
		t.Fatalf("expected checksum failovers, got %+v", st)
	}
	s.Close()
}

func TestFailNodeAndAllReplicasDown(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), BlockSize: 1 << 12, Replication: 2, NumNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs := genRecords(1000, 4, 5)
	if err := s.WriteRecords("data", 4, "", recs); err != nil {
		t.Fatal(err)
	}
	s.FailNode(0)
	if got := readAll(t, s, "data", 4); !recordsEqual(recs, got) {
		t.Fatal("read with one node down returned wrong records")
	}
	s.FailNode(1)
	s.FailNode(2)
	if _, err := s.ReadBlock("data", 0); err == nil {
		t.Fatal("expected read failure with all nodes down")
	}
	s.RecoverNode(0)
	s.RecoverNode(1)
	s.RecoverNode(2)
	if got := readAll(t, s, "data", 4); !recordsEqual(recs, got) {
		t.Fatal("read after recovery returned wrong records")
	}
}

func TestRawOverwriteLastWins(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Replication: 2, NumNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.PutRaw("kv", []byte("k"), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if v, err := s.ReadByKey("kv", []byte("k")); err != nil || string(v) != "v2" {
		t.Fatalf("ReadByKey = %q, %v", v, err)
	}
	s.Close()
	s2, err := Open(Config{Dir: dir, Replication: 2, NumNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, err := s2.ReadByKey("kv", []byte("k")); err != nil || string(v) != "v2" {
		t.Fatalf("after reopen ReadByKey = %q, %v", v, err)
	}
}

func TestWriterAppendsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, BlockSize: 1 << 12, Replication: 1, NumNodes: 2}
	a := genRecords(1500, 4, 6)
	b := genRecords(1500, 4, 7)
	s, _ := Open(cfg)
	if err := s.WriteRecords("data", 4, "", a); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, _ := Open(cfg)
	if err := s2.WriteRecords("data", 4, "", b); err != nil {
		t.Fatal(err)
	}
	got := readAll(t, s2, "data", 4)
	if !recordsEqual(append(append([]cube.Record{}, a...), b...), got) {
		t.Fatal("append across reopen lost or reordered records")
	}
	s2.Close()
}

func TestDeleteRemovesSegments(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(Config{Dir: dir, Replication: 2, NumNodes: 3})
	defer s.Close()
	if err := s.WriteRecords("data", 4, "", genRecords(100, 4, 8)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("data"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Blocks("data"); err == nil {
		t.Fatal("blocks listed after delete")
	}
	for n := 0; n < 3; n++ {
		if _, err := os.Stat(SegmentPath(dir, n, "data")); !os.IsNotExist(err) {
			t.Fatalf("segment survives delete on node %d", n)
		}
	}
}

func TestColumnarCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		arity := 1 + rng.Intn(8)
		n := 1 + rng.Intn(200) // the Writer never cuts an empty block, and the decoder rejects one
		rows := make([]int64, n*arity)
		var want []byte
		rec := make(cube.Record, arity)
		for r := 0; r < n; r++ {
			for c := 0; c < arity; c++ {
				v := rng.Int63n(1 << uint(rng.Intn(40)))
				rows[r*arity+c] = v
				rec[c] = v
			}
			enc := recio.AppendRecord(nil, rec)
			var err error
			want, err = recio.AppendFrame(want, enc)
			if err != nil {
				t.Fatal(err)
			}
		}
		payload := appendColumnar(nil, rows, arity, n)
		got, err := frameColumnar(payload, arity, n, len(want))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("trial %d: decoded frames differ", trial)
		}
	}
}
