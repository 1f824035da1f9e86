package recio

import (
	"testing"
	"testing/quick"

	"github.com/casm-project/casm/internal/cube"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf []byte
	payloads := [][]byte{[]byte("a"), []byte("hello"), make([]byte, 300)}
	for _, p := range payloads {
		var err error
		buf, err = AppendFrame(buf, p)
		if err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(buf)
	for i, want := range payloads {
		got, ok, err := fr.Next()
		if err != nil || !ok {
			t.Fatalf("frame %d: ok=%v err=%v", i, ok, err)
		}
		if string(got) != string(want) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
	if _, ok, err := fr.Next(); ok || err != nil {
		t.Fatalf("expected clean end, ok=%v err=%v", ok, err)
	}
}

func TestEmptyPayloadRejected(t *testing.T) {
	if _, err := AppendFrame(nil, nil); err == nil {
		t.Error("empty payload accepted")
	}
}

func TestPaddingTerminator(t *testing.T) {
	buf, _ := AppendFrame(nil, []byte("x"))
	buf = append(buf, 0, 0, 0, 0) // zero terminator + fill
	fr := NewFrameReader(buf)
	if _, ok, _ := fr.Next(); !ok {
		t.Fatal("first frame missing")
	}
	if _, ok, err := fr.Next(); ok || err != nil {
		t.Fatalf("padding not treated as end: ok=%v err=%v", ok, err)
	}
}

func TestCorruptFrame(t *testing.T) {
	buf, _ := AppendFrame(nil, []byte("abc"))
	// Truncate mid-payload.
	fr := NewFrameReader(buf[:2])
	if _, _, err := fr.Next(); err == nil {
		t.Error("truncated frame accepted")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	f := func(raw []int64) bool {
		rec := make(cube.Record, len(raw))
		for i, v := range raw {
			if v < 0 {
				v = -v
			}
			rec[i] = v
		}
		if len(rec) == 0 {
			return true
		}
		buf := AppendRecord(nil, rec)
		back, err := DecodeRecord(buf, len(rec))
		if err != nil {
			return false
		}
		for i := range rec {
			if back[i] != rec[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRecordErrors(t *testing.T) {
	buf := AppendRecord(nil, cube.Record{1, 2, 3})
	if _, err := DecodeRecord(buf, 4); err == nil {
		t.Error("short record accepted")
	}
	if _, err := DecodeRecord(buf, 2); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestDecodeRecordInto(t *testing.T) {
	rec := cube.Record{7, 8, 9}
	buf := AppendRecord(nil, rec)
	dst := make(cube.Record, 3)
	if err := DecodeRecordInto(buf, dst); err != nil {
		t.Fatal(err)
	}
	for i := range rec {
		if dst[i] != rec[i] {
			t.Fatal("mismatch")
		}
	}
}
