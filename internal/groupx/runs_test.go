package groupx

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"testing"

	"github.com/casm-project/casm/internal/transport"
)

// TestHashRunsAreFramedBatches: a collector fed batches of exactly the
// budget, then a shorter residue, spills each batch as one run — its
// groups' frames by ascending key, each group's values in arrival order —
// and no run for the residue, which the merge reads from memory; Items,
// Runs and SpilledBytes (priced) are the model's, and the merged stream is
// the unbounded one.
func TestHashRunsAreFramedBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, tc := range []struct{ n, budget int }{{0, 5}, {3, 5}, {5, 5}, {23, 5}, {1000, 64}, {1024, 64}} {
		pairs := randomPairs(rng, tc.n, 40)
		c := NewHash(nil, t.TempDir(), tc.budget)
		model := newRefHash(tc.budget)
		for _, p := range pairs {
			if err := c.Add(p); err != nil {
				t.Fatal(err)
			}
			model.Add(p)
		}
		runs := runFileBytes(t, c)
		if len(runs) != tc.n/tc.budget {
			t.Fatalf("n=%d budget=%d: %d runs, want %d", tc.n, tc.budget, len(runs), tc.n/tc.budget)
		}
		for i, r := range runs {
			if !bytes.Equal(r, model.runs[i].bytes()) {
				t.Errorf("n=%d budget=%d: run %d is not the batch's frames", tc.n, tc.budget, i)
			}
		}
		got, want := drain(t, c), drain(t, model)
		if len(got) != len(want) {
			t.Fatalf("n=%d budget=%d: %d pairs, unbounded %d", tc.n, tc.budget, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
				t.Fatalf("n=%d budget=%d: pair %d differs from the unbounded stream", tc.n, tc.budget, i)
			}
		}
		if gs, ms := c.Stats(), model.Stats(); gs.Items != ms.Items || gs.Runs != ms.Runs || gs.SpilledBytes != ms.SpilledBytes {
			t.Errorf("n=%d budget=%d: stats %+v, model %+v", tc.n, tc.budget, gs, ms)
		}
	}
}

// TestHashFanInBoundsReaders spills over ten thousand runs on one
// collector: the merge never holds more than fanIn run readers, the
// stream is the unbounded one, and SpilledBytes counts the merge passes'
// runs on top of the flushed ones, exactly as the model prices them.
func TestHashFanInBoundsReaders(t *testing.T) {
	const n = 10_500 // a budget of one pair: one run per pair
	pairs := randomPairs(rand.New(rand.NewSource(11)), n, 400)
	coll := NewHash(nil, t.TempDir(), 1)
	defer coll.Close()
	model := newRefHash(1)
	for _, p := range pairs {
		if err := coll.Add(p); err != nil {
			t.Fatal(err)
		}
		model.Add(p)
	}
	flushed := coll.Stats()
	if flushed.Runs < 10_000 {
		t.Fatalf("%d runs, want at least 10 000", flushed.Runs)
	}
	want := drain(t, model)
	it, err := coll.Iterate()
	if err != nil {
		t.Fatal(err)
	}
	c := coll.(*hashCollector)
	i := 0
	for ; ; i++ {
		p, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if i >= len(want) || !bytes.Equal(p.Key, want[i].Key) || !bytes.Equal(p.Value, want[i].Value) {
			t.Fatalf("pair %d differs from the unbounded stream", i)
		}
	}
	if i != len(want) {
		t.Fatalf("merged %d pairs, want %d", i, len(want))
	}
	if len(c.cursors) > fanIn {
		t.Errorf("the merges opened %d run readers, fan-in is %d", len(c.cursors), fanIn)
	}
	st, ms := coll.Stats(), model.Stats()
	if st.SpilledBytes <= flushed.SpilledBytes {
		t.Errorf("SpilledBytes %d after the merge passes, %d flushed: the passes' runs are not counted", st.SpilledBytes, flushed.SpilledBytes)
	}
	if st.SpilledBytes != ms.SpilledBytes || st.Runs != ms.Runs {
		t.Errorf("stats %+v, model %+v", st, ms)
	}
	it.Close()
}

// TestHashSpillHoldsOneDescriptor: however many runs a collector spills,
// they share one open file, so a reducer spilling ten thousand runs works
// under a descriptor limit of 256 and merges them back in order.
func TestHashSpillHoldsOneDescriptor(t *testing.T) {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		t.Fatal(err)
	}
	low := lim
	low.Cur = min(lim.Cur, 256)
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &low); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
			t.Error(err)
		}
	})

	const runs, budget = 10000, 4
	c := NewHash(nil, t.TempDir(), budget)
	defer c.Close()
	for i := runs*budget - 1; i >= 0; i-- {
		if err := c.Add(transport.Pair{Key: fmt.Appendf(nil, "%08d", i), Value: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Stats().Runs; got != runs {
		t.Fatalf("%d runs, want %d", got, runs)
	}
	it, err := c.Iterate()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	for want := 0; ; want++ {
		p, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if want != runs*budget {
				t.Fatalf("merged %d pairs, want %d", want, runs*budget)
			}
			return
		}
		if string(p.Key) != fmt.Sprintf("%08d", want) || p.Value[0] != byte(want) {
			t.Fatalf("pair %d is (%s, %d)", want, p.Key, p.Value[0])
		}
	}
}

// TestHashSpillAbortsOnCancel cancels before a flush: Add surfaces
// ctx.Err() instead of writing the run.
func TestHashSpillAbortsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := NewHashContext(ctx, t.TempDir(), 4)
	defer c.Close()
	for i := 0; i < 3; i++ {
		if err := c.Add(transport.Pair{Key: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	// The 4th Add triggers the flush, which must abort.
	if err := c.Add(transport.Pair{Key: []byte{3}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled from the flush, got %v", err)
	}
	if c.Stats().Runs != 0 {
		t.Fatalf("cancelled flush still wrote %d runs", c.Stats().Runs)
	}
}

// TestHashMergeAbortsOnCancel cancels mid-merge: the iterator surfaces
// ctx.Err() within one check stride.
func TestHashMergeAbortsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := NewHashContext(ctx, t.TempDir(), 8)
	for _, p := range randomPairs(rand.New(rand.NewSource(5)), 10*cancelCheckStride, 13) {
		if err := c.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	it, err := c.Iterate()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	cancel()
	for i := 0; i < 2*cancelCheckStride; i++ {
		if _, _, err := it.Next(); err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			return
		}
	}
	t.Fatal("merge kept going past a full check stride after cancel")
}

// TestHashMergePassAbortsOnCancel: past the fan-in, Iterate's merge passes
// stop on a cancelled context instead of rewriting the runs.
func TestHashMergePassAbortsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := NewHashContext(ctx, t.TempDir(), 2)
	defer c.Close()
	for _, p := range randomPairs(rand.New(rand.NewSource(6)), 4*fanIn, 13) {
		if err := c.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	flushed := c.Stats().SpilledBytes
	cancel()
	if _, err := c.Iterate(); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled from Iterate, got %v", err)
	}
	if got := c.Stats().SpilledBytes; got != flushed {
		t.Errorf("a cancelled merge pass wrote %d bytes", got-flushed)
	}
}

// TestHashSpillReusesRunWriter: the 64 KiB run writer belongs to the
// collector, not to the run — forty more runs cost a span each in the
// collector's one run file, nowhere near a buffer apiece.
func TestHashSpillReusesRunWriter(t *testing.T) {
	spillRuns := func(runs int) uint64 {
		pairs := make([]transport.Pair, 4*runs)
		for i := range pairs {
			pairs[i] = transport.Pair{Key: []byte{byte(i % 3)}, Value: []byte{byte(i)}}
		}
		c := NewHash(nil, t.TempDir(), 4)
		defer c.Close()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, p := range pairs {
			if err := c.Add(p); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if c.Stats().Runs != runs {
			t.Fatalf("%d runs, want %d", c.Stats().Runs, runs)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	spillRuns(1) // warm up
	perRun := float64(spillRuns(50)-spillRuns(10)) / 40
	t.Logf("%.0f bytes allocated per additional run", perRun)
	if perRun > 4096 {
		t.Errorf("each additional run allocated %.0f bytes, want well under a 64 KiB writer", perRun)
	}
}

// refDecodeRun decodes a group-framed run the plain way, from a byte
// slice: the reference the cursor is fuzzed against.
func refDecodeRun(data []byte) (refRun, error) {
	var run refRun
	uv := func() (uint64, error) {
		x, k := binary.Uvarint(data)
		if k <= 0 {
			return 0, errCorruptRun
		}
		data = data[k:]
		return x, nil
	}
	for len(data) > 0 {
		klen, err := uv()
		if err != nil || klen > uint64(len(data)) {
			return nil, errCorruptRun
		}
		f := refFrame{key: data[:klen]}
		data = data[klen:]
		if len(run) > 0 && bytes.Compare(f.key, run[len(run)-1].key) <= 0 {
			return nil, errCorruptRun
		}
		n, err := uv()
		if err != nil || n == 0 {
			return nil, errCorruptRun
		}
		for ; n > 0; n-- {
			vlen, err := uv()
			if err != nil || vlen > uint64(len(data)) {
				return nil, errCorruptRun
			}
			f.values = append(f.values, data[:vlen])
			data = data[vlen:]
		}
		run = append(run, f)
	}
	return run, nil
}

// FuzzGroupRuns feeds arbitrary span bytes through the run cursor, with a
// reader buffer of the span's length or of 16 bytes (so values and keys
// outgrow it): no panic; the cursor accepts exactly what the reference
// decoder accepts and reads the same frames; a truncated, overlong or
// misordered frame is errCorruptRun; and no buffer is sized from a length
// the span's bytes do not back.
func FuzzGroupRuns(f *testing.F) {
	valid := refRun{
		{key: []byte("a"), values: [][]byte{[]byte("x"), {}}},
		{key: []byte("bb"), values: [][]byte{bytes.Repeat([]byte("v"), 40)}},
		{key: bytes.Repeat([]byte("k"), 20), values: [][]byte{[]byte("yz")}},
	}.bytes()
	f.Add(valid, false)
	f.Add(valid, true)
	f.Add(valid[:len(valid)-1], false)
	f.Add([]byte{}, false)
	f.Add([]byte{0, 1, 0}, false)                                                               // an empty key, one empty value
	f.Add([]byte{1, 'a', 0}, false)                                                             // an empty frame
	f.Add([]byte{1, 'a', 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}, false) // an overflowing length
	f.Add([]byte{1, 'b', 1, 0, 1, 'a', 1, 0}, false)                                            // keys out of order
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f}, false)                                                // a key length past the span
	f.Fuzz(func(t *testing.T, data []byte, small bool) {
		want, werr := refDecodeRun(data)
		var c cursor
		c.reset(bytes.NewReader(data), int64(len(data)), 0)
		if small {
			c.r = bufio.NewReaderSize(bytes.NewReader(data), 16)
		}
		var got refRun
		err := func() error {
			for {
				ok, err := c.nextFrame()
				if err != nil || !ok {
					return err
				}
				f := refFrame{key: bytes.Clone(c.key)}
				for c.n > 0 {
					v, err := c.value()
					if err != nil {
						return err
					}
					f.values = append(f.values, bytes.Clone(v))
				}
				got = append(got, f)
			}
		}()
		if (werr == nil) != (err == nil) {
			t.Fatalf("reference err=%v, cursor err=%v", werr, err)
		}
		if err != nil && !errors.Is(err, errCorruptRun) {
			t.Fatalf("untyped run error: %v", err)
		}
		if err == nil && !bytes.Equal(got.bytes(), want.bytes()) {
			t.Fatal("the cursor and the reference read different frames")
		}
		for _, b := range [][]byte{c.key, c.spare, c.big} {
			if cap(b) > len(data) {
				t.Fatalf("a %d-byte buffer from a %d-byte span", cap(b), len(data))
			}
		}
	})
}
