package sortx

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// cmpInt64 orders int64 sorters in tests.
func cmpInt64(a, b int64) int { return cmp.Compare(a, b) }

type int64Codec struct{}

func (int64Codec) EncodeTo(dst []byte, v int64) ([]byte, error) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	return append(dst, buf[:]...), nil
}
func (int64Codec) Decode(b []byte) (int64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("bad length %d", len(b))
	}
	return int64(binary.LittleEndian.Uint64(b)), nil
}

func drain(t *testing.T, it *Iterator[int64]) []int64 {
	t.Helper()
	defer it.Close()
	var out []int64
	for {
		v, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

func checkSorted(t *testing.T, input []int64, budget int) {
	t.Helper()
	s := New(cmpInt64, int64Codec{}, t.TempDir(), budget)
	for _, v := range input {
		if err := s.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.Iterate()
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, it)
	want := append([]int64(nil), input...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("budget %d: got %d items, want %d", budget, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("budget %d: item %d = %d, want %d", budget, i, got[i], want[i])
		}
	}
}

func TestInMemorySort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	input := make([]int64, 1000)
	for i := range input {
		input[i] = rng.Int63n(500) // duplicates on purpose
	}
	checkSorted(t, input, 0)    // unlimited memory
	checkSorted(t, input, 5000) // budget not reached
}

func TestSpillingSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	input := make([]int64, 5000)
	for i := range input {
		input[i] = rng.Int63n(100000) - 50000
	}
	for _, budget := range []int{1, 7, 100, 999, 4999} {
		checkSorted(t, input, budget)
	}
}

func TestSpillStats(t *testing.T) {
	s := New(cmpInt64, int64Codec{}, t.TempDir(), 10)
	for i := int64(0); i < 95; i++ {
		if err := s.Add(i); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Items != 95 {
		t.Errorf("Items = %d", st.Items)
	}
	if st.Runs != 9 {
		t.Errorf("Runs = %d, want 9 (9 full buffers of 10, 5 residual in memory)", st.Runs)
	}
	if st.SpilledItems != 90 {
		t.Errorf("SpilledItems = %d", st.SpilledItems)
	}
	if st.SpilledBytes != 90*9 { // 1 length byte + 8 payload bytes per item
		t.Errorf("SpilledBytes = %d", st.SpilledBytes)
	}
	it, err := s.Iterate()
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, it)
	if len(got) != 95 || got[0] != 0 || got[94] != 94 {
		t.Errorf("bad merged output: len %d", len(got))
	}
}

func TestInMemoryNoSpillStats(t *testing.T) {
	s := New(cmpInt64, int64Codec{}, t.TempDir(), 0)
	for i := int64(0); i < 1000; i++ {
		s.Add(i)
	}
	if st := s.Stats(); st.Runs != 0 || st.SpilledBytes != 0 {
		t.Errorf("unexpected spill: %+v", st)
	}
}

func TestEmptySort(t *testing.T) {
	s := New(cmpInt64, int64Codec{}, t.TempDir(), 4)
	it, err := s.Iterate()
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, it); len(got) != 0 {
		t.Errorf("empty sorter yielded %d items", len(got))
	}
}

func TestUsageErrors(t *testing.T) {
	s := New(cmpInt64, int64Codec{}, t.TempDir(), 0)
	s.Add(1)
	if _, err := s.Iterate(); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(2); err == nil {
		t.Error("Add after Iterate accepted")
	}
	if _, err := s.Iterate(); err == nil {
		t.Error("second Iterate accepted")
	}
}

type badCodec struct{ failEncode bool }

func (c badCodec) EncodeTo(dst []byte, v int64) ([]byte, error) {
	if c.failEncode {
		return nil, fmt.Errorf("encode boom")
	}
	return append(dst, 1), nil
}
func (c badCodec) Decode(b []byte) (int64, error) { return 0, fmt.Errorf("decode boom") }

func TestCodecErrorsPropagate(t *testing.T) {
	s := New(cmpInt64, badCodec{failEncode: true}, t.TempDir(), 1)
	if err := s.Add(1); err == nil {
		t.Error("encode error swallowed on spill")
	}
	s2 := New(cmpInt64, badCodec{}, t.TempDir(), 1)
	s2.Add(1)
	s2.Add(2)
	if _, err := s2.Iterate(); err == nil {
		t.Error("decode error swallowed on merge init")
	}
}

func TestSortPropertyRandomBudgets(t *testing.T) {
	f := func(raw []int64, budgetRaw uint8) bool {
		budget := int(budgetRaw % 20)
		s := New(cmpInt64, int64Codec{}, t.TempDir(), budget)
		for _, v := range raw {
			if err := s.Add(v); err != nil {
				return false
			}
		}
		it, err := s.Iterate()
		if err != nil {
			return false
		}
		defer it.Close()
		// Check sortedness and multiset preservation.
		counts := map[int64]int{}
		for _, v := range raw {
			counts[v]++
		}
		var prev int64
		first := true
		n := 0
		for {
			v, ok, err := it.Next()
			if err != nil {
				return false
			}
			if !ok {
				break
			}
			if !first && v < prev {
				return false
			}
			prev, first = v, false
			counts[v]--
			n++
		}
		if n != len(raw) {
			return false
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestStability: equal keys come back in insertion order, from memory
// and across spilled runs alike — the merge breaks ties by run, oldest
// first, the in-memory remainder last.
func TestStability(t *testing.T) {
	for _, budget := range []int{0, 1, 3, 7} {
		s := New(func(a, b pair) int { return cmp.Compare(a.k, b.k) }, pairCodec{}, t.TempDir(), budget)
		for i := int64(0); i < 20; i++ {
			if err := s.Add(pair{k: i % 2, seq: i}); err != nil {
				t.Fatal(err)
			}
		}
		it, err := s.Iterate()
		if err != nil {
			t.Fatal(err)
		}
		last := map[int64]int64{0: -1, 1: -1}
		seen := map[int64]int{}
		for {
			p, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if p.seq <= last[p.k] {
				t.Errorf("budget %d: key %d: item %d after %d", budget, p.k, p.seq, last[p.k])
			}
			last[p.k] = p.seq
			seen[p.k]++
		}
		it.Close()
		if seen[0] != 10 || seen[1] != 10 {
			t.Errorf("budget %d: group sizes: %v", budget, seen)
		}
	}
}

type pair struct{ k, seq int64 }

type pairCodec struct{}

func (pairCodec) EncodeTo(dst []byte, p pair) ([]byte, error) {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(p.k))
	binary.LittleEndian.PutUint64(buf[8:], uint64(p.seq))
	return append(dst, buf[:]...), nil
}
func (pairCodec) Decode(b []byte) (pair, error) {
	var p pair
	if len(b) != 16 {
		return p, fmt.Errorf("bad length")
	}
	p.k = int64(binary.LittleEndian.Uint64(b[:8]))
	p.seq = int64(binary.LittleEndian.Uint64(b[8:]))
	return p, nil
}
