package groupx

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/casm-project/casm/internal/transport"
)

// stableSorted is the reference stream for any pairs: a copy sorted stably
// by key, so pairs of one key keep their arrival order — what an external
// sort of the pairs would yield.
func stableSorted(pairs []transport.Pair) []transport.Pair {
	want := slices.Clone(pairs)
	slices.SortStableFunc(want, func(a, b transport.Pair) int { return bytes.Compare(a.Key, b.Key) })
	return want
}

// samePairs reports whether two streams hold the same pairs in the same order.
func samePairs(a, b []transport.Pair) bool {
	return slices.EqualFunc(a, b, func(x, y transport.Pair) bool {
		return bytes.Equal(x.Key, y.Key) && bytes.Equal(x.Value, y.Value)
	})
}

// drain materializes a collector's output (copying keys and values,
// which may alias reused read buffers).
func drain(t *testing.T, c Collector) []transport.Pair {
	t.Helper()
	out, err := drainErr(c)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func drainErr(c Collector) ([]transport.Pair, error) {
	it, err := c.Iterate()
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var out []transport.Pair
	for {
		p, ok, err := it.Next()
		if err != nil || !ok {
			return out, err
		}
		out = append(out, transport.Pair{
			Key:   append([]byte(nil), p.Key...),
			Value: append([]byte(nil), p.Value...),
		})
	}
}

// randomPairs builds a shuffled stream over nKeys distinct keys; each
// value records its global arrival index.
func randomPairs(rng *rand.Rand, n, nKeys int) []transport.Pair {
	keys := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "k%03d", i)
	}
	return pairsOver(rng, n, keys)
}

// pairsOver builds a shuffled stream of n pairs over keys; each value
// records its global arrival index.
func pairsOver(rng *rand.Rand, n int, keys [][]byte) []transport.Pair {
	pairs := make([]transport.Pair, n)
	for i := range pairs {
		v := make([]byte, 8)
		binary.LittleEndian.PutUint64(v, uint64(i))
		pairs[i] = transport.Pair{Key: keys[rng.Intn(len(keys))], Value: v}
	}
	return pairs
}

// wordKeys returns up to nKeys distinct keys adversarial to the hash
// collector's word, its keys' first eight bytes zero-padded: the empty
// key; keys that differ only by trailing zero bytes ("ab", "ab\x00"),
// whose words are equal; keys shorter than eight bytes and longer than
// sixteen; and keys sharing an eight-byte prefix — the all-zero one among
// them — that differ only in their tails. Bytes are drawn from values
// around the digits' edges (0, 1, 0x7f, 0x80, 0xff), so every digit of
// the word varies.
func wordKeys(rng *rand.Rand, nKeys int) [][]byte {
	alphabet := []byte{0, 1, 0x7f, 0x80, 0xff}
	prefixes := [][]byte{make([]byte, 8), []byte("abcdefgh"), {0xff, 0, 0xff, 0, 0xff, 0, 0xff, 0}}
	seen := map[string]bool{}
	var keys [][]byte
	add := func(k []byte) {
		if len(keys) < nKeys && !seen[string(k)] {
			seen[string(k)] = true
			keys = append(keys, k)
		}
	}
	add(nil)
	add([]byte("ab"))
	add([]byte("ab\x00"))
	add([]byte("ab\x00\x00"))
	for tries := 0; len(keys) < nKeys && tries < 100*nKeys; tries++ {
		var k []byte
		switch rng.Intn(3) {
		case 0: // shorter than a word
			k = make([]byte, rng.Intn(8))
		case 1: // a shared prefix and a tail, often past sixteen bytes
			k = append(slices.Clone(prefixes[rng.Intn(len(prefixes))]), make([]byte, rng.Intn(12))...)
			for i := 8; i < len(k); i++ {
				k[i] = alphabet[rng.Intn(len(alphabet))]
			}
			add(k)
			k = append(slices.Clone(k), make([]byte, 1+rng.Intn(2))...) // the same with trailing zeros
			add(k)
			continue
		default: // longer than two words
			k = make([]byte, 17+rng.Intn(6))
		}
		for i := range k {
			k[i] = alphabet[rng.Intn(len(alphabet))]
		}
		add(k)
	}
	return keys
}

// TestHashMatchesSort is the collector-level equivalence property: for a
// random pair stream, the collector's output must be byte-identical to a
// stable sort of the pairs by key, across memory budgets from "everything
// fits" down to "spill every other pair".
func TestHashMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 50, 500} {
		for _, mem := range []int{0, 2, 7, 1000} {
			pairs := randomPairs(rng, n, 1+n/10)
			hash := NewHash(nil, t.TempDir(), mem)
			for _, p := range pairs {
				if err := hash.Add(p); err != nil {
					t.Fatal(err)
				}
			}
			got, want := drain(t, hash), stableSorted(pairs)
			if len(got) != len(want) {
				t.Fatalf("n=%d mem=%d: hash yielded %d pairs, sort %d", n, mem, len(got), len(want))
			}
			for i := range got {
				if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
					t.Fatalf("n=%d mem=%d: pair %d: hash (%q,%x), sort (%q,%x)",
						n, mem, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
				}
			}
			if hs := hash.Stats(); hs.Items != int64(n) {
				t.Errorf("n=%d mem=%d: hash Items %d", n, mem, hs.Items)
			}
		}
	}
}

// TestHashOrderMatchesBytesCompare holds the collector's order — the radix
// sort on the keys' first eight bytes, bytes.Compare inside runs of equal
// words — to a stable bytes.Compare sort of the pairs, over keys chosen
// to break a word order that is not exactly the keys' (wordKeys), few
// keys and many, unbounded and through flushes of 1, 2 and 291 pairs.
func TestHashOrderMatchesBytesCompare(t *testing.T) {
	for _, nKeys := range []int{5, 60, 300, 3000} {
		rng := rand.New(rand.NewSource(int64(nKeys)))
		keys := wordKeys(rng, nKeys)
		pairs := pairsOver(rng, 4*nKeys, keys)
		want := stableSorted(pairs)
		for _, mem := range []int{0, 1, 2, 291} {
			c := NewHash(nil, t.TempDir(), mem)
			for _, p := range pairs {
				if err := c.Add(p); err != nil {
					t.Fatal(err)
				}
			}
			if got := drain(t, c); !samePairs(got, want) {
				t.Fatalf("keys=%d (%d distinct) mem=%d: the stream is not the pairs sorted stably by key", nKeys, len(keys), mem)
			}
		}
	}
}

// TestHashGroupsContiguousArrivalOrder pins the in-memory hash contract:
// groups come back ascending by key, and pairs within a group keep
// arrival order.
func TestHashGroupsContiguousArrivalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := NewHash(nil, t.TempDir(), 0)
	pairs := randomPairs(rng, 300, 17)
	for _, p := range pairs {
		if err := c.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	out := drain(t, c)
	lastKey := ""
	lastArrival := int64(-1)
	seen := map[string]bool{}
	for _, p := range out {
		if string(p.Key) != lastKey {
			if seen[string(p.Key)] {
				t.Fatalf("group %q not contiguous", p.Key)
			}
			if string(p.Key) < lastKey {
				t.Fatalf("group %q after %q: not ascending", p.Key, lastKey)
			}
			seen[string(p.Key)] = true
			lastKey, lastArrival = string(p.Key), -1
		}
		a := int64(binary.LittleEndian.Uint64(p.Value))
		if a <= lastArrival {
			t.Fatalf("group %q: arrival %d after %d", p.Key, a, lastArrival)
		}
		lastArrival = a
	}
	st := c.Stats()
	if st.Groups != int64(len(seen)) {
		t.Errorf("Stats.Groups = %d, want %d", st.Groups, len(seen))
	}
	if st.Runs != 0 || st.SpilledBytes != 0 {
		t.Errorf("unbounded collector spilled: %+v", st)
	}
}

// TestHashSpillAccounting pins the stats of the degraded mode: each
// overflow flush is one run, the residue stays in memory and is not one,
// and SpilledBytes is the two runs' frames — a key once per group.
func TestHashSpillAccounting(t *testing.T) {
	c := NewHash(nil, t.TempDir(), 4)
	for i := 0; i < 10; i++ { // 10 pairs, budget 4: two overflow flushes + residue
		v := []byte{byte(i)}
		if err := c.Add(transport.Pair{Key: fmt.Appendf(nil, "k%d", i%3), Value: v}); err != nil {
			t.Fatal(err)
		}
	}
	out := drain(t, c)
	if len(out) != 10 {
		t.Fatalf("drained %d pairs, want 10", len(out))
	}
	st := c.Stats()
	if st.Items != 10 {
		t.Errorf("Items = %d, want 10", st.Items)
	}
	if st.Runs != 2 {
		t.Errorf("Runs = %d, want 2 (the residue must not be a run)", st.Runs)
	}
	// Run 1 holds k0 {0,3} k1 {1} k2 {2}, run 2 k0 {6} k1 {4,7} k2 {5}:
	// six frames of 1+2+1 header bytes, eight values of 1+1.
	if want := int64(6*4 + 8*2); st.SpilledBytes != want {
		t.Errorf("SpilledBytes = %d, want %d", st.SpilledBytes, want)
	}
}

// TestSpilledStreamMatchesUnbounded: a spilling collector yields exactly
// what an unbounded one does — groups ascending, each group's pairs in
// arrival order, a stable sort of the pairs by key — byte for byte,
// through NewHash and NewSort alike, whether a run holds one pair or a
// thousand and whether the groups are one, few or many.
func TestSpilledStreamMatchesUnbounded(t *testing.T) {
	collectors := map[string]func(dir string, mem int) Collector{
		"hash": func(dir string, mem int) Collector { return NewHash(nil, dir, mem) },
		"sort": func(dir string, mem int) Collector { return NewSort(nil, dir, mem) },
	}
	for name, newColl := range collectors {
		for _, nKeys := range []int{1, 13, 400} {
			pairs := randomPairs(rand.New(rand.NewSource(int64(nKeys))), 5000, nKeys)
			want := stableSorted(pairs)
			for _, mem := range []int{0, 1, 2, 291, 1000} {
				c := newColl(t.TempDir(), mem)
				for _, p := range pairs {
					if err := c.Add(p); err != nil {
						t.Fatal(err)
					}
				}
				got := drain(t, c)
				if spilled := c.Stats().Runs > 0; spilled != (mem > 0) {
					t.Fatalf("%s keys=%d mem=%d: spilled %v", name, nKeys, mem, spilled)
				}
				if len(got) != len(want) {
					t.Fatalf("%s keys=%d mem=%d: %d pairs, reference %d", name, nKeys, mem, len(got), len(want))
				}
				for i := range got {
					if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
						t.Errorf("%s keys=%d mem=%d: pair %d is (%q,%x), reference (%q,%x)",
							name, nKeys, mem, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
						break
					}
				}
			}
		}
	}
}
