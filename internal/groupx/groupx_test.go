package groupx

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"github.com/casm-project/casm/internal/transport"
)

// testCodec serializes pairs for the spill fallback (the same framing the
// mr substrate uses).
type testCodec struct{}

func (testCodec) EncodeTo(dst []byte, p transport.Pair) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(p.Key)))
	dst = append(dst, p.Key...)
	return append(dst, p.Value...), nil
}

func (testCodec) Decode(b []byte) (transport.Pair, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || uint64(len(b)-k) < n {
		return transport.Pair{}, fmt.Errorf("corrupt pair")
	}
	return transport.Pair{Key: b[k : k+int(n) : k+int(n)], Value: b[k+int(n):]}, nil
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
	pairs := make([]transport.Pair, n)
	for i := range pairs {
		v := make([]byte, 8)
		binary.LittleEndian.PutUint64(v, uint64(i))
		pairs[i] = transport.Pair{Key: fmt.Appendf(nil, "k%03d", rng.Intn(nKeys)), Value: v}
	}
	return pairs
}

// TestHashMatchesSort is the collector-level equivalence property: for a
// random pair stream, the hash collector's output must be byte-identical
// to the sort collector's, across memory budgets from "everything fits"
// down to "spill every other pair".
func TestHashMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 50, 500} {
		for _, mem := range []int{0, 2, 7, 1000} {
			pairs := randomPairs(rng, n, 1+n/10)
			hash := NewHash(testCodec{}, t.TempDir(), mem)
			sorted := NewSort(testCodec{}, t.TempDir(), mem)
			for _, p := range pairs {
				if err := hash.Add(p); err != nil {
					t.Fatal(err)
				}
				if err := sorted.Add(p); err != nil {
					t.Fatal(err)
				}
			}
			got, want := drain(t, hash), drain(t, sorted)
			if len(got) != len(want) {
				t.Fatalf("n=%d mem=%d: hash yielded %d pairs, sort %d", n, mem, len(got), len(want))
			}
			for i := range got {
				if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
					t.Fatalf("n=%d mem=%d: pair %d: hash (%q,%x), sort (%q,%x)",
						n, mem, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
				}
			}
			if hs, ss := hash.Stats(), sorted.Stats(); hs.Items != ss.Items {
				t.Errorf("n=%d mem=%d: hash Items %d, sort Items %d", n, mem, hs.Items, ss.Items)
			}
		}
	}
}

// TestHashGroupsContiguousArrivalOrder pins the in-memory hash contract:
// groups come back ascending by key, and pairs within a group keep
// arrival order.
func TestHashGroupsContiguousArrivalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := NewHash(testCodec{}, t.TempDir(), 0)
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
	if st.Spills != 0 || st.Runs != 0 {
		t.Errorf("unbounded collector spilled: %+v", st)
	}
}

// TestHashSpillAccounting pins the stats of the degraded mode: overflow
// flushes count as Spills, the final residue flush does not, and run/byte
// counters surface from the fallback sorter.
func TestHashSpillAccounting(t *testing.T) {
	c := NewHash(testCodec{}, t.TempDir(), 4)
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
	if st.Spills != 2 {
		t.Errorf("Spills = %d, want 2 (residue flush must not count)", st.Spills)
	}
	if st.Runs == 0 || st.SpilledBytes == 0 {
		t.Errorf("spill run accounting missing: %+v", st)
	}
}
