package sortx

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// TestRadixSortsKeyBits: over random keys, bit windows and lengths —
// none, a constant digit, digits past the key's top bit — Radix orders
// keys by bits [lo, hi) exactly as a stable comparison sort on them would,
// with the bits outside the window riding along.
func TestRadixSortsKeyBits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 300, 5000} {
		for _, win := range [][2]int{{0, 64}, {0, 11}, {7, 40}, {20, 64}, {30, 30}} {
			lo, hi := win[0], win[1]
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = rng.Uint64() & (1<<40 - 1) &^ (0x7ff << 11) // bits [11, 22) constant
			}
			field := func(k uint64) uint64 { return k >> lo & (1<<(hi-lo) - 1) }
			want := slices.Clone(keys)
			slices.SortStableFunc(want, func(x, y uint64) int { return cmp.Compare(field(x), field(y)) })
			got := Radix(slices.Clone(keys), make([]uint64, n), lo, hi)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d bits [%d, %d): radix order differs from a stable sort on those bits", n, lo, hi)
			}
		}
	}
}
