package sortx

// radixBits is Radix's digit width: 2¹¹ counters fit L1.
const radixBits = 11

// Radix sorts keys, as unsigned integers, by their bits [lo, hi): LSD
// passes of 11-bit digits, each scattering into the other of keys and tmp
// (tmp at least as long), skipping any digit constant over all keys. Bits
// outside [lo, hi) ride along in their key. It returns whichever of the
// two slices holds the sorted keys.
func Radix[T ~int64 | ~uint64](keys, tmp []T, lo, hi int) []T {
	if len(keys) == 0 {
		return keys
	}
	tmp = tmp[:len(keys)]
	for shift := lo; shift < hi; shift += radixBits {
		var count [1 << radixBits]uint32
		for _, k := range keys {
			count[uint64(k)>>shift&(1<<radixBits-1)]++
		}
		if int(count[uint64(keys[0])>>shift&(1<<radixBits-1)]) == len(keys) {
			continue
		}
		sum := uint32(0)
		for d, c := range count {
			count[d], sum = sum, sum+c
		}
		for _, k := range keys {
			d := uint64(k) >> shift & (1<<radixBits - 1)
			tmp[count[d]] = k
			count[d]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}
