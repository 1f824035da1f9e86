package groupx

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
)

// The hash collector's group table and order. A key's word is its first
// eight bytes read as a big-endian word, zero-padded. A key is hashed
// once, when its pair arrives: the hash is its word with the key's length
// and its tail mixed in. The table is open addressing with linear probing
// over 64-bit slots, each empty (0) or the hash's high 32 bits over the
// group's id + 1, at most three quarters full. A slot's place is the
// hash's top bits, so a doubling re-places every slot from the slot alone,
// reading no key.
//
// Words order as their keys do: two keys whose words differ first differ,
// or one of them ends, inside their first eight bytes, and a key that ends
// there pads with zero bytes, below any byte the longer key can hold
// there unless that byte is zero too, in which case the words do not
// differ. So the resident groups are ordered by a radix sort on their
// words, its digits read from the key bytes, and by bytes.Compare only
// inside runs of equal words (keys that share eight bytes, or differ only
// by trailing zero bytes): exactly bytes.Compare's order, the order the
// runs and the output stream follow.

const (
	tagMask  = uint64(0xffffffff) << 32 // a slot's hash tag; the low half is the group's id + 1
	minSlots = 16
)

// keyWord reads key's first eight bytes as a big-endian word, zero-padded.
func keyWord(key []byte) uint64 {
	if len(key) >= 8 {
		return binary.BigEndian.Uint64(key)
	}
	var w uint64
	for i, b := range key {
		w |= uint64(b) << (56 - 8*i)
	}
	return w
}

// keyHash returns key's hash: its word, its length and its tail, mixed.
func keyHash(key []byte) uint64 {
	h := keyWord(key) ^ uint64(len(key))*0x9e3779b97f4a7c15
	for tail := key[min(len(key), 8):]; len(tail) > 0; tail = tail[min(len(tail), 8):] {
		h = mix(h) ^ keyWord(tail)
	}
	return mix(h)
}

// mix is MurmurHash3's 64-bit finalizer.
func mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// group returns key's group id, making the group on the key's first sight.
// key doubles as the group key: transport bytes stay valid for the job, so
// the group retains a borrowed slice, not a copy.
func (c *hashCollector) group(key []byte) int32 {
	h := keyHash(key)
	if 4*(len(c.groups)+1) > 3*len(c.slots) {
		c.grow()
	}
	tag, mask := h&tagMask, len(c.slots)-1
	for i := int(h >> c.shift); ; i = (i + 1) & mask {
		s := c.slots[i]
		if s == 0 {
			id := int32(len(c.groups))
			c.slots[i] = tag | uint64(id+1)
			c.groups = append(c.groups, hashGroup{key: key, head: -1})
			return id
		}
		if s&tagMask == tag {
			if id := int32(uint32(s)) - 1; bytes.Equal(c.groups[id].key, key) {
				return id
			}
		}
	}
}

// grow doubles the table.
func (c *hashCollector) grow() {
	old := c.slots
	c.slots = make([]uint64, max(2*len(old), minSlots))
	c.shift = uint8(64 - bits.TrailingZeros(uint(len(c.slots))))
	mask := len(c.slots) - 1
	for _, s := range old {
		if s != 0 {
			i := int(s >> c.shift)
			for c.slots[i] != 0 {
				i = (i + 1) & mask
			}
			c.slots[i] = s
		}
	}
}

// compareGroups orders two groups by key.
func (c *hashCollector) compareGroups(a, b int32) int {
	return bytes.Compare(c.groups[a].key, c.groups[b].key)
}

// sortResident orders the resident groups by ascending key: an LSD radix
// sort of their ids on the keys' words, a pass per byte digit that is not
// the same for all of them, each pass from the resident list into the
// collector's one scratch slice or back (the two swap roles), then
// bytes.Compare inside each run of equal words. (localeval.Radix sorts
// integers that carry their own digits; here a digit is read through the
// id, from the group's key, so no (word, id) buffer is built.)
func (c *hashCollector) sortResident() {
	ids := c.resident
	if len(ids) < 2 {
		return
	}
	var counts [8][256]int32 // per byte digit of the words, least significant first
	for _, id := range ids {
		w := keyWord(c.groups[id].key)
		for d := range counts {
			counts[d][uint8(w>>(8*d))]++
		}
	}
	if cap(c.scratch) < len(ids) {
		c.scratch = make([]int32, len(ids))
	}
	src, dst := ids, c.scratch[:len(ids)]
	first := keyWord(c.groups[ids[0]].key)
	for d := range counts {
		count := &counts[d]
		if count[uint8(first>>(8*d))] == int32(len(ids)) {
			continue // every group has this digit
		}
		var sum int32
		for i, n := range count {
			count[i], sum = sum, sum+n
		}
		at := 7 - d // the digit's byte in the key; past its end, 0
		for _, id := range src {
			var b uint8
			if k := c.groups[id].key; at < len(k) {
				b = k[at]
			}
			dst[count[b]] = id
			count[b]++
		}
		src, dst = dst, src
	}
	c.resident, c.scratch = src, dst
	for i := 0; i < len(src); {
		w, j := keyWord(c.groups[src[i]].key), i+1
		for j < len(src) && keyWord(c.groups[src[j]].key) == w {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(src[i:j], c.compareGroups)
		}
		i = j
	}
}
