package transport

import (
	"math/bits"
	"strconv"

	"github.com/casm-project/casm/internal/exec"
)

// DefaultBatchPairs is how many pairs a full batch carries: 256 amortize
// the per-batch channel operation well below the per-pair work while
// keeping at most a few thousand pairs buffered per map task.
const DefaultBatchPairs = 256

// batches are the process's spare batches by room, 32<<i pairs in
// batches[i]. A sender's first batch to a reducer has room for 32 and moves
// to twice the room as it fills, so a sender that sends a reducer k pairs
// holds O(k) slots for it. Only the slices cycle, cleared of their pairs.
var batches [4]*exec.FreeList[[]Pair]

func init() {
	for i := range batches {
		batches[i] = exec.NewFreeList("transport.batches"+strconv.Itoa(i), func(ps []Pair) int { return 48 * cap(ps) })
	}
}

// room is the index in batches of the least room ≥ n pairs.
func room(n int) int { return max(bits.Len(uint(n-1))-5, 0) }

// getBatch lends an empty batch with room for n ≤ DefaultBatchPairs pairs.
func getBatch(n int) []Pair {
	ps, ok := batches[room(n)].Get()
	if !ok {
		ps = make([]Pair, 0, 32<<room(n))
	}
	return ps
}

// RecycleBatch gives back a batch the transport handed out once its reader
// has taken out every pair it needs: the next sender may refill it at once.
// A slice from elsewhere is left alone.
func RecycleBatch(ps []Pair) {
	if c := cap(ps); c >= 32 && c <= DefaultBatchPairs && c&(c-1) == 0 {
		clear(ps)
		batches[room(c)].Put(ps[:0])
	}
}
