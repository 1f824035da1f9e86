package localeval

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// arenaOf is a session over rows of the given stride: the column count is
// all of its evaluator that sortRows reads.
func arenaOf(stride int, rows [][]int64) *Session {
	ss := &Session{e: &Evaluator{cols: make([]int, stride)}}
	for i, r := range rows {
		ss.data = append(ss.data, r...)
		ss.rows = append(ss.rows, int32(i))
	}
	return ss
}

// arenaRows reads the arena's rows in row-index order.
func arenaRows(ss *Session) [][]int64 {
	a := len(ss.e.cols)
	out := make([][]int64, len(ss.rows))
	for i, ri := range ss.rows {
		out[i] = ss.data[int(ri)*a : int(ri)*a+a]
	}
	return out
}

// splitBits spreads total bits over stride columns of at most 63 bits
// each, at random; ok is false when they do not fit.
func splitBits(rng *rand.Rand, stride, total int) (widths []int, ok bool) {
	if total > 63*stride {
		return nil, false
	}
	widths = make([]int, stride)
	for b := 0; b < total; {
		if j := rng.Intn(stride); widths[j] < 63 {
			widths[j]++
			b++
		}
	}
	return widths, true
}

// randomRows draws n rows whose column j has an observed bit width of
// exactly widths[j] (for n > 0): every value fits, one row sets the top bit.
func randomRows(rng *rand.Rand, n int, widths []int) [][]int64 {
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = make([]int64, len(widths))
		for j, w := range widths {
			if w > 0 {
				rows[i][j] = int64(rng.Uint64() >> (64 - w))
			}
		}
	}
	if n > 0 {
		top := rng.Intn(n)
		for j, w := range widths {
			if w > 0 {
				rows[top][j] |= 1 << (w - 1)
			}
		}
	}
	return rows
}

// TestSortRowsIsComparisonOrder: over random arenas — one to six columns,
// column widths of 0–63 bits summing to exactly 63, 64 or 65 bits or to
// anything, values with bit 63 set (also alone in an otherwise zero
// arena), all-duplicate rows and all but one, and sizes on both sides of
// packMinRows — sortRows leaves the rows, read through the row
// index, in slices.Compare order, the multiset kept. The packed path runs
// exactly when the block is large enough and its rows fit 64 unsigned
// bits together (always, for one column): it reorders the arena and keeps
// the identity index; otherwise the arena is untouched. SortLoaded counts
// every row and empties the arena.
func TestSortRowsIsComparisonOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	T := packMinRows
	for stride := 1; stride <= 6; stride++ {
		for _, total := range []int{63, 64, 65, -1} {
			for _, shape := range []string{"random", "bit63", "signed", "duplicates", "one-off"} {
				for _, n := range []int{0, 1, 2, T - 1, T, T + 1, 5000} {
					widths, ok := splitBits(rng, stride, total)
					if total < 0 {
						widths, ok = make([]int, stride), true
						for j := range widths {
							widths[j] = rng.Intn(64)
						}
					}
					if !ok {
						continue
					}
					rows := randomRows(rng, n, widths)
					switch {
					case n == 0:
					case shape == "bit63":
						rows[rng.Intn(n)][rng.Intn(stride)] |= -1 << 63
					case shape == "signed": // 64 bits in one column, the rest zero
						j := rng.Intn(stride)
						for _, r := range rows {
							v := r[j]
							clear(r)
							r[j] = v
						}
						rows[rng.Intn(n)][j] |= -1 << 63
					case shape == "duplicates", shape == "one-off":
						for i := range rows[1:] {
							rows[i+1] = slices.Clone(rows[0])
						}
						if shape == "one-off" {
							rows[rng.Intn(n)] = randomRows(rng, 1, widths)[0]
						}
					}
					need := rowBits(rows, stride)
					t.Run(fmt.Sprintf("stride=%d/bits=%d/%s/n=%d", stride, need, shape, n), func(t *testing.T) {
						want := make([][]int64, n)
						for i, r := range rows {
							want[i] = slices.Clone(r)
						}
						slices.SortFunc(want, slices.Compare[[]int64])
						ss := arenaOf(stride, rows)
						before := slices.Clone(ss.data)
						ss.sortRows()
						got := arenaRows(ss)
						if !slices.EqualFunc(got, want, slices.Equal[[]int64]) {
							t.Fatalf("rows out of comparison order:\ngot  %v\nwant %v", head(got), head(want))
						}
						packed := n >= T && (stride == 1 || need <= 64)
						identity := true
						for i, ri := range ss.rows {
							identity = identity && int(ri) == i
						}
						if packed && !identity {
							t.Error("the packed sort permuted the row index")
						}
						if !packed && !slices.Equal(ss.data, before) {
							t.Error("the comparison sort moved the arena")
						}
						ss = arenaOf(stride, rows)
						if got := ss.SortLoaded(); got != n || len(ss.data) != 0 || len(ss.rows) != 0 {
							t.Errorf("SortLoaded: %d rows, arena left at %d values and %d rows; want %d, 0, 0", got, len(ss.data), len(ss.rows), n)
						}
					})
				}
			}
		}
	}
}

// rowBits is what a row needs as one unsigned key: the sum of the
// columns' observed bit widths, or 65 when some value is negative.
func rowBits(rows [][]int64, stride int) int {
	or := make([]int64, stride)
	for _, r := range rows {
		for j, v := range r {
			or[j] |= v
		}
	}
	total := 0
	for _, v := range or {
		if v < 0 {
			return 65
		}
		total += bits.Len64(uint64(v))
	}
	return total
}

// head is the first few rows, for a failure message.
func head(rows [][]int64) [][]int64 { return rows[:min(len(rows), 4)] }

// TestSortRowsAllocatesNothing: a warmed session sorts a 5000-row block
// without allocating, on the packed path and on the comparison sort (a
// block whose columns need more than 64 bits together).
func TestSortRowsAllocatesNothing(t *testing.T) {
	e := benchEvaluator(t, false)
	for _, wide := range []bool{false, true} {
		ss := e.NewSession()
		for _, r := range randomRecords(rand.New(rand.NewSource(5)), 5000) {
			if wide {
				r[1] |= 1 << 40 // v and t, 41 bits each
				r[2] |= 1 << 40
			}
			ss.AppendRecord(r)
		}
		if got := testing.AllocsPerRun(10, ss.sortRows); got != 0 {
			t.Errorf("wide=%v: sorting 5000 rows allocated %.0f times", wide, got)
		}
	}
}
