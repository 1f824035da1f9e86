package localeval

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/exec"
	"github.com/casm-project/casm/internal/measure"
	"github.com/casm-project/casm/internal/workflow"
)

// Session is the per-reduce-task evaluation state: the reduce-side twin
// of distkey.Session. One session is taken per reduce task (through
// mr.Config.NewReduceLocal) and reused across every group the task
// evaluates, so every block-sized buffer is allocated once and recycled;
// Release gives the buffers to the next task, of any job and evaluator.
//
// Records are held as fixed-stride rows in one flat []int64 arena, one
// value per column the evaluator reads (AppendRaw decodes shuffled
// payloads straight into it), read in the order of an []int32 row index.
// The in-block sort of a large block whose read columns fit 64 bits
// together packs each row into one uint64, radix-sorts the keys in the
// arena's own words and unpacks them in order, leaving the index as
// built; any other block keeps its arena and the sort permutes the index.
//
// Evaluation runs on region ordinals, never on keys: per grain, a
// regionIndex numbers the group's regions in order of first sight, and
// each measure keeps a state (a measure.FlatState, or a reused Aggregator
// for a holistic function) and a value (NaN when undefined) per ordinal
// of its grain. The scan rolls the block's columns to each grain in turn
// and resolves the rows' ordinals from them, by their offset in the
// block's box when it is small, folding each row into the basics at the
// grain as its ordinal is known. A group starts in O(1) per grain and
// measure; a warmed session allocates nothing per region.
//
// Value ownership: the []Result returned by EvaluateBlock and
// EvaluatePartials, including each Result.Region.Coord, aliases session
// storage and is valid only until the next Append*/Sort*/Merge*/Evaluate*
// or Release call on the same session. Callers that need results beyond
// that must copy. A Session is not safe for concurrent use; the shared
// Evaluator is.
type Session struct {
	e *Evaluator

	// Columnar block arena: rows*len(e.cols) values, plus the row
	// permutation.
	data []int64
	rows []int32

	idx  []regionIndex // idx[gi]: the group's regions at grain gi
	st   []slots       // st[oi]: the states of a basic, rollup or sliding measure
	vals [][]float64   // vals[oi][o]: measure oi's value at ordinal o, NaN when undefined
	open bool          // MergePartial has started a group EvaluatePartials has not ended

	// Scratch buffers.
	coord   []int64 // a region's coordinates
	roll    []int64 // RollBetween target
	probe   []int64 // window sibling coordinates
	col     []int64 // scan: a read column of the block rolled to the grain, in row order
	offs    []int32 // scan: each row's cell in the grain's box
	args    []float64
	results []Result

	// ArenaBytes is the high-water footprint, in bytes, of the record data
	// and row index the groups needed (the most rows reserved or loaded
	// at once), whatever capacity a recycled buffer brought.
	ArenaBytes int64
}

// sessions keeps released sessions' buffers for the next reduce task.
var sessions = exec.NewFreeList("localeval.sessions", func(ss *Session) int {
	n := 8*(cap(ss.data)+cap(ss.col)) + 4*(cap(ss.rows)+cap(ss.offs))
	for _, x := range ss.idx[:cap(ss.idx)] {
		n += 8*(cap(x.cells)+cap(x.coords)) + cap(x.keys) + 4*(cap(x.ends)+cap(x.sorted))
	}
	for _, s := range ss.st[:cap(ss.st)] { // a state and a value per ordinal
		n += (int(unsafe.Sizeof(measure.FlatState{})) + 8) * cap(s.states)
	}
	return n
})

// NewSession returns an empty session for the evaluator, of a released
// session's buffers when there is one. Take one per reduce task, reuse it
// for every group, and Release it at the task's end.
func (e *Evaluator) NewSession() *Session {
	ss, _ := sessions.Get()
	if ss == nil {
		ss = new(Session)
	}
	ss.e, ss.open, ss.ArenaBytes = e, false, 0
	ss.coord, ss.roll, ss.probe = exec.Resize(ss.coord, e.arity), exec.Resize(ss.roll, e.arity), exec.Resize(ss.probe, e.arity)
	ss.idx = exec.Resize(ss.idx, len(e.grains))
	for gi := range ss.idx {
		x := &ss.idx[gi]
		x.arity, x.lo, x.ext = e.arity, exec.Resize(x.lo, e.arity), exec.Resize(x.ext, e.arity)
	}
	ss.st, ss.vals = exec.Resize(ss.st, len(e.order)), exec.Resize(ss.vals, len(e.order))
	for oi, m := range e.order {
		s := &ss.st[oi]
		if s.spec != m.Agg { // holistic states are kept only for their own function
			clear(s.aggs[:cap(s.aggs)])
			s.aggs, s.n = s.aggs[:0], 0
		}
		s.spec = m.Agg
		s.kind, s.flat = m.Agg.FlatKind()
	}
	return ss
}

// Release gives the session's buffers back for the next task; the
// session and every result it returned are invalid after it.
func (ss *Session) Release() {
	clear(ss.results[:cap(ss.results)]) // they name the workflow's grains and measures
	ss.e, ss.data, ss.rows, ss.results = nil, ss.data[:0], ss.rows[:0], ss.results[:0]
	sessions.Put(ss)
}

// ErrCorruptValue is wrapped by every AppendRaw and MergePartial failure.
var ErrCorruptValue = errors.New("localeval: corrupt record value")

// AppendRaw decodes one shuffled record value, laid out as lay says, into
// the block arena: the uvarints of unread attributes are skipped, the rest
// land in their columns. A value that is truncated, or longer than its
// layout, is an error and leaves the arena as it was.
func (ss *Session) AppendRaw(payload []byte, lay Layout) error {
	n, stride := len(ss.data), len(ss.e.cols)
	ss.data = slices.Grow(ss.data, stride)[:n+stride]
	off := 0
	for i, col := range lay {
		v, k := binary.Uvarint(payload[off:])
		if k <= 0 {
			ss.data = ss.data[:n]
			return fmt.Errorf("%w: truncated at attribute %d of %d", ErrCorruptValue, i, len(lay))
		}
		if col >= 0 {
			ss.data[n+col] = int64(v)
		}
		off += k
	}
	if off != len(payload) {
		ss.data = ss.data[:n]
		return fmt.Errorf("%w: %d trailing bytes", ErrCorruptValue, len(payload)-off)
	}
	ss.rows = append(ss.rows, int32(len(ss.rows)))
	return nil
}

// AppendRecord copies the read columns of one decoded record into the
// block arena. rec must have the schema's arity.
func (ss *Session) AppendRecord(rec cube.Record) {
	for _, c := range ss.e.cols {
		ss.data = append(ss.data, rec[c])
	}
	ss.rows = append(ss.rows, int32(len(ss.rows)))
}

// Reserve makes room for a block of the given number of records, so that
// a caller who knows its largest block sizes the arena once.
func (ss *Session) Reserve(records int) {
	ss.data = slices.Grow(ss.data, max(records*len(ss.e.cols)-len(ss.data), 0))
	ss.rows = slices.Grow(ss.rows, max(records-len(ss.rows), 0))
	ss.noteArena(records)
}

const packMinRows = 96 // the smallest block sortRows sorts as packed integers: on smaller ones the comparison sort is faster

// sortRows orders the block's rows lexicographically in column order.
// Ties agree on everything evaluation reads, so an unstable sort is fine.
// A block sortPacked takes is reordered in the arena and its row index
// stays the identity AppendRaw built; any other block permutes the index.
func (ss *Session) sortRows() {
	a := len(ss.e.cols)
	if len(ss.rows) >= packMinRows && a > 0 && ss.sortPacked(a) {
		return
	}
	data := ss.data
	slices.SortFunc(ss.rows, func(x, y int32) int {
		return slices.Compare(data[int(x)*a:int(x)*a+a], data[int(y)*a:int(y)*a+a])
	})
}

// sortPacked sorts the arena's rows as integers, in place, when each row
// fits one uint64 — the columns' observed bit widths sum to at most 64 and
// no value is negative (a uvarint ≥ 2⁶³, whose signed order a packed key
// would reverse) — and otherwise reports false, the arena untouched. Row r
// packs, first column highest, into word r, which for stride ≥ 2 lies in
// a row already packed; the keys are LSD-radix-sorted with words [n, 2n)
// as scratch, skipping digits constant over the block; the rows unpack
// back to front, so none overwrites a key not yet read. One column is its
// own key.
func (ss *Session) sortPacked(stride int) bool {
	n, data := len(ss.rows), ss.data
	if stride == 1 {
		slices.Sort(data)
		return true
	}
	var width [64]uint64 // each column's OR, then its bit width
	if stride > len(width) {
		return false
	}
	for r := 0; r < len(data); r += stride {
		for j, v := range data[r : r+stride] {
			width[j] |= uint64(v)
		}
	}
	total := uint64(0)
	for j := range stride {
		if width[j]>>63 != 0 {
			return false
		}
		width[j] = uint64(bits.Len64(width[j]))
		total += width[j]
	}
	if total > 64 {
		return false
	}
	for r := range n {
		var k uint64
		for j, v := range data[r*stride : r*stride+stride] {
			k = k<<width[j] | uint64(v)
		}
		data[r] = int64(k)
	}
	if keys := Radix(data[:n], data[n:2*n], 0, int(total)); &keys[0] != &data[0] {
		copy(data, keys)
	}
	for r := n - 1; r >= 0; r-- {
		k := uint64(data[r])
		for j := stride - 1; j >= 0; j-- {
			data[r*stride+j] = int64(k & (1<<width[j] - 1))
			k >>= width[j]
		}
	}
	return true
}

// regionIndex numbers the regions of one grain a group occupies, in order
// of first sight, keeping ordinal o's coordinates in coords[o*arity:] and
// its AppendCoords key, the order results are emitted in, in one byte
// arena. Its cells find a region's ordinal: an open-addressing table over
// the coordinates, or, in box mode, one cell per region of the block's
// box — the coordinates' observed extents lo[a] ≤ c < lo[a]+ext[a] — at
// the region's mixed-radix offset in it. A cell is live only under the
// current stamp, so a reset is O(1).
type regionIndex struct {
	arity   int
	cells   []uint64 // stamp<<32 | ordinal+1
	stamp   uint64
	box     bool
	lo, ext []int64
	coords  []int64
	keys    []byte
	ends    []uint32 // ends[o]: where ordinal o's key ends in keys
	sorted  []int32  // the ordinals in key order, while it holds all of them
	last    int32    // the ordinal intern returned last, -1 after a reset
}

// reset empties the index into hash mode.
func (x *regionIndex) reset() {
	x.coords, x.keys, x.ends, x.sorted, x.last = x.coords[:0], x.keys[:0], x.ends[:0], x.sorted[:0], -1
	x.box = false
	x.bump()
}

// bump kills every cell, clearing them once the stamps run out.
func (x *regionIndex) bump() {
	if x.stamp++; x.stamp >= 1<<32 {
		clear(x.cells)
		x.stamp = 1
	}
}

// grow makes the cells at least n, a power of two.
func (x *regionIndex) grow(n int) {
	if n > len(x.cells) {
		x.cells = make([]uint64, max(16, 1<<bits.Len(uint(n-1))))
	}
}

func (x *regionIndex) coord(o int32) []int64 {
	i := int(o) * x.arity
	return x.coords[i : i+x.arity : i+x.arity]
}

func (x *regionIndex) key(o int32) []byte {
	start := uint32(0)
	if o > 0 {
		start = x.ends[o-1]
	}
	return x.keys[start:x.ends[o]]
}

// find returns the cell of the region at coord and its ordinal, -1 (and a
// free cell, if the table has any) when the group has no such region. In
// box mode a coordinate outside the box has no cell either: -1, -1.
func (x *regionIndex) find(coord []int64) (int, int32) {
	if x.box {
		i := 0
		for a, c := range coord {
			d := uint64(c - x.lo[a])
			if d >= uint64(x.ext[a]) {
				return -1, -1
			}
			i = i*int(x.ext[a]) + int(d)
		}
		if c := x.cells[i]; c>>32 == x.stamp {
			return i, int32(uint32(c)) - 1
		}
		return i, -1
	}
	if len(x.cells) == 0 {
		return 0, -1
	}
	h := uint64(len(coord))
	for _, v := range coord {
		h = (h ^ uint64(v)) * 0x9E3779B97F4A7C15
		h ^= h >> 29
	}
	mask := len(x.cells) - 1
	i := int(h) & mask
	for ; x.cells[i]>>32 == x.stamp; i = (i + 1) & mask {
		if o := int32(uint32(x.cells[i])) - 1; slices.Equal(x.coord(o), coord) {
			return i, o
		}
	}
	return i, -1
}

// intern returns the ordinal of the region at coord, numbering it if it
// is new (fresh). A coordinate outside the box turns the index into a
// hash table.
func (x *regionIndex) intern(coord []int64) (o int32, fresh bool) {
	if x.last >= 0 && slices.Equal(x.coord(x.last), coord) {
		return x.last, false
	}
	i, o := x.find(coord)
	if i < 0 || !x.box && 2*(len(x.ends)+1) > len(x.cells) {
		x.rehash(2 * (len(x.ends) + 1))
		i, o = x.find(coord)
	}
	if fresh = o < 0; fresh {
		o = int32(len(x.ends))
		x.cells[i] = x.stamp<<32 | uint64(o+1)
		x.coords = append(x.coords, coord...)
		x.keys = cube.AppendCoords(x.keys, coord)
		x.ends = append(x.ends, uint32(len(x.keys)))
	}
	x.last = o
	return o, fresh
}

// rehash makes the cells a hash table of at least size cells holding
// every ordinal.
func (x *regionIndex) rehash(size int) {
	x.grow(size)
	x.box = false
	x.bump()
	for o := range int32(len(x.ends)) {
		i, _ := x.find(x.coord(o))
		x.cells[i] = x.stamp<<32 | uint64(o+1)
	}
}

// order returns the ordinals in ascending key order: the order of
// sort.Strings over the keys, which results and rollup folds follow.
func (x *regionIndex) order() []int32 {
	if len(x.sorted) != len(x.ends) {
		x.sorted = x.sorted[:0]
		for o := range int32(len(x.ends)) {
			x.sorted = append(x.sorted, o)
		}
		if len(x.sorted) > 1 {
			slices.SortFunc(x.sorted, func(a, b int32) int { return bytes.Compare(x.key(a), x.key(b)) })
		}
	}
	return x.sorted
}

// slots holds one aggregate state per ordinal of a grain: a FlatState for
// a mergeable function, else an Aggregator reset in place on reuse. A
// state that absorbed nothing is an undefined region.
type slots struct {
	spec   measure.Spec
	kind   measure.FlatKind
	flat   bool
	states []measure.FlatState
	aggs   []measure.Aggregator // aggs[:n] are the group's, the rest spares
	n      int
}

func (s *slots) reset() { s.states, s.n = s.states[:0], 0 }

// grow makes ordinals below n valid, the new ones empty.
func (s *slots) grow(n int) {
	if s.flat {
		for len(s.states) < n {
			s.states = append(s.states, measure.FlatState{})
		}
		return
	}
	for ; s.n < n; s.n++ {
		if s.n == len(s.aggs) {
			s.aggs = append(s.aggs, s.spec.New())
		} else {
			s.aggs[s.n].Reset()
		}
	}
}

func (s *slots) add(o int32, v float64) {
	if s.flat {
		s.states[o].Add(s.kind, v)
	} else {
		s.aggs[o].Add(v)
	}
}

// result is the value at ordinal o, NaN when its state absorbed nothing.
func (s *slots) result(o int) float64 {
	if s.flat {
		if o >= len(s.states) || s.states[o].N == 0 {
			return math.NaN()
		}
		return s.states[o].Result(s.spec.Func)
	}
	if o >= s.n || s.aggs[o].N() == 0 {
		return math.NaN()
	}
	return s.aggs[o].Result()
}

// begin starts a group. The previous group's results become invalid here
// (see the ownership note on Session).
func (ss *Session) begin() {
	for gi := range ss.idx {
		ss.idx[gi].reset()
	}
	for oi := range ss.st {
		ss.st[oi].reset()
	}
	ss.results = ss.results[:0]
}

// noteArena raises the high-water arena footprint to a block of rows.
func (ss *Session) noteArena(rows int) {
	ss.ArenaBytes = max(ss.ArenaBytes, int64(rows)*int64(8*len(ss.e.cols)+4))
}

// EvaluateBlock computes all measures over the loaded rows and resets the
// arena for the next group. The returned results alias session storage
// (see the ownership note on Session).
func (ss *Session) EvaluateBlock(Options) ([]Result, Stats, error) {
	var stats Stats
	ss.begin()
	ss.scan(&stats)
	out, err := ss.finish(&stats)
	ss.noteArena(len(ss.rows))
	ss.data, ss.rows = ss.data[:0], ss.rows[:0]
	return out, stats, err
}

// A grain's rows find their regions by offset in the block's box (see
// regionIndex) when the block has at least boxMinRows rows and the box at
// most boxRowCells cells per row plus boxSlackCells; otherwise, and when
// its volume overflows, through the hash table. forceIndex is a test
// hook: indexHash hashes every grain, indexBox boxes every grain whose
// box holds at most 1<<16 cells, however few its rows.
const (
	boxMinRows    = 8
	boxRowCells   = 4
	boxSlackCells = 64

	indexAuto, indexHash, indexBox = 0, 1, 2
)

var forceIndex int

// scan numbers the rows' regions one grain at a time, folding each row
// into the grain's basics as its ordinal is known: by its offset in the
// box when the grain has one, else, and for a region not seen yet, by
// interning its coordinates.
func (ss *Session) scan(stats *Stats) {
	e := ss.e
	ss.sortRows()
	n, stride := len(ss.rows), len(e.cols)
	stats.SortedItems, stats.ScannedRecords = int64(n), int64(n)
	ss.col, ss.offs = exec.Resize(ss.col, n), exec.Resize(ss.offs, n)
	clear(ss.coord)
	for gi, g := range e.grains {
		x := &ss.idx[gi]
		ss.box(x, g)
		for r, ri := range ss.rows {
			row := ss.data[int(ri)*stride:][:stride]
			o, fresh := int32(-1), false
			if x.box {
				if c := x.cells[ss.offs[r]]; c>>32 == x.stamp {
					o = int32(uint32(c)) - 1
				}
			}
			if o < 0 {
				for j, a := range e.cols { // unread attributes stay 0, at ALL like any value
					ss.coord[a] = e.schema.Attr(a).Roll(row[j], g[a])
				}
				o, fresh = x.intern(ss.coord)
			}
			for _, oi := range e.basicsAt[gi] {
				sl, v := &ss.st[oi], 0.0
				if fresh {
					sl.grow(int(o) + 1)
				}
				if a := e.order[oi].InputAttr; a >= 0 {
					v = float64(row[e.colOf[a]])
				}
				sl.add(o, v)
			}
		}
	}
}

// box rolls each read column of the block that grain g holds below ALL
// into ss.col, one column at a time, and sets x's box to the columns'
// observed extents. When the rows are to take their offsets in the box,
// it writes them to ss.offs and switches x to box mode.
func (ss *Session) box(x *regionIndex, g cube.Grain) {
	e, n, stride := ss.e, len(ss.rows), len(ss.e.cols)
	limit := uint64(min(boxRowCells*n+boxSlackCells, math.MaxInt32))
	switch {
	case forceIndex == indexBox && n > 0:
		limit = 1 << 16
	case n < boxMinRows || forceIndex == indexHash:
		return
	}
	for a := range x.lo {
		x.lo[a], x.ext[a] = 0, 1
	}
	clear(ss.offs)
	vol := uint64(1)
	for j, a := range e.cols {
		attr, level := e.schema.Attr(a), g[a]
		if level == attr.AllIndex() {
			continue
		}
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for r, ri := range ss.rows {
			v := attr.Roll(ss.data[int(ri)*stride+j], level)
			ss.col[r], lo, hi = v, min(lo, v), max(hi, v)
		}
		ext := uint64(hi-lo) + 1
		if ext == 0 || ext > limit/vol {
			return
		}
		x.lo[a], x.ext[a] = lo, int64(ext)
		vol *= ext
		for r, v := range ss.col {
			ss.offs[r] = ss.offs[r]*int32(ext) + int32(v-lo)
		}
	}
	x.grow(int(vol))
	x.box = true
}

// MergePartial merges one shipped partial state into the session's open
// group of partials, opening one if none is: basic measure b's (in the
// workflow's order of basics) state bytes for the region whose
// cube.AppendCoords form is region. The first sight of a region also
// marks its enclosing regions occupied at every coarser grain. An unknown
// or holistic basic, a malformed region or one outside its levels'
// domains, and state bytes MergeState refuses are errors wrapping
// ErrCorruptValue; a refused state ends the group.
func (ss *Session) MergePartial(b int, region, state []byte) error {
	e, s := ss.e, ss.e.schema
	if b < 0 || b >= len(e.basicOrder) || !ss.st[e.basicOrder[b]].flat {
		return fmt.Errorf("%w: partial for basic %d, which has no flat state", ErrCorruptValue, b)
	}
	oi := e.basicOrder[b]
	m, gi := e.order[oi], e.gidxOf[oi]
	if err := cube.DecodeCoordsInto(region, ss.coord); err != nil {
		return fmt.Errorf("%w: %v", ErrCorruptValue, err)
	}
	for a, c := range ss.coord {
		if card := s.Attr(a).CardAt(m.Grain[a]); uint64(c) >= uint64(card) {
			return fmt.Errorf("%w: partial region coordinate %d of attribute %d outside [0, %d)", ErrCorruptValue, uint64(c), a, card)
		}
	}
	if !ss.open {
		ss.begin()
		ss.open = true
	}
	o, fresh := ss.idx[gi].intern(ss.coord)
	for gj, g := range e.grains {
		if fresh && gj != gi && g.GeneralizationOf(m.Grain) {
			for a := range ss.roll {
				ss.roll[a] = s.Attr(a).RollBetween(ss.coord[a], m.Grain[a], g[a])
			}
			ss.idx[gj].intern(ss.roll)
		}
	}
	sl := &ss.st[oi]
	sl.grow(int(o) + 1)
	if err := sl.states[o].MergeState(sl.kind, state); err != nil {
		ss.open = false
		return fmt.Errorf("%w: %v", ErrCorruptValue, err)
	}
	return nil
}

// EvaluatePartials computes all measures from the group of partial states
// MergePartial built (the early-aggregation path of Section III-D) and
// ends the group. Occupancy comes from the basic measures at equal or
// finer grains, so the workflow must satisfy SupportsEarlyAggregation.
// The returned results alias session storage (see Session).
func (ss *Session) EvaluatePartials() ([]Result, Stats, error) {
	var stats Stats
	if err := ss.e.SupportsEarlyAggregation(); err != nil {
		return nil, stats, err
	}
	if !ss.open {
		ss.begin()
	}
	ss.open = false
	out, err := ss.finish(&stats)
	return out, stats, err
}

// finish derives every measure in topological order, then materializes
// each measure's defined values in ascending region-key order.
func (ss *Session) finish(stats *Stats) ([]Result, error) {
	e := ss.e
	for oi, m := range e.order {
		if m.Kind == workflow.Rollup {
			ss.foldRollup(oi, m)
		}
		n := len(ss.idx[e.gidxOf[oi]].ends)
		vals := slices.Grow(ss.vals[oi][:0], n)[:n]
		ss.vals[oi] = vals
		switch m.Kind {
		case workflow.Basic, workflow.Rollup:
			for o := range vals {
				vals[o] = ss.st[oi].result(o)
			}
		case workflow.Self, workflow.Inherit:
			ss.evalSelf(oi, m, vals)
		case workflow.Sliding:
			ss.evalSliding(oi, m, vals, stats)
		default:
			return nil, fmt.Errorf("localeval: unknown kind %v", m.Kind)
		}
	}
	for oi, m := range e.order {
		x, vals := &ss.idx[e.gidxOf[oi]], ss.vals[oi]
		for _, o := range x.order() {
			if int(o) < len(vals) && !math.IsNaN(vals[o]) {
				ss.results = append(ss.results, Result{
					Measure: m.Name,
					Region:  cube.Region{Grain: m.Grain, Coord: x.coord(o)},
					Value:   vals[o],
				})
			}
		}
	}
	stats.Results = int64(len(ss.results))
	return ss.results, nil
}

// lookup returns source measure si's value for the region at ordinal o of
// grain gi, whose coordinates are c at grain g: the source's value at the
// same ordinal when the grains agree, else at the ordinal of the
// enclosing region at the source's grain; NaN when undefined.
func (ss *Session) lookup(si, gi int, o int32, c []int64, g cube.Grain) float64 {
	if sgi := ss.e.gidxOf[si]; sgi != gi {
		sg := ss.e.grains[sgi]
		for a := range c {
			ss.roll[a] = ss.e.schema.Attr(a).RollBetween(c[a], g[a], sg[a])
		}
		if _, o = ss.idx[sgi].find(ss.roll); o < 0 {
			return math.NaN()
		}
	}
	if v := ss.vals[si]; int(o) < len(v) {
		return v[o]
	}
	return math.NaN()
}

// evalSelf evaluates a self measure — its expression over its sources'
// values at each region — or an inherit, its one source's value.
func (ss *Session) evalSelf(oi int, m *workflow.Measure, vals []float64) {
	gi, srcs := ss.e.gidxOf[oi], ss.e.srcIdx[oi]
	x := &ss.idx[gi]
	args := slices.Grow(ss.args[:0], len(srcs))[:len(srcs)]
	ss.args = args
	for o := range int32(len(vals)) {
		for i, si := range srcs {
			args[i] = ss.lookup(si, gi, o, x.coord(o), m.Grain)
		}
		if m.Kind == workflow.Inherit {
			vals[o] = args[0]
		} else {
			vals[o] = m.Expr.Eval(args)
		}
	}
}

// foldRollup folds each defined source value into the state of its
// enclosing region, numbering that region at the rollup's grain if no
// measure grain saw it. Sources fold in ascending key order: rollup
// aggregates like SUM and AVG are order-sensitive in their final float
// bits.
func (ss *Session) foldRollup(oi int, m *workflow.Measure) {
	e := ss.e
	si := e.srcIdx[oi][0]
	sx, x, sl := &ss.idx[e.gidxOf[si]], &ss.idx[e.gidxOf[oi]], &ss.st[oi]
	sg, src := e.order[si].Grain, ss.vals[si]
	for _, so := range sx.order() {
		if int(so) >= len(src) || math.IsNaN(src[so]) {
			continue
		}
		c := sx.coord(so)
		for a := range c {
			ss.roll[a] = e.schema.Attr(a).RollBetween(c[a], sg[a], m.Grain[a])
		}
		o, _ := x.intern(ss.roll)
		sl.grow(int(o) + 1)
		sl.add(o, src[so])
	}
}

func (ss *Session) evalSliding(oi int, m *workflow.Measure, vals []float64, stats *Stats) {
	x, sl := &ss.idx[ss.e.gidxOf[oi]], &ss.st[oi]
	sl.grow(len(vals))
	for o := range int32(len(vals)) {
		copy(ss.probe, x.coord(o))
		ss.window(m.Window, ss.e.winMax[oi], 0, x, ss.vals[ss.e.srcIdx[oi][0]], sl, o, stats)
		vals[o] = sl.result(int(o))
	}
}

// window folds into slot o the source values of the cross product of the
// window offsets around ss.probe, restoring it. Coordinates outside the
// attribute's domain — below zero or above the level's cardinality
// (maxC[i], precomputed per annotation) — can never be occupied and are
// skipped without a lookup.
func (ss *Session) window(win []workflow.RangeAnn, maxC []int64, i int, x *regionIndex, src []float64, sl *slots, o int32, stats *Stats) {
	if i == len(win) {
		stats.WindowLookups++
		if _, so := x.find(ss.probe); so >= 0 && int(so) < len(src) && !math.IsNaN(src[so]) {
			sl.add(o, src[so])
		}
		return
	}
	ann := win[i]
	// The grain level of the annotated attribute is the measure's grain
	// level; the probe's coordinates are at that grain already.
	base := ss.probe[ann.Attr]
	for off := ann.Low; off <= ann.High; off++ {
		if c := base + off; c >= 0 && c <= maxC[i] {
			ss.probe[ann.Attr] = c
			ss.window(win, maxC, i+1, x, src, sl, o, stats)
		}
	}
	ss.probe[ann.Attr] = base
}
