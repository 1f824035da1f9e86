package localeval

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/measure"
	"github.com/casm-project/casm/internal/workflow"
)

// Session is the per-reduce-task evaluation state: the reduce-side twin
// of distkey.Session. One session is created per reduce task (through
// mr.Config.NewReduceLocal) and reused across every group the task
// evaluates, so every block-sized buffer is allocated once and recycled.
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
// of its grain. The scan resolves the rows' ordinals grain by grain,
// folding each row into the basics at the grain. A group starts in O(1)
// per grain and measure; a warmed session allocates nothing per region.
//
// Value ownership: the []Result returned by EvaluateBlock and
// EvaluatePartials, including each Result.Region.Coord, aliases session
// storage and is valid only until the next Append*/Sort*/Merge*/Evaluate*
// call on the same session. Callers that need results beyond that must
// copy. A Session is not safe for concurrent use; the shared Evaluator is.
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
	rec     cube.Record // the row being scanned at full arity: unread attributes stay 0, which rolls to ALL like any value
	coord   []int64     // CoordOf target
	roll    []int64     // RollBetween target
	probe   []int64     // window sibling coordinates
	args    []float64
	results []Result

	// ArenaBytes is the high-water footprint of the session's block
	// arena (record data and row index), in bytes.
	ArenaBytes int64
}

// NewSession returns an empty session for the evaluator. Sessions are
// cheap relative to a reduce task but not to a group: create one per
// task and reuse it.
func (e *Evaluator) NewSession() *Session {
	ss := &Session{
		e:     e,
		rec:   make(cube.Record, e.arity),
		coord: make([]int64, e.arity),
		roll:  make([]int64, e.arity),
		probe: make([]int64, e.arity),
		idx:   make([]regionIndex, len(e.grains)),
		st:    make([]slots, len(e.order)),
		vals:  make([][]float64, len(e.order)),
	}
	for gi := range ss.idx {
		ss.idx[gi].arity = e.arity
	}
	for oi, m := range e.order {
		ss.st[oi].spec = m.Agg
		ss.st[oi].kind, ss.st[oi].flat = m.Agg.FlatKind()
	}
	return ss
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
}

// SortLoaded sorts the loaded rows lexicographically (the isolated
// in-group sort of the paper's StageSort runs), then discards the block.
// It returns the number of rows sorted.
func (ss *Session) SortLoaded() int {
	n := len(ss.rows)
	ss.sortRows()
	ss.data, ss.rows = ss.data[:0], ss.rows[:0]
	ss.noteArena()
	return n
}

const (
	packMinRows = 96 // the smallest block sortRows sorts as packed integers: on smaller ones the comparison sort is faster
	radixBits   = 11 // the digit width of their LSD passes: 2¹¹ counters fit L1
)

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
	keys, tmp := data[:n], data[n:2*n]
	for shift := uint64(0); shift < total; shift += radixBits {
		var count [1 << radixBits]int32
		for _, k := range keys {
			count[uint64(k)>>shift&(1<<radixBits-1)]++
		}
		if count[uint64(keys[0])>>shift&(1<<radixBits-1)] == int32(n) {
			continue
		}
		sum := int32(0)
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
	if &keys[0] != &data[0] {
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
// of first sight: an open-addressing table over their coordinates, kept
// for ordinal o in coords[o*arity:], with each region's AppendCoords key,
// the order results are emitted in, in one byte arena. A cell is live only
// under the current stamp, so a reset is O(1).
type regionIndex struct {
	arity  int
	cells  []uint64 // stamp<<32 | ordinal+1
	stamp  uint64
	coords []int64
	keys   []byte
	ends   []uint32 // ends[o]: where ordinal o's key ends in keys
	sorted []int32  // the ordinals in key order, while it holds all of them
	last   int32    // the ordinal intern returned last, -1 after a reset
}

func (x *regionIndex) reset() {
	x.coords, x.keys, x.ends, x.sorted, x.last = x.coords[:0], x.keys[:0], x.ends[:0], x.sorted[:0], -1
	if x.stamp++; x.stamp == 1<<32 {
		clear(x.cells)
		x.stamp = 1
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

// find returns the table cell of the region at coord and its ordinal, -1
// (and a free cell, if the table has any) when the group has no such region.
func (x *regionIndex) find(coord []int64) (int, int32) {
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
// is new (fresh).
func (x *regionIndex) intern(coord []int64) (o int32, fresh bool) {
	if x.last >= 0 && slices.Equal(x.coord(x.last), coord) {
		return x.last, false
	}
	if 2*(len(x.ends)+1) > len(x.cells) {
		x.cells, x.stamp = make([]uint64, max(2*len(x.cells), 16)), 1
		for o := range int32(len(x.ends)) {
			i, _ := x.find(x.coord(o))
			x.cells[i] = 1<<32 | uint64(o+1)
		}
	}
	i, o := x.find(coord)
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

// noteArena updates the high-water arena footprint counter.
func (ss *Session) noteArena() {
	fp := int64(cap(ss.data))*8 + int64(cap(ss.rows))*4
	if fp > ss.ArenaBytes {
		ss.ArenaBytes = fp
	}
}

// EvaluateBlock computes all measures over the loaded rows and resets the
// arena for the next group. The returned results alias session storage
// (see the ownership note on Session).
func (ss *Session) EvaluateBlock(opt Options) ([]Result, Stats, error) {
	var stats Stats
	ss.begin()
	ss.scan(opt, &stats)
	out, err := ss.finish(&stats)
	ss.data, ss.rows = ss.data[:0], ss.rows[:0]
	ss.noteArena()
	return out, stats, err
}

// scan numbers the rows' regions one grain at a time — a row in the last
// row's region skips the probe — folding each row into the states of the
// basic measures at the grain as its ordinal is known.
func (ss *Session) scan(opt Options, stats *Stats) {
	e, s := ss.e, ss.e.schema
	if !opt.SkipSort {
		ss.sortRows()
		stats.SortedItems = int64(len(ss.rows))
	}
	stride := len(e.cols)
	stats.ScannedRecords = int64(len(ss.rows))
	for gi, g := range e.grains {
		x := &ss.idx[gi]
		for _, ri := range ss.rows {
			row := ss.data[int(ri)*stride:][:stride]
			for j, c := range e.cols {
				ss.rec[c] = row[j]
			}
			s.CoordOf(ss.rec, g, ss.coord)
			o, fresh := x.intern(ss.coord)
			for _, oi := range e.basicsAt[gi] {
				sl, v := &ss.st[oi], 0.0
				if fresh {
					sl.grow(int(o) + 1)
				}
				if a := e.order[oi].InputAttr; a >= 0 {
					v = float64(ss.rec[a])
				}
				sl.add(o, v)
			}
		}
	}
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
	ss.noteArena()
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
