package localeval

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/measure"
	"github.com/casm-project/casm/internal/workflow"
)

// maxPooledAggs bounds each aggregate kind's free list so one huge group
// cannot pin unbounded aggregator memory for the rest of the task.
const maxPooledAggs = 1 << 16

// Session is the per-reduce-task evaluation state: the reduce-side twin
// of distkey.Session. One session is created per reduce task (through
// mr.Config.NewReduceLocal) and reused across every group the task
// evaluates, so all block-sized buffers — the columnar record arena, the
// per-grain occupancy maps, the basic-aggregate and value maps, encode
// scratch, and the aggregator free lists — are allocated once and
// recycled.
//
// Records are held as fixed-stride rows in one flat []int64 arena, one
// value per column the evaluator reads (AppendRaw decodes shuffled
// payloads straight into it), read in the order of an []int32 row index.
// The in-block sort of a large block whose read columns fit 64 bits
// together packs each row into one uint64, radix-sorts the keys in the
// arena's own words and unpacks them in order, leaving the index as
// built; any other block keeps its arena and the sort permutes the index.
// All string-keyed indexes are probed through reused encode scratch via
// the map[string(bytes)] compiler optimization, so steady-state evaluation
// allocates only the key string and saved coordinates of each *new*
// distinct region — O(regions), independent of record count.
//
// Value ownership: the []Result returned by EvaluateBlock and
// EvaluateFromBasics, including each Result.Region.Coord, aliases session
// storage and is valid only until the next Append*/Sort*/Evaluate* call
// on the same session. Callers that need results beyond that must copy.
// A Session is not safe for concurrent use; the shared Evaluator is.
type Session struct {
	e *Evaluator

	// Columnar block arena: rows*len(e.cols) values, plus the row
	// permutation.
	data []int64
	rows []int32

	// Per-evaluate indexes, cleared (buckets retained) between groups.
	occ    []map[string][]int64            // occ[gi]: occupied regions of grain gi
	aggs   []map[string]measure.Aggregator // aggs[oi]: Basic measures only, else nil
	values []map[string]float64            // values[oi]: computed non-NaN values
	rollup map[string]measure.Aggregator   // scratch map for evalRollup
	pooled bool                            // whether aggs currently holds pool-owned aggregators

	// coordStore backs every saved region coordinate slice. Growth may
	// reallocate, but previously returned sub-slices stay valid (they
	// alias the old backing array); reset only truncates.
	coordStore []int64

	// Scratch buffers.
	rec     cube.Record // the row being scanned at full arity: unread attributes stay 0, which rolls to ALL like any value
	coord   []int64     // CoordOf target
	roll    []int64     // RollBetween target for lookups
	probe   []int64     // windowScan sibling coordinates
	encG    [][]byte    // per-grain encoded key of the current record
	enc     []byte      // general encode scratch
	args    []float64
	keybuf  []string
	results []Result

	// pool holds reset aggregators for reuse, keyed by aggregate kind.
	pool map[measure.Spec][]measure.Aggregator

	// ArenaBytes is the high-water footprint of the session's arenas
	// (record data + row index + saved coordinates), in bytes.
	ArenaBytes int64
	// PoolHits / PoolMisses count aggregator pool recycling.
	PoolHits   int64
	PoolMisses int64
}

// NewSession returns an empty session for the evaluator. Sessions are
// cheap relative to a reduce task but not to a group: create one per
// task and reuse it.
func (e *Evaluator) NewSession() *Session {
	ss := &Session{
		e:      e,
		rec:    make(cube.Record, e.arity),
		coord:  make([]int64, e.arity),
		roll:   make([]int64, e.arity),
		probe:  make([]int64, e.arity),
		occ:    make([]map[string][]int64, len(e.grains)),
		encG:   make([][]byte, len(e.grains)),
		aggs:   make([]map[string]measure.Aggregator, len(e.order)),
		values: make([]map[string]float64, len(e.order)),
		rollup: make(map[string]measure.Aggregator),
		pool:   make(map[measure.Spec][]measure.Aggregator),
	}
	for gi := range ss.occ {
		ss.occ[gi] = make(map[string][]int64)
	}
	for oi, m := range e.order {
		if m.Kind == workflow.Basic {
			ss.aggs[oi] = make(map[string]measure.Aggregator)
		}
		ss.values[oi] = make(map[string]float64)
	}
	return ss
}

// ErrCorruptValue is wrapped by every AppendRaw failure.
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
	ss.data = ss.data[:0]
	ss.rows = ss.rows[:0]
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

// begin resets the per-evaluate indexes, returning the previous group's
// pooled aggregators to the free lists. The previous group's results
// become invalid here (see the ownership note on Session).
func (ss *Session) begin() {
	for gi := range ss.occ {
		clear(ss.occ[gi])
	}
	for oi, m := range ss.aggs {
		if m == nil {
			continue
		}
		if ss.pooled {
			spec := ss.e.order[oi].Agg
			for _, agg := range m {
				ss.putAgg(spec, agg)
			}
		}
		clear(m)
	}
	for oi := range ss.values {
		clear(ss.values[oi])
	}
	ss.coordStore = ss.coordStore[:0]
	ss.results = ss.results[:0]
}

// noteArena updates the high-water arena footprint counter.
func (ss *Session) noteArena() {
	fp := int64(cap(ss.data)+cap(ss.coordStore))*8 + int64(cap(ss.rows))*4
	if fp > ss.ArenaBytes {
		ss.ArenaBytes = fp
	}
}

// getAgg takes an aggregator of the given kind from the pool, or builds
// a fresh one.
func (ss *Session) getAgg(spec measure.Spec) measure.Aggregator {
	if l := ss.pool[spec]; len(l) > 0 {
		agg := l[len(l)-1]
		ss.pool[spec] = l[:len(l)-1]
		ss.PoolHits++
		return agg
	}
	ss.PoolMisses++
	return spec.New()
}

// putAgg resets an aggregator and returns it to the pool.
func (ss *Session) putAgg(spec measure.Spec, agg measure.Aggregator) {
	if len(ss.pool[spec]) >= maxPooledAggs {
		return
	}
	agg.Reset()
	ss.pool[spec] = append(ss.pool[spec], agg)
}

// saveCoords copies a region's coordinates into the coordinate arena and
// returns a capped view.
func (ss *Session) saveCoords(coord []int64) []int64 {
	n := len(ss.coordStore)
	ss.coordStore = append(ss.coordStore, coord...)
	return ss.coordStore[n:len(ss.coordStore):len(ss.coordStore)]
}

// insertRegion registers a newly seen region of grain gi: it materializes
// the key string exactly once, records the coordinates, and creates one
// pooled aggregator per basic measure at the grain. After insertion the
// scan invariant holds: a key present in occ[gi] is present in every
// aggs[oi] with oi ∈ basicsAt[gi], so scan-time probes never miss.
func (ss *Session) insertRegion(gi int, enc []byte, coord []int64) {
	k := string(enc)
	ss.occ[gi][k] = ss.saveCoords(coord)
	for _, oi := range ss.e.basicsAt[gi] {
		ss.aggs[oi][k] = ss.getAgg(ss.e.order[oi].Agg)
	}
}

// EvaluateBlock computes all measures over the loaded rows and resets the
// arena for the next group. The returned results alias session storage
// (see the ownership note on Session).
func (ss *Session) EvaluateBlock(opt Options) ([]Result, Stats, error) {
	var stats Stats
	ss.begin()
	ss.pooled = true
	ss.scanHash(opt, &stats)
	out, err := ss.finish(&stats)
	ss.data = ss.data[:0]
	ss.rows = ss.rows[:0]
	ss.noteArena()
	return out, stats, err
}

// scanHash builds every grain's occupancy and every basic measure's
// aggregators through hash tables in a single scan of the arena rows.
func (ss *Session) scanHash(opt Options, stats *Stats) {
	e, s := ss.e, ss.e.schema
	if !opt.SkipSort {
		ss.sortRows()
		stats.SortedItems = int64(len(ss.rows))
	}
	rec, stride := ss.rec, len(e.cols)
	for _, ri := range ss.rows {
		row := ss.data[int(ri)*stride:][:stride]
		for j, c := range e.cols {
			rec[c] = row[j]
		}
		stats.ScannedRecords++
		for gi := range e.grains {
			s.CoordOf(rec, e.grains[gi], ss.coord)
			enc := cube.AppendCoords(ss.encG[gi][:0], ss.coord)
			ss.encG[gi] = enc
			if _, ok := ss.occ[gi][string(enc)]; !ok {
				ss.insertRegion(gi, enc, ss.coord)
			}
		}
		for _, oi := range e.basicOrder {
			m := e.order[oi]
			agg := ss.aggs[oi][string(ss.encG[e.gidxOf[oi]])]
			if m.InputAttr >= 0 {
				agg.Add(float64(rec[m.InputAttr]))
			} else {
				agg.Add(0)
			}
		}
	}
}

// EvaluateFromBasics computes all measures from pre-merged basic-measure
// aggregates (the early-aggregation path of Section III-D). Every basic
// measure must be present in basics; the per-grain occupancy index is
// reconstructed from basic measures at equal or finer grains, so the
// workflow must satisfy SupportsEarlyAggregation. The aggregators in
// basics remain caller-owned: the session never pools or resets them.
// The returned results alias session storage (see Session).
func (ss *Session) EvaluateFromBasics(basics map[string][]BasicGroup) ([]Result, Stats, error) {
	var stats Stats
	e, s := ss.e, ss.e.schema
	if err := e.SupportsEarlyAggregation(); err != nil {
		return nil, stats, err
	}
	ss.begin()
	ss.pooled = false
	for oi, m := range e.order {
		if m.Kind != workflow.Basic {
			continue
		}
		groups, ok := basics[m.Name]
		if !ok {
			return nil, stats, fmt.Errorf("localeval: missing basic measure %q in pre-aggregated input", m.Name)
		}
		aggs := ss.aggs[oi]
		for _, g := range groups {
			enc := cube.AppendCoords(ss.enc[:0], g.Coords)
			ss.enc = enc
			if prev, dup := aggs[string(enc)]; dup {
				if err := prev.MergeState(g.Agg.State()); err != nil {
					return nil, stats, err
				}
			} else {
				aggs[string(enc)] = g.Agg
			}
			// Populate occupancy at every grain this basic's grain
			// specializes, by rolling the region coordinates up.
			for gi, grain := range e.grains {
				if !grain.GeneralizationOf(m.Grain) {
					continue
				}
				for i := range ss.coord {
					ss.coord[i] = s.Attr(i).RollBetween(g.Coords[i], m.Grain[i], grain[i])
				}
				enc := cube.AppendCoords(ss.enc[:0], ss.coord)
				ss.enc = enc
				if _, seen := ss.occ[gi][string(enc)]; !seen {
					ss.occ[gi][string(enc)] = ss.saveCoords(ss.coord)
				}
			}
		}
	}
	out, err := ss.finish(&stats)
	ss.noteArena()
	return out, stats, err
}

// finish derives every measure in topological order from the occupancy
// index and the basic aggregates, then materializes results.
func (ss *Session) finish(stats *Stats) ([]Result, error) {
	e := ss.e
	for oi, m := range e.order {
		vm := ss.values[oi]
		switch m.Kind {
		case workflow.Basic:
			for k, agg := range ss.aggs[oi] {
				if v := agg.Result(); !math.IsNaN(v) {
					vm[k] = v
				}
			}
		case workflow.Self:
			ss.evalSelf(oi, m, vm)
		case workflow.Inherit:
			ss.evalInherit(oi, m, vm)
		case workflow.Rollup:
			ss.evalRollup(oi, m, vm)
		case workflow.Sliding:
			ss.evalSliding(oi, m, vm, stats)
		default:
			return nil, fmt.Errorf("localeval: unknown kind %v", m.Kind)
		}
	}

	// Materialize results in deterministic order.
	keys := ss.keybuf[:0]
	for oi, m := range e.order {
		vm := ss.values[oi]
		gi := e.gidxOf[oi]
		keys = keys[:0]
		for k := range vm {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			ss.results = append(ss.results, Result{
				Measure: m.Name,
				Region:  cube.Region{Grain: m.Grain, Coord: ss.occ[gi][k]},
				Value:   vm[k],
			})
		}
	}
	ss.keybuf = keys[:0]
	stats.Results = int64(len(ss.results))
	return ss.results, nil
}

// lookupAt resolves source measure order[si]'s value for the region with
// the given coordinates at grain g, rolling up to the source's grain as
// needed. It probes through session scratch and never allocates.
func (ss *Session) lookupAt(si int, coords []int64, g cube.Grain) (float64, bool) {
	s := ss.e.schema
	sg := ss.e.order[si].Grain
	for i := range coords {
		ss.roll[i] = s.Attr(i).RollBetween(coords[i], g[i], sg[i])
	}
	enc := cube.AppendCoords(ss.enc[:0], ss.roll)
	ss.enc = enc
	v, ok := ss.values[si][string(enc)]
	return v, ok
}

func (ss *Session) evalSelf(oi int, m *workflow.Measure, vm map[string]float64) {
	gi := ss.e.gidxOf[oi]
	srcs := ss.e.srcIdx[oi]
	if cap(ss.args) < len(srcs) {
		ss.args = make([]float64, len(srcs))
	}
	args := ss.args[:len(srcs)]
	for k, coords := range ss.occ[gi] {
		for i, si := range srcs {
			v, ok := ss.lookupAt(si, coords, m.Grain)
			if !ok {
				v = math.NaN()
			}
			args[i] = v
		}
		if v := m.Expr.Eval(args); !math.IsNaN(v) {
			vm[k] = v
		}
	}
}

func (ss *Session) evalInherit(oi int, m *workflow.Measure, vm map[string]float64) {
	gi := ss.e.gidxOf[oi]
	si := ss.e.srcIdx[oi][0]
	for k, coords := range ss.occ[gi] {
		if v, ok := ss.lookupAt(si, coords, m.Grain); ok && !math.IsNaN(v) {
			vm[k] = v
		}
	}
}

func (ss *Session) evalRollup(oi int, m *workflow.Measure, vm map[string]float64) {
	e, s := ss.e, ss.e.schema
	si := e.srcIdx[oi][0]
	sm := e.order[si]
	sgi := e.gidxOf[si]
	gi := e.gidxOf[oi]
	aggs := ss.rollup
	// Fold source regions in sorted-key order: rollup aggregates like SUM
	// and AVG are order-sensitive in their final float bits, and map
	// iteration order would make repeated runs differ in the last ulp.
	keys := ss.keybuf[:0]
	for k := range ss.values[si] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := ss.values[si][k]
		coords := ss.occ[sgi][k]
		for i := range coords {
			ss.roll[i] = s.Attr(i).RollBetween(coords[i], sm.Grain[i], m.Grain[i])
		}
		enc := cube.AppendCoords(ss.enc[:0], ss.roll)
		ss.enc = enc
		agg, ok := aggs[string(enc)]
		if !ok {
			agg = ss.getAgg(m.Agg)
			pk := string(enc)
			aggs[pk] = agg
			// Record the parent's coordinates so results can name the
			// region even if no measure grain matched it during the scan.
			if _, seen := ss.occ[gi][pk]; !seen {
				ss.occ[gi][pk] = ss.saveCoords(ss.roll)
			}
		}
		agg.Add(v)
	}
	ss.keybuf = keys[:0]
	for pk, agg := range aggs {
		if v := agg.Result(); !math.IsNaN(v) {
			vm[pk] = v
		}
		ss.putAgg(m.Agg, agg)
	}
	clear(aggs)
}

func (ss *Session) evalSliding(oi int, m *workflow.Measure, vm map[string]float64, stats *Stats) {
	e := ss.e
	gi := e.gidxOf[oi]
	si := e.srcIdx[oi][0]
	srcVals := ss.values[si]
	maxC := e.winMax[oi]
	agg := ss.getAgg(m.Agg)
	visit := func() {
		stats.WindowLookups++
		enc := cube.AppendCoords(ss.enc[:0], ss.probe)
		ss.enc = enc
		if v, ok := srcVals[string(enc)]; ok {
			agg.Add(v)
		}
	}
	for k, coords := range ss.occ[gi] {
		agg.Reset()
		ss.windowScan(m.Window, maxC, 0, coords, visit)
		if agg.N() == 0 {
			continue
		}
		if v := agg.Result(); !math.IsNaN(v) {
			vm[k] = v
		}
	}
	ss.putAgg(m.Agg, agg)
}

// windowScan enumerates the cross product of window offsets, filling
// ss.probe with each sibling's coordinates and invoking visit.
// Coordinates outside the attribute's domain — below zero or above the
// level's cardinality (maxC[i], precomputed per annotation) — can never
// be occupied and are skipped without a lookup.
func (ss *Session) windowScan(window []workflow.RangeAnn, maxC []int64, i int, base []int64, visit func()) {
	if i == 0 {
		copy(ss.probe, base)
	}
	if i == len(window) {
		visit()
		return
	}
	ann := window[i]
	// The grain level of the annotated attribute is the measure's grain
	// level; base coords are at that grain already.
	for off := ann.Low; off <= ann.High; off++ {
		c := base[ann.Attr] + off
		if c < 0 || c > maxC[i] {
			continue
		}
		ss.probe[ann.Attr] = c
		ss.windowScan(window, maxC, i+1, base, visit)
	}
	ss.probe[ann.Attr] = base[ann.Attr]
}
