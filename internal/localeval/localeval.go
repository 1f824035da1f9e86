// Package localeval implements the local evaluation subroutine the paper
// inherits from its VLDB'06 predecessor [4]: given all records of one
// distribution block, compute every measure of a composite subset measure
// query in a single pass of sorting and scanning, following the
// aggregation workflow's topological order.
//
// Concretely the evaluator sorts the block (the reducer-side "second
// sort" quantified in Figure 4(d); it can be skipped when the framework
// delivered the records pre-sorted under a combined key), then performs
// one scan that simultaneously builds every basic measure's groups and
// the per-grain occupancy index, and finally derives composite measures
// grain by grain: self measures join on the same (or parent) region,
// rollups aggregate child regions, inherits copy parent values down, and
// sibling measures aggregate a window of neighbouring regions.
//
// A measure value of NaN means "undefined" (e.g. a ratio over a missing
// source); undefined results are suppressed — they are neither output nor
// visible to downstream measures. Composite measures are evaluated at the
// *occupied* regions of their grain (regions containing at least one raw
// record), so result sets are always data-driven.
//
// The hot path is Session (see session.go), a per-reduce-task arena
// recycled across groups; Evaluator.Evaluate is a convenience wrapper
// that runs a fresh session per call.
package localeval

import (
	"fmt"
	"slices"
	"sort"

	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/workflow"
)

// Result is one measure record <region, value>.
type Result struct {
	Measure string
	Region  cube.Region
	Value   float64
}

// Stats counts the evaluator's work for cost accounting.
type Stats struct {
	SortedItems    int64 // records sorted by the in-block sort (0 if skipped)
	ScannedRecords int64 // records scanned
	WindowLookups  int64 // sibling-window probes
	Results        int64 // measure records produced
}

// Options tune one evaluation.
type Options struct {
	// SkipSort indicates the records already arrive in a total order
	// (the combined-key optimization of Section III-D).
	SkipSort bool
}

// Evaluator holds the workflow-derived read-only plan for evaluating
// blocks: the topological measure order, the distinct grains, source and
// grain indices resolved to array offsets, and each sliding window's
// domain bounds. It is immutable after New and safe for concurrent use;
// all mutable evaluation state lives in Session.
type Evaluator struct {
	w      *workflow.Workflow
	schema *cube.Schema
	order  []*workflow.Measure
	grains []cube.Grain // distinct grains, indexed by grainIdx
	gidx   map[string]int

	arity int
	// cols are the attributes evaluation reads — every attribute some
	// measure grain holds below ALL, plus every basic's input — ascending;
	// colOf[attr] is the attribute's position in cols, -1 when unread. A
	// session's arena holds these columns and nothing else.
	cols       []int
	colOf      []int
	gidxOf     []int     // gidxOf[oi] = grain index of order[oi].Grain
	srcIdx     [][]int   // srcIdx[oi] = order indices of order[oi].Sources
	basicOrder []int     // order indices of Basic measures, in topo order
	basicsAt   [][]int   // basicsAt[gi] = order indices of Basic measures at grain gi
	winMax     [][]int64 // winMax[oi][j] = max in-domain coordinate of order[oi].Window[j] (Sliding only)
}

// New validates the workflow and builds an evaluator.
func New(w *workflow.Workflow) (*Evaluator, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	order, err := w.TopoOrder()
	if err != nil {
		return nil, err
	}
	e := &Evaluator{w: w, schema: w.Schema(), order: order, gidx: make(map[string]int)}
	e.arity = e.schema.NumAttrs()
	midx := make(map[string]int, len(order))
	for oi, m := range order {
		midx[m.Name] = oi
	}
	e.gidxOf = make([]int, len(order))
	e.srcIdx = make([][]int, len(order))
	e.winMax = make([][]int64, len(order))
	for oi, m := range order {
		e.gidxOf[oi] = e.grainIndex(m.Grain)
		if len(m.Sources) > 0 {
			idx := make([]int, len(m.Sources))
			for i, name := range m.Sources {
				si, ok := midx[name]
				if !ok {
					return nil, fmt.Errorf("localeval: missing source %q", name)
				}
				idx[i] = si
			}
			e.srcIdx[oi] = idx
		}
		if m.Kind == workflow.Sliding {
			maxC := make([]int64, len(m.Window))
			for j, ann := range m.Window {
				maxC[j] = e.schema.Attr(ann.Attr).CardAt(m.Grain[ann.Attr]) - 1
			}
			e.winMax[oi] = maxC
		}
	}
	e.basicsAt = make([][]int, len(e.grains))
	for oi, m := range order {
		if m.Kind == workflow.Basic {
			e.basicOrder = append(e.basicOrder, oi)
			gi := e.gidxOf[oi]
			e.basicsAt[gi] = append(e.basicsAt[gi], oi)
		}
	}
	e.colOf = make([]int, e.arity)
	for a := range e.colOf {
		e.colOf[a] = -1
		if slices.ContainsFunc(order, func(m *workflow.Measure) bool {
			return m.Grain[a] != e.schema.Attr(a).AllIndex() || m.Kind == workflow.Basic && m.InputAttr == a
		}) {
			e.colOf[a] = len(e.cols)
			e.cols = append(e.cols, a)
		}
	}
	return e, nil
}

// Columns returns the schema attributes evaluation reads, ascending. Every
// other attribute of a record only ever rolls up to ALL, so a record value
// may leave it out (see Layout).
func (e *Evaluator) Columns() []int { return e.cols }

// Layout describes a shuffled record value to one evaluator's sessions:
// entry i is the arena column the value's i-th uvarint is loaded into, or
// -1 for an attribute the evaluator does not read.
type Layout []int

// FullLayout is the layout of a whole record, every schema attribute in
// order.
func (e *Evaluator) FullLayout() Layout { return e.colOf }

// Layout returns the layout of values projected to attrs, in that order —
// a job's read columns. attrs must include every column the evaluator
// reads.
func (e *Evaluator) Layout(attrs []int) (Layout, error) {
	lay := make(Layout, len(attrs))
	found := 0
	for i, a := range attrs {
		if lay[i] = e.colOf[a]; lay[i] >= 0 {
			found++
		}
	}
	if found != len(e.cols) {
		return nil, fmt.Errorf("localeval: a value of attributes %v lacks some of the read columns %v", attrs, e.cols)
	}
	return lay, nil
}

func grainKey(g cube.Grain) string {
	b := make([]byte, len(g))
	for i, l := range g {
		b[i] = byte(l)
	}
	return string(b)
}

// grainIndex registers a grain during construction. The grain set is
// frozen after New; sessions index it through Evaluator.gidxOf.
func (e *Evaluator) grainIndex(g cube.Grain) int {
	k := grainKey(g)
	if i, ok := e.gidx[k]; ok {
		return i
	}
	e.gidx[k] = len(e.grains)
	e.grains = append(e.grains, g.Clone())
	return len(e.grains) - 1
}

// Evaluate computes all measures over the block's records. It is a
// convenience wrapper that runs a fresh Session per call, so the returned
// results are owned by the caller; reduce tasks that evaluate many groups
// should hold one Session and call Session.EvaluateBlock instead.
func (e *Evaluator) Evaluate(records []cube.Record, opt Options) ([]Result, Stats, error) {
	ss := e.NewSession()
	for _, rec := range records {
		ss.AppendRecord(rec)
	}
	return ss.EvaluateBlock(opt)
}

// SupportsEarlyAggregation reports whether the paper's early-aggregation
// conditions hold for this workflow: every basic measure's aggregate is
// algebraic or distributive, and every measure grain is covered by some
// basic measure at an equal or finer grain (so occupancy can be
// reconstructed from partial aggregates alone).
func (e *Evaluator) SupportsEarlyAggregation() error {
	for _, m := range e.order {
		if m.Kind == workflow.Basic && !m.Agg.Mergeable() {
			return fmt.Errorf("localeval: basic measure %q is %s (holistic); early aggregation needs algebraic or distributive functions",
				m.Name, m.Agg)
		}
	}
	for _, m := range e.order {
		covered := false
		for _, b := range e.order {
			if b.Kind == workflow.Basic && m.Grain.GeneralizationOf(b.Grain) {
				covered = true
				break
			}
		}
		if !covered {
			return fmt.Errorf("localeval: measure %q grain %s has no basic measure at an equal or finer grain; occupancy cannot be reconstructed",
				m.Name, e.schema.FormatGrain(m.Grain))
		}
	}
	return nil
}

// SortRecords orders records lexicographically by their finest-level
// values; any total order works for the hash-based group construction,
// and a deterministic one makes runs reproducible (this is the in-group
// sort whose cost Figure 4(d) isolates). Session.SortLoaded is the
// arena-backed equivalent used by reduce tasks: it sorts the flat block
// arena's rows as packed integers, or permutes their row index, instead
// of swapping record headers.
func SortRecords(records []cube.Record) {
	sort.Slice(records, func(i, j int) bool {
		a, b := records[i], records[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}
