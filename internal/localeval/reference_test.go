package localeval

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/measure"
	"github.com/casm-project/casm/internal/workflow"
)

// This file is a faithful port of the pre-arena ("seed") evaluator: one
// allocation-heavy pass with string-keyed maps built from scratch on
// every call. The property tests pin the Session implementation to it
// byte for byte, so any behavioural drift in the arena/columnar rewrite
// shows up as a float-bit or region-set diff.

type refRegionIndex struct {
	coords map[string][]int64
}

type refMeasureState struct {
	values map[string]float64
}

func refEvaluate(t *testing.T, e *Evaluator, records []cube.Record, opt Options) ([]Result, Stats) {
	t.Helper()
	var stats Stats
	occupancy := make([]refRegionIndex, len(e.grains))
	for i := range occupancy {
		occupancy[i] = refRegionIndex{coords: make(map[string][]int64)}
	}
	basicAggs := make(map[string]map[string]measure.Aggregator)
	refScanHash(e, records, opt, occupancy, basicAggs, &stats)
	out, err := refFinish(e, occupancy, basicAggs, &stats)
	if err != nil {
		t.Fatal(err)
	}
	return out, stats
}

func refScanHash(e *Evaluator, records []cube.Record, opt Options, occupancy []refRegionIndex, basicAggs map[string]map[string]measure.Aggregator, stats *Stats) {
	s := e.schema
	if !opt.SkipSort {
		SortRecords(records)
		stats.SortedItems = int64(len(records))
	}
	type basicAgg struct {
		m    *workflow.Measure
		aggs map[string]measure.Aggregator
		gi   int
	}
	var basics []*basicAgg
	for oi, m := range e.order {
		if m.Kind == workflow.Basic {
			aggs := make(map[string]measure.Aggregator)
			basicAggs[m.Name] = aggs
			basics = append(basics, &basicAgg{m: m, aggs: aggs, gi: e.gidxOf[oi]})
		}
	}
	coord := make([]int64, s.NumAttrs())
	keys := make([]string, len(e.grains))
	for _, rec := range records {
		stats.ScannedRecords++
		for gi, g := range e.grains {
			s.CoordOf(rec, g, coord)
			k := cube.EncodeCoords(coord)
			keys[gi] = k
			if _, ok := occupancy[gi].coords[k]; !ok {
				occupancy[gi].coords[k] = append([]int64(nil), coord...)
			}
		}
		for _, b := range basics {
			k := keys[b.gi]
			agg, ok := b.aggs[k]
			if !ok {
				agg = b.m.Agg.New()
				b.aggs[k] = agg
			}
			if b.m.InputAttr >= 0 {
				agg.Add(float64(rec[b.m.InputAttr]))
			} else {
				agg.Add(0)
			}
		}
	}
}

// basicGroup is one pre-aggregated basic-measure group: a region's
// coordinates at the basic's grain and the partial aggregate a mapper
// shipped for it.
type basicGroup struct {
	coords []int64
	agg    measure.Aggregator
}

// mergeBasics feeds pre-aggregated groups to a session the way a reducer
// does: each group's state bytes through MergePartial, basic by basic.
func mergeBasics(t *testing.T, ss *Session, basics map[string][]basicGroup) {
	t.Helper()
	for b, oi := range ss.e.basicOrder {
		for _, g := range basics[ss.e.order[oi].Name] {
			if err := ss.MergePartial(b, cube.AppendCoords(nil, g.coords), g.agg.State()); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func refEvaluateFromBasics(t *testing.T, e *Evaluator, basics map[string][]basicGroup) ([]Result, Stats) {
	t.Helper()
	var stats Stats
	if err := e.SupportsEarlyAggregation(); err != nil {
		t.Fatal(err)
	}
	s := e.schema
	occupancy := make([]refRegionIndex, len(e.grains))
	for i := range occupancy {
		occupancy[i] = refRegionIndex{coords: make(map[string][]int64)}
	}
	basicAggs := make(map[string]map[string]measure.Aggregator, len(basics))
	for _, m := range e.order {
		if m.Kind != workflow.Basic {
			continue
		}
		groups, ok := basics[m.Name]
		if !ok {
			t.Fatalf("missing basic %q", m.Name)
		}
		aggs := make(map[string]measure.Aggregator, len(groups))
		basicAggs[m.Name] = aggs
		coord := make([]int64, s.NumAttrs())
		for _, g := range groups {
			k := cube.EncodeCoords(g.coords)
			if prev, dup := aggs[k]; dup {
				if err := prev.MergeState(g.agg.State()); err != nil {
					t.Fatal(err)
				}
			} else {
				aggs[k] = g.agg
			}
			for gi, grain := range e.grains {
				if !grain.GeneralizationOf(m.Grain) {
					continue
				}
				for i := range coord {
					coord[i] = s.Attr(i).RollBetween(g.coords[i], m.Grain[i], grain[i])
				}
				ck := cube.EncodeCoords(coord)
				if _, seen := occupancy[gi].coords[ck]; !seen {
					occupancy[gi].coords[ck] = append([]int64(nil), coord...)
				}
			}
		}
	}
	out, err := refFinish(e, occupancy, basicAggs, &stats)
	if err != nil {
		t.Fatal(err)
	}
	return out, stats
}

func refFinish(e *Evaluator, occupancy []refRegionIndex, basicAggs map[string]map[string]measure.Aggregator, stats *Stats) ([]Result, error) {
	states := make(map[string]*refMeasureState, len(e.order))
	for _, m := range e.order {
		st := &refMeasureState{values: make(map[string]float64)}
		states[m.Name] = st
		switch m.Kind {
		case workflow.Basic:
			for k, agg := range basicAggs[m.Name] {
				if v := agg.Result(); !math.IsNaN(v) {
					st.values[k] = v
				}
			}
		case workflow.Self:
			if err := refEvalSelf(e, m, st, states, occupancy); err != nil {
				return nil, err
			}
		case workflow.Inherit:
			if err := refEvalInherit(e, m, st, states, occupancy); err != nil {
				return nil, err
			}
		case workflow.Rollup:
			if err := refEvalRollup(e, m, st, states, occupancy); err != nil {
				return nil, err
			}
		case workflow.Sliding:
			if err := refEvalSliding(e, m, st, states, occupancy, stats); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("unknown kind %v", m.Kind)
		}
	}
	var out []Result
	for _, m := range e.order {
		st := states[m.Name]
		gi := e.grainIndex(m.Grain)
		keys := make([]string, 0, len(st.values))
		for k := range st.values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			out = append(out, Result{
				Measure: m.Name,
				Region:  cube.Region{Grain: m.Grain, Coord: occupancy[gi].coords[k]},
				Value:   st.values[k],
			})
		}
	}
	stats.Results = int64(len(out))
	return out, nil
}

func refLookupAt(e *Evaluator, src *workflow.Measure, st *refMeasureState, coords []int64, g cube.Grain) (float64, bool) {
	s := e.schema
	buf := make([]int64, len(coords))
	for i := range coords {
		buf[i] = s.Attr(i).RollBetween(coords[i], g[i], src.Grain[i])
	}
	v, ok := st.values[cube.EncodeCoords(buf)]
	return v, ok
}

func refEvalSelf(e *Evaluator, m *workflow.Measure, st *refMeasureState, states map[string]*refMeasureState, occ []refRegionIndex) error {
	gi := e.grainIndex(m.Grain)
	srcs := make([]*workflow.Measure, len(m.Sources))
	for i, name := range m.Sources {
		sm, ok := e.w.Measure(name)
		if !ok {
			return fmt.Errorf("missing source %q", name)
		}
		srcs[i] = sm
	}
	args := make([]float64, len(srcs))
	for k, coords := range occ[gi].coords {
		for i, sm := range srcs {
			v, ok := refLookupAt(e, sm, states[sm.Name], coords, m.Grain)
			if !ok {
				v = math.NaN()
			}
			args[i] = v
		}
		if v := m.Expr.Eval(args); !math.IsNaN(v) {
			st.values[k] = v
		}
	}
	return nil
}

func refEvalInherit(e *Evaluator, m *workflow.Measure, st *refMeasureState, states map[string]*refMeasureState, occ []refRegionIndex) error {
	gi := e.grainIndex(m.Grain)
	sm, ok := e.w.Measure(m.Sources[0])
	if !ok {
		return fmt.Errorf("missing source %q", m.Sources[0])
	}
	for k, coords := range occ[gi].coords {
		if v, ok := refLookupAt(e, sm, states[sm.Name], coords, m.Grain); ok && !math.IsNaN(v) {
			st.values[k] = v
		}
	}
	return nil
}

func refEvalRollup(e *Evaluator, m *workflow.Measure, st *refMeasureState, states map[string]*refMeasureState, occ []refRegionIndex) error {
	s := e.schema
	sm, ok := e.w.Measure(m.Sources[0])
	if !ok {
		return fmt.Errorf("missing source %q", m.Sources[0])
	}
	sgi := e.grainIndex(sm.Grain)
	aggs := make(map[string]measure.Aggregator)
	parent := make([]int64, s.NumAttrs())
	for k, v := range states[sm.Name].values {
		coords := occ[sgi].coords[k]
		for i := range coords {
			parent[i] = s.Attr(i).RollBetween(coords[i], sm.Grain[i], m.Grain[i])
		}
		pk := cube.EncodeCoords(parent)
		agg, ok := aggs[pk]
		if !ok {
			agg = m.Agg.New()
			aggs[pk] = agg
			gi := e.grainIndex(m.Grain)
			if _, seen := occ[gi].coords[pk]; !seen {
				occ[gi].coords[pk] = append([]int64(nil), parent...)
			}
		}
		agg.Add(v)
	}
	for pk, agg := range aggs {
		if v := agg.Result(); !math.IsNaN(v) {
			st.values[pk] = v
		}
	}
	return nil
}

func refEvalSliding(e *Evaluator, m *workflow.Measure, st *refMeasureState, states map[string]*refMeasureState, occ []refRegionIndex, stats *Stats) error {
	gi := e.grainIndex(m.Grain)
	sm, ok := e.w.Measure(m.Sources[0])
	if !ok {
		return fmt.Errorf("missing source %q", m.Sources[0])
	}
	src := states[sm.Name]
	probe := make([]int64, e.schema.NumAttrs())
	for k, coords := range occ[gi].coords {
		agg := m.Agg.New()
		refWindowScan(m.Window, 0, coords, probe, func() {
			stats.WindowLookups++
			if v, ok := src.values[cube.EncodeCoords(probe)]; ok {
				agg.Add(v)
			}
		})
		if agg.N() == 0 {
			continue
		}
		if v := agg.Result(); !math.IsNaN(v) {
			st.values[k] = v
		}
	}
	return nil
}

// refWindowScan keeps the seed's domain handling: only negative
// coordinates are skipped, so upper-edge regions probe past the domain.
// Results are unchanged by the Session's tighter bound (out-of-domain
// coordinates are never occupied); only WindowLookups differs.
func refWindowScan(window []workflow.RangeAnn, i int, base, probe []int64, visit func()) {
	if i == 0 {
		copy(probe, base)
	}
	if i == len(window) {
		visit()
		return
	}
	ann := window[i]
	for off := ann.Low; off <= ann.High; off++ {
		c := base[ann.Attr] + off
		if c < 0 {
			continue
		}
		probe[ann.Attr] = c
		refWindowScan(window, i+1, base, probe, visit)
	}
	probe[ann.Attr] = base[ann.Attr]
}
