package core

import (
	"context"
	"fmt"
	"math"

	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/recio"
	"github.com/casm-project/casm/internal/workflow"
)

// RunComponentAtATimeContext evaluates the workflow with the naive strategy the
// paper's introduction argues against: every measure component gets its
// own MapReduce job, respecting the dependency order — basic measures
// repartition the raw data (once per component), composite measures run
// parallel joins over the intermediate results, and sliding windows
// redistribute source results with overlap. The engine's single-job plan
// should beat this by a wide margin whenever several components share a
// feasible redistribution.
//
// The result is identical to Run's; Stats and Estimate accumulate over
// all jobs (jobs execute sequentially, as the step-by-step plan implies).
// Each component job runs on Config.Executor's shared pool under ctx, and
// cancellation aborts the remaining job sequence with an error satisfying
// errors.Is(err, context.Canceled).
func (e *Engine) RunComponentAtATimeContext(ctx context.Context, w *workflow.Workflow, ds *Dataset) (*Result, error) {
	s := ds.Schema
	order, err := w.TopoOrder()
	if err != nil {
		return nil, err
	}

	out := &Result{Measures: make(map[string][]MeasureRecord, len(order))}
	asm := assembler{arity: s.NumAttrs()}
	addStats := func(js mr.JobStats) {
		out.Stats.MapTasks = append(out.Stats.MapTasks, js.MapTasks...)
		out.Stats.ReduceTasks = append(out.Stats.ReduceTasks, js.ReduceTasks...)
		out.Stats.Shuffled += js.Shuffled
		out.Stats.Wall += js.Wall
		est := EstimateFromStats(e.cfg.Cluster, js)
		out.Estimate.MapSeconds += est.MapSeconds
		out.Estimate.ReduceSeconds += est.ReduceSeconds
	}

	// Occupancy (the list of occupied regions at a grain) is needed as the
	// candidate set for self, inherit, and sliding components; the naive
	// plan obtains it with one extra grouping job per distinct grain.
	occupancy := map[string][][]int64{} // grain key -> coords list
	needOcc := map[string]cube.Grain{}
	for _, m := range order {
		if m.Kind == workflow.Self || m.Kind == workflow.Inherit || m.Kind == workflow.Sliding {
			needOcc[grainKeyOf(m.Grain)] = m.Grain
		}
	}
	for gk, g := range needOcc {
		coords, js, err := e.occupancyJob(ctx, ds, g)
		if err != nil {
			return nil, fmt.Errorf("core: occupancy job for %s: %w", s.FormatGrain(g), err)
		}
		occupancy[gk] = coords
		addStats(js)
	}

	values := map[string][]baselineRow{}
	var enc []byte

	for _, m := range order {
		var rows []baselineRow
		var js mr.JobStats
		switch m.Kind {
		case workflow.Basic:
			rows, js, err = e.basicJob(ctx, ds, m)
		case workflow.Rollup:
			rows, js, err = e.rollupJob(ctx, w, m, values[m.Sources[0]])
		case workflow.Self, workflow.Inherit:
			srcRows := make([][]baselineRow, len(m.Sources))
			for i, src := range m.Sources {
				srcRows[i] = values[src]
			}
			rows, js, err = e.joinJob(ctx, w, m, srcRows, occupancy[grainKeyOf(m.Grain)])
		case workflow.Sliding:
			rows, js, err = e.slidingJob(ctx, s, m, values[m.Sources[0]], occupancy[grainKeyOf(m.Grain)])
		default:
			return nil, fmt.Errorf("core: baseline: unknown kind %v", m.Kind)
		}
		if err != nil {
			return nil, fmt.Errorf("core: baseline job for %q: %w", m.Name, err)
		}
		addStats(js)
		values[m.Name] = rows
		slot := asm.slot(out.Measures, m)
		for _, r := range rows {
			enc = appendMeasureRecord(enc[:0], r.coords, r.value)
			if err := slot.add(enc); err != nil {
				return nil, err
			}
		}
	}
	// The engine's assembler, so both plans share one canonical order.
	if err := asm.finish(ctx, e.cfg.Executor); err != nil {
		return nil, err
	}
	return out, nil
}

// baselineRow is one intermediate result row: region coordinates (at its
// measure's grain) and value.
type baselineRow struct {
	coords []int64
	value  float64
}

func grainKeyOf(g cube.Grain) string {
	b := make([]byte, len(g))
	for i, l := range g {
		b[i] = byte(l)
	}
	return string(b)
}

// runRowsJob executes one MapReduce job and decodes its output rows.
func (e *Engine) runRowsJob(ctx context.Context, input mr.Input, mapFn mr.MapFunc, reduceFn mr.ReduceFunc, arity int) ([]baselineRow, mr.JobStats, error) {
	res, err := mr.RunContext(ctx, mr.Job{
		Input:  input,
		Map:    mapFn,
		Reduce: reduceFn,
		Config: e.mrConfig(),
	})
	if err != nil {
		return nil, mr.JobStats{}, err
	}
	rows := make([]baselineRow, len(res.Output))
	for i, p := range res.Output {
		coords, v, err := decodeMeasureRecord(p.Value, arity)
		if err != nil {
			return nil, mr.JobStats{}, err
		}
		rows[i].coords = coords
		rows[i].value = v
	}
	return rows, res.Stats, nil
}

// occupancyJob lists the occupied regions of a grain.
func (e *Engine) occupancyJob(ctx context.Context, ds *Dataset, g cube.Grain) ([][]int64, mr.JobStats, error) {
	s := ds.Schema
	arity := s.NumAttrs()
	mapFn := func(ctx *mr.MapCtx, raw []byte) error {
		rec := getRecordBuf(arity)
		defer putRecordBuf(rec)
		if err := recio.DecodeRecordInto(raw, rec); err != nil {
			return err
		}
		coord := make([]int64, arity)
		s.CoordOf(rec, g, coord)
		return ctx.Emit(cube.AppendCoords(nil, coord), nil)
	}
	reduceFn := func(ctx *mr.ReduceCtx, key []byte, values *mr.GroupIter) error {
		if err := values.Drain(); err != nil {
			return err
		}
		coords, err := cube.DecodeCoords(string(key), arity)
		if err != nil {
			return err
		}
		ctx.EmitStable(occKey, appendMeasureRecord(nil, coords, 0))
		return nil
	}
	rows, js, err := e.runRowsJob(ctx, ds.Input, mapFn, reduceFn, arity)
	if err != nil {
		return nil, js, err
	}
	coords := make([][]int64, len(rows))
	for i, r := range rows {
		coords[i] = r.coords
	}
	return coords, js, nil
}

// basicJob repartitions the raw data by the measure's grain and
// aggregates each group (the intro's Steps 1–2 for one component).
func (e *Engine) basicJob(ctx context.Context, ds *Dataset, m *workflow.Measure) ([]baselineRow, mr.JobStats, error) {
	s := ds.Schema
	arity := s.NumAttrs()
	nameKey := []byte(m.Name) // job-stable: one allocation shared by every output pair
	mapFn := func(ctx *mr.MapCtx, raw []byte) error {
		rec := getRecordBuf(arity)
		defer putRecordBuf(rec)
		if err := recio.DecodeRecordInto(raw, rec); err != nil {
			return err
		}
		coord := make([]int64, arity)
		s.CoordOf(rec, m.Grain, coord)
		var v float64
		if m.InputAttr >= 0 {
			v = float64(rec[m.InputAttr])
		}
		return ctx.Emit(cube.AppendCoords(nil, coord), encodeFloat(v))
	}
	reduceFn := func(ctx *mr.ReduceCtx, key []byte, values *mr.GroupIter) error {
		agg := m.Agg.New()
		for {
			p, ok, err := values.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			ctx.Stats.EvalRecords++
			agg.Add(decodeFloat(p.Value))
		}
		v := agg.Result()
		if math.IsNaN(v) {
			return nil
		}
		coords, err := cube.DecodeCoords(string(key), arity)
		if err != nil {
			return err
		}
		ctx.EmitStable(nameKey, appendMeasureRecord(nil, coords, v))
		return nil
	}
	return e.runRowsJob(ctx, ds.Input, mapFn, reduceFn, arity)
}

// rowsInput wraps intermediate rows as a MapReduce input.
func rowsInput(rows []baselineRow, tag byte) [][]byte {
	out := make([][]byte, len(rows))
	for i, r := range rows {
		out[i] = append([]byte{tag}, appendMeasureRecord(nil, r.coords, r.value)...)
	}
	return out
}

func occInput(coords [][]int64, tag byte) [][]byte {
	out := make([][]byte, len(coords))
	for i, c := range coords {
		out[i] = append([]byte{tag}, appendMeasureRecord(nil, c, 0)...)
	}
	return out
}

const occTag = 0xFF

// occKey is the job-stable output key of occupancy jobs (EmitStable needs
// key bytes that outlive the job; a package-level slice trivially does).
var occKey = []byte("occ")

// joinJob evaluates a self or inherit measure: source results and the
// target grain's occupancy are co-partitioned on the LCA of their grains
// and joined reducer-side (the intro's Step 3).
func (e *Engine) joinJob(ctx context.Context, w *workflow.Workflow, m *workflow.Measure, srcRows [][]baselineRow, occ [][]int64) ([]baselineRow, mr.JobStats, error) {
	s := w.Schema()
	arity := s.NumAttrs()
	srcs := make([]*workflow.Measure, len(m.Sources))
	grains := []cube.Grain{m.Grain}
	for i, name := range m.Sources {
		sm, _ := w.Measure(name)
		srcs[i] = sm
		grains = append(grains, sm.Grain)
	}
	join := s.LCA(grains...)
	nameKey := []byte(m.Name)

	var input [][]byte
	for i, rows := range srcRows {
		input = append(input, rowsInput(rows, byte(i))...)
	}
	input = append(input, occInput(occ, occTag)...)

	mapFn := func(ctx *mr.MapCtx, raw []byte) error {
		tag := raw[0]
		coords, v, err := decodeMeasureRecord(raw[1:], arity)
		if err != nil {
			return err
		}
		var from cube.Grain
		if tag == occTag {
			from = m.Grain
		} else {
			from = srcs[tag].Grain
		}
		jc := make([]int64, arity)
		for i := range jc {
			jc[i] = s.Attr(i).RollBetween(coords[i], from[i], join[i])
		}
		return ctx.Emit(cube.AppendCoords(nil, jc), append([]byte{tag}, appendMeasureRecord(nil, coords, v)...))
	}
	reduceFn := func(ctx *mr.ReduceCtx, key []byte, values *mr.GroupIter) error {
		perSrc := make([]map[string]float64, len(srcs))
		for i := range perSrc {
			perSrc[i] = map[string]float64{}
		}
		var candidates [][]int64
		for {
			p, ok, err := values.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			ctx.Stats.EvalRecords++
			tag := p.Value[0]
			coords, v, err := decodeMeasureRecord(p.Value[1:], arity)
			if err != nil {
				return err
			}
			if tag == occTag {
				candidates = append(candidates, coords)
			} else {
				perSrc[tag][cube.EncodeCoords(coords)] = v
			}
		}
		args := make([]float64, len(srcs))
		buf := make([]int64, arity)
		for _, c := range candidates {
			for i, sm := range srcs {
				for j := range c {
					buf[j] = s.Attr(j).RollBetween(c[j], m.Grain[j], sm.Grain[j])
				}
				v, ok := perSrc[i][cube.EncodeCoords(buf)]
				if !ok {
					v = math.NaN()
				}
				args[i] = v
			}
			if v := m.Expr.Eval(args); !math.IsNaN(v) {
				ctx.EmitStable(nameKey, appendMeasureRecord(nil, c, v))
			}
		}
		return nil
	}
	return e.runRowsJob(ctx, mr.NewMemoryInput(input, e.cfg.NumReducers*2), mapFn, reduceFn, arity)
}

// rollupJob repartitions the source results by the parent grain and
// aggregates each parent's children (child/parent relationship as its own
// job).
func (e *Engine) rollupJob(ctx context.Context, w *workflow.Workflow, m *workflow.Measure, srcRows []baselineRow) ([]baselineRow, mr.JobStats, error) {
	s := w.Schema()
	arity := s.NumAttrs()
	src, _ := w.Measure(m.Sources[0])
	nameKey := []byte(m.Name)
	input := rowsInput(srcRows, 0)
	mapFn := func(ctx *mr.MapCtx, raw []byte) error {
		coords, v, err := decodeMeasureRecord(raw[1:], arity)
		if err != nil {
			return err
		}
		parent := make([]int64, arity)
		for i := range parent {
			parent[i] = s.Attr(i).RollBetween(coords[i], src.Grain[i], m.Grain[i])
		}
		return ctx.Emit(cube.AppendCoords(nil, parent), encodeFloat(v))
	}
	reduceFn := func(ctx *mr.ReduceCtx, key []byte, values *mr.GroupIter) error {
		agg := m.Agg.New()
		for {
			p, ok, err := values.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			ctx.Stats.EvalRecords++
			agg.Add(decodeFloat(p.Value))
		}
		if v := agg.Result(); !math.IsNaN(v) {
			coords, err := cube.DecodeCoords(string(key), arity)
			if err != nil {
				return err
			}
			ctx.EmitStable(nameKey, appendMeasureRecord(nil, coords, v))
		}
		return nil
	}
	return e.runRowsJob(ctx, mr.NewMemoryInput(input, e.cfg.NumReducers*2), mapFn, reduceFn, arity)
}

// slidingJob redistributes source results with overlap: each source value
// is sent to every window (target region) it participates in, and each
// occupied target aggregates what it received — the per-component version
// of overlapping redistribution.
func (e *Engine) slidingJob(ctx context.Context, s *cube.Schema, m *workflow.Measure, srcRows []baselineRow, occ [][]int64) ([]baselineRow, mr.JobStats, error) {
	arity := s.NumAttrs()
	nameKey := []byte(m.Name)
	input := append(rowsInput(srcRows, 0), occInput(occ, occTag)...)
	mapFn := func(ctx *mr.MapCtx, raw []byte) error {
		tag := raw[0]
		coords, v, err := decodeMeasureRecord(raw[1:], arity)
		if err != nil {
			return err
		}
		if tag == occTag {
			return ctx.Emit(cube.AppendCoords(nil, coords), append([]byte{occTag}, encodeFloat(0)...))
		}
		// Enumerate the target regions whose window covers this source
		// region: per annotated attribute X with range (l, h), targets at
		// offsets -h … -l.
		target := append([]int64(nil), coords...)
		var emitErr error
		var walk func(i int)
		walk = func(i int) {
			if emitErr != nil {
				return
			}
			if i == len(m.Window) {
				emitErr = ctx.Emit(cube.AppendCoords(nil, target), append([]byte{0}, encodeFloat(v)...))
				return
			}
			ann := m.Window[i]
			card := s.Attr(ann.Attr).CardAt(m.Grain[ann.Attr])
			for off := -ann.High; off <= -ann.Low; off++ {
				c := coords[ann.Attr] + off
				if c < 0 || c >= card {
					continue
				}
				target[ann.Attr] = c
				walk(i + 1)
			}
			target[ann.Attr] = coords[ann.Attr]
		}
		walk(0)
		return emitErr
	}
	reduceFn := func(ctx *mr.ReduceCtx, key []byte, values *mr.GroupIter) error {
		agg := m.Agg.New()
		occupied := false
		for {
			p, ok, err := values.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			ctx.Stats.EvalRecords++
			if p.Value[0] == occTag {
				occupied = true
				continue
			}
			agg.Add(decodeFloat(p.Value[1:]))
		}
		if !occupied || agg.N() == 0 {
			return nil
		}
		if v := agg.Result(); !math.IsNaN(v) {
			coords, err := cube.DecodeCoords(string(key), arity)
			if err != nil {
				return err
			}
			ctx.EmitStable(nameKey, appendMeasureRecord(nil, coords, v))
		}
		return nil
	}
	return e.runRowsJob(ctx, mr.NewMemoryInput(input, e.cfg.NumReducers*2), mapFn, reduceFn, arity)
}

func encodeFloat(v float64) []byte {
	return appendMeasureRecord(nil, nil, v)
}

func decodeFloat(b []byte) float64 {
	_, v, _ := splitMeasureRecord(b)
	return v
}

// decodeMeasureRecord unpacks a row the baseline's jobs pass between
// each other; the coordinates are retained, hence allocated per row.
func decodeMeasureRecord(b []byte, arity int) ([]int64, float64, error) {
	key, v, err := splitMeasureRecord(b)
	if err != nil {
		return nil, 0, err
	}
	coords := make([]int64, arity)
	return coords, v, cube.DecodeCoordsInto(key, coords)
}
