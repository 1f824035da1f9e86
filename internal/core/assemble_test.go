package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/casm-project/casm/internal/blockstore"
	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/distkey"
	"github.com/casm-project/casm/internal/exec"
	"github.com/casm-project/casm/internal/localeval"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/workflow"
	"github.com/casm-project/casm/internal/workload"
)

// randomRows draws n distinct coordinate tuples whose components span 1-,
// 2- and 3-byte varints (byte order ≠ numeric order from 128 up), packed
// as the shuffle carries them.
func randomRows(rng *rand.Rand, arity, n int) [][]byte {
	bounds := []int64{128, 16384, 2_000_000}
	seen := make(map[string]bool, n)
	rows := make([][]byte, 0, n)
	coords := make([]int64, arity)
	for len(rows) < n {
		for i := range coords {
			coords[i] = rng.Int63n(bounds[rng.Intn(len(bounds))])
		}
		row := appendMeasureRecord(nil, coords, float64(len(rows)))
		if key := string(row[:len(row)-8]); !seen[key] {
			seen[key] = true
			rows = append(rows, row)
		}
	}
	return rows
}

// legacySort is the order every producer of Result.Measures used before
// the assembler: sort.Slice of decoded records under bytes.Compare of
// their re-encoded coordinates.
func legacySort(ms []MeasureRecord) {
	sort.Slice(ms, func(i, j int) bool {
		return bytes.Compare(cube.AppendCoords(nil, ms[i].Region.Coord), cube.AppendCoords(nil, ms[j].Region.Coord)) < 0
	})
}

// TestAssemblerOrderMatchesLegacyComparator: over random arities and
// coordinates, rows fed in shuffled order and interleaved across
// measures come out in exactly the legacy canonical order, on a shared
// executor and on the default one.
func TestAssemblerOrderMatchesLegacyComparator(t *testing.T) {
	ex := exec.New(2)
	defer ex.Close()
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		arity := 1 + int(seed%8)
		grain := make(cube.Grain, arity)
		measures := []*workflow.Measure{{Name: "a", Grain: grain}, {Name: "b", Grain: grain}, {Name: "c", Grain: grain}}
		got := make(map[string][]MeasureRecord)
		want := make(map[string][]MeasureRecord)
		asm := assembler{arity: arity}
		type fed struct {
			slot *asmSlot
			row  []byte
		}
		var feed []fed
		for _, m := range measures {
			slot := asm.slot(got, m)
			for _, row := range randomRows(rng, arity, 1+rng.Intn(400)) {
				feed = append(feed, fed{slot, row})
				coords, v, err := decodeMeasureRecord(row, arity)
				if err != nil {
					t.Fatal(err)
				}
				want[m.Name] = append(want[m.Name], MeasureRecord{Region: cube.Region{Grain: grain, Coord: coords}, Value: v})
			}
			legacySort(want[m.Name])
		}
		rng.Shuffle(len(feed), func(i, j int) { feed[i], feed[j] = feed[j], feed[i] })
		for _, f := range feed {
			if err := f.slot.add(f.row); err != nil {
				t.Fatal(err)
			}
		}
		pool := ex
		if seed%2 == 1 {
			pool = nil
		}
		if err := asm.finish(context.Background(), pool); err != nil {
			t.Fatal(err)
		}
		a, b := resultBytes(t, &Result{Measures: want}), resultBytes(t, &Result{Measures: got})
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d arity %d: assembler order differs from the legacy comparator's", seed, arity)
		}
	}
}

// TestAssemblerOrderIsByteOrder pins the documented order: ascending
// bytes of the varint encoding, not numeric — 256 (80 02) sorts before
// 255 (ff 01) — and that a registered slot without rows still stores an
// empty, non-nil slice (the baseline lists every measure).
func TestAssemblerOrderIsByteOrder(t *testing.T) {
	got := make(map[string][]MeasureRecord)
	asm := assembler{arity: 1}
	slot := asm.slot(got, &workflow.Measure{Name: "m", Grain: cube.Grain{0}})
	asm.slot(got, &workflow.Measure{Name: "empty", Grain: cube.Grain{0}})
	for _, c := range []int64{255, 1, 256, 128} {
		if err := slot.add(appendMeasureRecord(nil, []int64{c}, float64(c))); err != nil {
			t.Fatal(err)
		}
	}
	if err := asm.finish(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	var order []int64
	for _, r := range got["m"] {
		order = append(order, r.Region.Coord[0])
	}
	if fmt.Sprint(order) != "[1 128 256 255]" {
		t.Fatalf("order %v, want [1 128 256 255]", order)
	}
	if recs, ok := got["empty"]; !ok || recs == nil || len(recs) != 0 {
		t.Fatalf("empty slot stored %v (present=%v), want an empty non-nil slice", recs, ok)
	}
}

// TestAssemblerPackedOrder: slots shaped like real grains — attributes at
// ALL constant, varying attributes across the 127/128 and 16383/16384
// uvarint boundaries — come out in the legacy order, whether the packed
// key holds every varying attribute or rows tied on it are sorted by the
// rest: at 8 bytes of uvarint that fit a word beside the row index, at
// 8 bytes that do not, at 9, and in slots of 0, 1 and 2 rows.
func TestAssemblerPackedOrder(t *testing.T) {
	const arity = 6
	edges := []int64{0, 1, 126, 127, 128, 129, 255, 256, 16382, 16383, 16384, 16385, 1<<21 - 1, 1 << 21, 1<<28 - 1}
	// pool draws a coordinate below limit, one time in four an edge.
	pool := func(rng *rand.Rand, limit int64) int64 {
		if e := edges[rng.Intn(len(edges))]; e < limit && rng.Intn(4) == 0 {
			return e
		}
		return rng.Int63n(limit)
	}
	cases := []struct {
		name   string
		n      int
		limits [arity]int64 // per attribute, 0 = at ALL
		width  int          // the varying attributes' longest uvarints, summed
		packed bool         // the packed key holds every varying attribute
		fixed  [][arity]int64
	}{
		{"Q1 grain", 3000, [arity]int64{256, 0, 0, 0, 28800, 0}, 5, true, nil},
		{"DS2 grain", 3000, [arity]int64{256, 256, 0, 0, 28800, 0}, 7, true, nil},
		{"8 bytes, packed", 1000, [arity]int64{0, 1<<21 + 3, 0, 1<<21 + 3, 0, 0}, 8, true, nil},
		{"8 bytes, ties", 1000, [arity]int64{0, 1 << 28, 0, 1 << 28, 0, 0}, 8, false, nil},
		{"9 bytes, ties", 1000, [arity]int64{1 << 21, 0, 0, 1 << 21, 0, 1 << 21}, 9, false, nil},
		{"2 rows", 2, [arity]int64{}, 5, true, [][arity]int64{{16383, 0, 0, 0, 128, 0}, {16384, 0, 0, 0, 127, 0}}},
		{"1 row", 1, [arity]int64{}, 0, true, [][arity]int64{{16384, 0, 0, 0, 128, 0}}},
		{"0 rows", 0, [arity]int64{}, 0, true, nil},
	}
	for seed, tc := range cases {
		rng := rand.New(rand.NewSource(int64(seed)))
		grain := make(cube.Grain, arity)
		m := &workflow.Measure{Name: "m", Grain: grain}
		var want []MeasureRecord
		var rows [][]byte
		seen := make(map[[arity]int64]bool)
		for len(rows) < tc.n {
			var c [arity]int64
			if tc.fixed != nil {
				c = tc.fixed[len(rows)]
			}
			for j, limit := range tc.limits {
				if limit > 0 {
					c[j] = pool(rng, limit)
				}
			}
			if seen[c] {
				continue
			}
			seen[c] = true
			rows = append(rows, appendMeasureRecord(nil, c[:], float64(len(rows))))
			want = append(want, MeasureRecord{Region: cube.Region{Grain: grain, Coord: slices.Clone(c[:])}, Value: float64(len(want))})
		}
		if w := varyingWidth(want); w != tc.width {
			t.Fatalf("%s: varying attributes' uvarints are %d bytes, want %d", tc.name, w, tc.width)
		}
		legacySort(want)
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		got := make(map[string][]MeasureRecord)
		asm := assembler{arity: arity}
		slot := asm.slot(got, m)
		for _, row := range rows {
			if err := slot.add(row); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, _, rest := slot.layout(); (len(rest) == 0) != tc.packed {
			t.Fatalf("%s: ties broken by attributes %v, want packed=%v", tc.name, rest, tc.packed)
		}
		if err := asm.finish(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = []MeasureRecord{}
		}
		a, b := resultBytes(t, &Result{Measures: map[string][]MeasureRecord{"m": want}}), resultBytes(t, &Result{Measures: got})
		if !bytes.Equal(a, b) || got["m"] == nil {
			t.Errorf("%s: assembler order differs from the legacy comparator's", tc.name)
		}
	}
}

// varyingWidth sums, over the attributes that vary among rs, their longest
// uvarint.
func varyingWidth(rs []MeasureRecord) int {
	if len(rs) == 0 {
		return 0
	}
	width := 0
	for j := range rs[0].Region.Coord {
		longest, varies := 0, false
		for _, r := range rs {
			longest = max(longest, len(binary.AppendUvarint(nil, uint64(r.Region.Coord[j]))))
			varies = varies || r.Region.Coord[j] != rs[0].Region.Coord[j]
		}
		if varies {
			width += longest
		}
	}
	return width
}

// TestAssemblyAllocatesWhatItKeeps is the assembler's allocation ceiling:
// at Q1's grain an assembled row allocates its own bytes — a 56-byte
// MeasureRecord and 8 bytes per coordinate — plus at most 48: its value
// and sort words on the way, and chunk rounding.
func TestAssemblyAllocatesWhatItKeeps(t *testing.T) {
	arity := workload.NewSuite().Schema.NumAttrs()
	rng := rand.New(rand.NewSource(5))
	rows := make([][][]byte, 3)
	for i := range rows {
		rows[i] = grainRows(rng, arity, 12_000)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	out := assemble(t, arity, rows)
	runtime.ReadMemStats(&after)
	n := 3 * 12_000
	perRow := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	kept := float64(unsafe.Sizeof(MeasureRecord{}) + 8*uintptr(arity))
	t.Logf("%.1f bytes allocated per assembled row; the row keeps %.0f", perRow, kept)
	if perRow > kept+48 {
		t.Errorf("assembling %d rows allocated %.1f bytes per row, want ≤ %.0f", n, perRow, kept+48)
	}
	if len(out["m0"]) != 12_000 {
		t.Fatalf("assembled %d rows of m0, want 12000", len(out["m0"]))
	}
}

// TestOutputTailAllocs is the allocation ceiling of the whole output tail:
// from a reduce group's surviving localeval.Results — the ownership filter,
// the chunks a reduce task fills, mr's output pipe and the assembler — to
// the finished Result. A row at Q1's grain allocates what the Result keeps
// (its MeasureRecord and 8 bytes per coordinate) plus at most 48, the
// budget TestAssemblyAllocatesWhatItKeeps sets the assembler alone. The
// collector is held off, so the count is exact; the one-record job around
// the tail costs a few KiB, which the 36 000 rows amortize.
func TestOutputTailAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	su := workload.NewSuite()
	w, arity := su.Q1(), su.Schema.NumAttrs()
	ctx := context.Background()
	ds := MemoryDataset(su.Schema, su.Generate(1, workload.Uniform, 3), 1)
	eng, err := NewEngine(Config{NumReducers: 1})
	if err != nil {
		t.Fatal(err)
	}
	outcome, err := eng.PlanContext(ctx, w, ds)
	if err != nil {
		t.Fatal(err)
	}
	q, err := newJobQuery(w, outcome)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := distkey.NewBlockMapper(su.Schema, outcome.Plan.Key, outcome.Plan.ClusteringFactor)
	if err != nil {
		t.Fatal(err)
	}
	const n = 12_000
	rng := rand.New(rand.NewSource(5))
	var results []localeval.Result
	for _, m := range w.Measures() {
		for _, row := range grainRows(rng, arity, n) {
			key, v, _ := splitMeasureRecord(row)
			coord := make([]int64, arity)
			if err := cube.DecodeCoordsInto(key, coord); err != nil {
				t.Fatal(err)
			}
			results = append(results, localeval.Result{Measure: m.Name, Region: cube.Region{Grain: m.Grain, Coord: coord}, Value: v})
		}
	}
	var before, after runtime.MemStats
	job := mr.Job[*rowChunk]{
		Input:  ds.Input,
		Config: mr.Config{NumReducers: 1, NewReduceLocal: func(*mr.ReduceTaskStats) any { return &reduceLocal{outs: []*ownedOutput{newOwnedOutput(0, w)}} }},
		Map:    func(ctx *mr.MapCtx, _ mr.Batch) error { return ctx.Emit([]byte{0}, nil) },
		Reduce: func(ctx *mr.ReduceCtx[*rowChunk], key []byte, values *mr.GroupIter) error {
			runtime.ReadMemStats(&before)
			dk, out := bm.NewSession(), ctx.Local.(*reduceLocal).outs[0]
			for i := 0; i < len(results); i += 64 { // a block's results at a time
				out.emit(ctx, dk, key, results[i:min(i+64, len(results))], nil, nil)
			}
			return nil
		},
		Finish: finishOutputs,
	}
	pipe, err := mr.RunPipe(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	res := []*Result{{Measures: map[string][]MeasureRecord{}}}
	asm := assembler{arity: arity}
	if err := asm.drain(pipe, []*jobQuery{q}, res); err != nil {
		t.Fatal(err)
	}
	if err := asm.finish(ctx, nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perRow := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(results))
	kept := float64(unsafe.Sizeof(MeasureRecord{}) + 8*uintptr(arity))
	t.Logf("%.1f bytes allocated per row from result to Result; the row keeps %.0f", perRow, kept)
	if perRow > kept+48 {
		t.Errorf("the output tail allocated %.1f bytes per row, want ≤ %.0f", perRow, kept+48)
	}
	for _, m := range w.Measures() {
		if got := len(res[0].Measures[m.Name]); got != n {
			t.Fatalf("%s: %d rows in the Result, want %d", m.Name, got, n)
		}
	}
}

// TestAssemblyPathsByteIdentical: every path that produces a Result for
// the same query — single-query job, shared-job batch member, per-block
// cache replay through the job, whole-query manifest replay, and a
// SaveResults→LoadResults round trip — yields the same bytes. So do a job
// whose reducers spill every second pair (SortMemoryItems: 2) and the
// stream's rows, sorted. Each of several reduce tasks fills more than one
// chunk of a measure, so full chunks (adopted) and partly filled tails
// (copied) both reach the assembler (checkChunkBoundaries).
func TestAssemblyPathsByteIdentical(t *testing.T) {
	su := workload.NewSuite()
	records := su.Generate(4000, workload.Uniform, 61)
	st, ds := storeDataset(t, su, records)
	ds2, err := su.DS(2)
	if err != nil {
		t.Fatal(err)
	}
	ws := []*workflow.Workflow{su.Q1(), ds2}
	ctx := context.Background()

	plain, err := NewEngine(Config{NumReducers: 3, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := plain.EvaluateBatchContext(ctx, ws, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Jobs) != 1 || !batch.Jobs[0].Shared {
		t.Fatalf("batch did not run as one shared job: %+v", batch.Jobs)
	}
	rc, err := blockstore.NewResultCache(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	cached, err := NewEngine(Config{NumReducers: 3, ResultCache: rc, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	spilling, err := NewEngine(Config{NumReducers: 3, SortMemoryItems: 2, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []*Engine{plain, spilling} {
		checkChunkBoundaries(t, eng, su.Q1(), ds)
	}
	for i, w := range ws {
		single, err := plain.EvaluateContext(ctx, w, ds)
		if err != nil {
			t.Fatal(err)
		}
		want := resultBytes(t, single)
		if single.TotalRecords() == 0 {
			t.Fatalf("query %d produced no rows", i)
		}
		check := func(label string, res *Result) {
			t.Helper()
			if !bytes.Equal(want, resultBytes(t, res)) {
				t.Errorf("query %d: %s result not byte-identical to EvaluateContext's", i, label)
			}
		}
		check("batch member", batch.Results[i])
		spilled, err := spilling.EvaluateContext(ctx, w, ds)
		if err != nil {
			t.Fatal(err)
		}
		check("spilling job", spilled)
		check("stream, sorted", streamResult(t, plain, w, ds))

		cold, err := cached.EvaluateContext(ctx, w, ds)
		if err != nil {
			t.Fatal(err)
		}
		check("cache-filling", cold)
		warm, err := cached.EvaluateContext(ctx, w, ds)
		if err != nil {
			t.Fatal(err)
		}
		if !warm.ResultReused {
			t.Fatalf("query %d: second run did not take the manifest path", i)
		}
		check("manifest hit", warm)

		name := fmt.Sprintf("out-%d", i)
		if err := SaveResults(st, name, single, 4096); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadResults(st, name, w)
		if err != nil {
			t.Fatal(err)
		}
		check("SaveResults→LoadResults", &Result{Measures: loaded})
	}
}

// streamResult collects w's streamed rows into a Result, each measure
// sorted by its rows' encoded coordinates: the Result's canonical order.
func streamResult(t *testing.T, eng *Engine, w *workflow.Workflow, ds *Dataset) *Result {
	t.Helper()
	st, err := eng.EvaluateStream(context.Background(), w, ds)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	res := &Result{Measures: map[string][]MeasureRecord{}}
	for {
		row, ok, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		row.Region.Coord = slices.Clone(row.Region.Coord) // valid until the next Next only
		res.Measures[row.Measure] = append(res.Measures[row.Measure], MeasureRecord{row.Region, row.Value})
	}
	for _, recs := range res.Measures {
		slices.SortFunc(recs, func(a, b MeasureRecord) int {
			return bytes.Compare(cube.AppendCoords(nil, a.Region.Coord), cube.AppendCoords(nil, b.Region.Coord))
		})
	}
	return res
}

// checkChunkBoundaries runs w's job and checks the shape of its output: at
// least two reduce tasks each emit a full chunk and a partly filled one of
// the same measure, and every chunk but a task's last of a measure is full.
func checkChunkBoundaries(t *testing.T, eng *Engine, w *workflow.Workflow, ds *Dataset) {
	t.Helper()
	outcome, err := eng.PlanContext(context.Background(), w, ds)
	if err != nil {
		t.Fatal(err)
	}
	q, err := newJobQuery(w, outcome)
	if err != nil {
		t.Fatal(err)
	}
	js, err := eng.startJob(context.Background(), ds, []*jobQuery{q})
	if err != nil {
		t.Fatal(err)
	}
	defer js.pipe.Close()
	type source struct{ r, m int }
	full, partial := map[source]int{}, map[source]int{}
	for {
		r, chunks, ok, err := js.pipe.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		for _, c := range chunks {
			src := source{r, c.m}
			if partial[src] > 0 {
				t.Fatalf("reduce task %d emitted a chunk of measure %d after its partly filled one", r, c.m)
			}
			if c.full() {
				full[src]++
			} else {
				partial[src]++
			}
		}
	}
	tasks := map[int]bool{}
	for src, n := range full {
		if partial[src] == 1 && n > 0 {
			tasks[src.r] = true
		}
	}
	if len(tasks) < 2 {
		t.Fatalf("%d reduce tasks emitted full and partly filled chunks of one measure, want ≥ 2 (full %v, partial %v)", len(tasks), full, partial)
	}
}

// countingInput counts Splits calls: one per job started over it.
type countingInput struct {
	mr.Input
	jobs *atomic.Int32
}

func (c countingInput) Splits() ([]mr.Split, error) {
	c.jobs.Add(1)
	return c.Input.Splits()
}

// TestAssemblyRejectsMalformedRows: a malformed row reaches the cached-row
// decoder through a corrupted cache entry — a 7-byte payload, a truncated
// coordinate key, trailing key bytes, a coordinate whose uvarint is not
// minimal, or a measure index ≥ 2⁶³, which turned negative and panicked
// both reuse paths. Neither may answer from the entry or fail the query:
// the manifest replay falls back to the job, and the job (with or without
// a manifest) treats the entry as a miss and evaluates the block afresh,
// so the answer is the cold run's bytes, torn down, spill dir empty.
func TestAssemblyRejectsMalformedRows(t *testing.T) {
	su := workload.NewSuite()
	records := su.Generate(2000, workload.Uniform, 67)
	_, base := storeDataset(t, su, records)
	w := su.Q1()
	arity := su.Schema.NumAttrs()
	good := appendMeasureRecord(nil, make([]int64, arity), 1)
	row := func(idx uint64, payload []byte) []byte {
		b := binary.AppendUvarint(nil, idx)
		return append(binary.AppendUvarint(b, uint64(len(payload))), payload...)
	}
	cases := []struct {
		label string
		entry []byte
	}{
		{"7-byte value", row(0, good[len(good)-7:])},
		{"truncated key", row(0, good[1:])},
		{"trailing key bytes", row(0, append([]byte{0}, good...))},
		{"non-minimal coordinate", row(0, append([]byte{0x80}, good...))},
		{"measure index 2^63", row(1<<63, good)},
	}
	for _, tc := range cases {
		for _, manifest := range []bool{true, false} {
			label := fmt.Sprintf("%s, manifest %v", tc.label, manifest)
			rc, err := blockstore.NewResultCache(nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			tmp := t.TempDir()
			eng, err := NewEngine(Config{NumReducers: 3, ResultCache: rc, TempDir: tmp, SortMemoryItems: 64})
			if err != nil {
				t.Fatal(err)
			}
			var jobs atomic.Int32
			ds := *base
			ds.Input = countingInput{base.Input, &jobs}
			outcome, err := eng.PlanContext(context.Background(), w, &ds)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := eng.RunWithPlanContext(context.Background(), w, &ds, outcome)
			if err != nil {
				t.Fatal(err)
			}
			ru := eng.newResultReuse(w, &ds, outcome.Plan)
			keys, ok := rc.Manifest(ru.queryKey)
			if !ok || len(keys) == 0 {
				t.Fatal("cold run committed no manifest")
			}
			if !manifest { // a fresh cache whose entries a stream filled: per-block hits only
				rc.Close()
				if rc, err = blockstore.NewResultCache(nil, 0); err != nil {
					t.Fatal(err)
				}
				eng.cfg.ResultCache = rc
				drainStream(t, eng, w, &ds)
			}
			rc.Put([]byte(keys[0]), tc.entry)

			baseline := settleGoroutines(t)
			jobs.Store(0)
			res, err := eng.RunWithPlanContext(context.Background(), w, &ds, outcome)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if jobs.Load() == 0 || res.ResultReused {
				t.Fatalf("%s: answered without the job", label)
			}
			hits, misses, _ := sumReduce(res)
			if misses != 1 || hits != int64(len(keys)-1) {
				t.Errorf("%s: %d hits and %d misses, want %d and 1", label, hits, misses, len(keys)-1)
			}
			if !bytes.Equal(resultBytes(t, cold), resultBytes(t, res)) {
				t.Errorf("%s: result not byte-identical to the cold run's", label)
			}
			waitForGoroutines(t, baseline)
			assertEmptyDir(t, label, tmp)
			rc.Close()
		}
	}
}

// drainStream runs w as a stream to its end: the run fills the result
// cache's block entries but commits no manifest.
func drainStream(t *testing.T, eng *Engine, w *workflow.Workflow, ds *Dataset) {
	t.Helper()
	st, err := eng.EvaluateStream(context.Background(), w, ds)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for {
		_, ok, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return
		}
	}
}

var benchAssembled map[string][]MeasureRecord

// grainRows draws n distinct rows at Q1's grain, a1:value × t1:minute with
// every other attribute at ALL (coordinate 0), packed as the shuffle
// carries them.
func grainRows(rng *rand.Rand, arity, n int) [][]byte {
	const a1, t1 = 0, 4
	seen := make(map[[2]int64]bool, n)
	rows := make([][]byte, 0, n)
	coords := make([]int64, arity)
	for len(rows) < n {
		coords[a1], coords[t1] = rng.Int63n(256), rng.Int63n(workload.Days*1440)
		if k := [2]int64{coords[a1], coords[t1]}; !seen[k] {
			seen[k] = true
			rows = append(rows, appendMeasureRecord(nil, coords, float64(len(rows))))
		}
	}
	return rows
}

// BenchmarkAssemble isolates output assembly at reduce_fineout's size:
// 3 measures × 12k rows at the suite's arity, rows arriving interleaved
// and unsorted, then one finish on the default executor. grain is the
// shape every suite query's measure has (Q1's, two varying attributes);
// wide varies every attribute, a shape no suite query produces.
func BenchmarkAssemble(b *testing.B) {
	su := workload.NewSuite()
	arity := su.Schema.NumAttrs()
	for _, shape := range []struct {
		name string
		rows func(*rand.Rand, int, int) [][]byte
	}{{"grain", grainRows}, {"wide", randomRows}} {
		b.Run(shape.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			rows := make([][][]byte, 3)
			for i := range rows {
				rows[i] = shape.rows(rng, arity, 12_000)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchAssembled = assemble(b, arity, rows)
			}
		})
	}
}

// assemble feeds rows[j] to measure j's slot, interleaved across measures,
// and finishes on the default executor.
func assemble(tb testing.TB, arity int, rows [][][]byte) map[string][]MeasureRecord {
	grain := make(cube.Grain, arity)
	out := make(map[string][]MeasureRecord, len(rows))
	asm := assembler{arity: arity}
	slots := make([]*asmSlot, len(rows))
	for j := range slots {
		slots[j] = asm.slot(out, &workflow.Measure{Name: fmt.Sprintf("m%d", j), Grain: grain})
	}
	for r := range rows[0] {
		for j, s := range slots {
			if err := s.add(rows[j][r]); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := asm.finish(context.Background(), nil); err != nil {
		tb.Fatal(err)
	}
	return out
}
