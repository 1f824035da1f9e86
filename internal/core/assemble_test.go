package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/casm-project/casm/internal/blockstore"
	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/exec"
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

// TestAssemblyPathsByteIdentical: every path that produces a Result for
// the same query — single-query job, shared-job batch member, per-block
// cache replay through the job, whole-query manifest replay, and a
// SaveResults→LoadResults round trip — yields the same bytes.
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

// countingInput counts Splits calls: one per job started over it.
type countingInput struct {
	mr.Input
	jobs *atomic.Int32
}

func (c countingInput) Splits() ([]mr.Split, error) {
	c.jobs.Add(1)
	return c.Input.Splits()
}

// TestAssemblyRejectsMalformedRows: a row with a 7-byte payload, a
// truncated coordinate key, or trailing key bytes reaches the assembler
// through a corrupted cache entry. The manifest replay must not answer
// from it but fall back to the job; the job (which replays the same
// entry) must fail with the codec's error, torn down, spill dir empty.
func TestAssemblyRejectsMalformedRows(t *testing.T) {
	su := workload.NewSuite()
	records := su.Generate(2000, workload.Uniform, 67)
	_, base := storeDataset(t, su, records)
	w := su.Q1()
	arity := su.Schema.NumAttrs()
	good := appendMeasureRecord(nil, make([]int64, arity), 1)
	cases := []struct {
		label, wantErr string
		payload        []byte
	}{
		{"7-byte value", "core: truncated measure record", good[len(good)-7:]},
		{"truncated key", "cube: truncated coordinate key", good[1:]},
		{"trailing key bytes", "trailing bytes in coordinate key", append([]byte{0}, good...)},
	}
	for _, tc := range cases {
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
		if _, err := eng.RunWithPlanContext(context.Background(), w, &ds, outcome); err != nil {
			t.Fatal(err)
		}
		ru := eng.newResultReuse(w, &ds, outcome.Plan)
		keys, ok := rc.Manifest(ru.queryKey)
		if !ok || len(keys) == 0 {
			t.Fatal("cold run committed no manifest")
		}
		rc.Put([]byte(keys[0]), appendCachedRow(nil, 0, tc.payload))

		baseline := settleGoroutines(t)
		jobs.Store(0)
		res, err := eng.RunWithPlanContext(context.Background(), w, &ds, outcome)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: err = %v, want %q", tc.label, err, tc.wantErr)
		}
		if res != nil {
			t.Fatalf("%s: a result came back with the error", tc.label)
		}
		if jobs.Load() == 0 {
			t.Fatalf("%s: the manifest replay did not fall back to the job", tc.label)
		}
		waitForGoroutines(t, baseline)
		assertEmptyDir(t, tc.label, tmp)
		rc.Close()
	}
}

var benchAssembled map[string][]MeasureRecord

// BenchmarkAssemble isolates output assembly at reduce_fineout's shape:
// 3 measures × 12k rows at the suite's arity, rows arriving interleaved
// and unsorted, then one finish on the default executor.
func BenchmarkAssemble(b *testing.B) {
	su := workload.NewSuite()
	arity := su.Schema.NumAttrs()
	rng := rand.New(rand.NewSource(1))
	grain := make(cube.Grain, arity)
	measures := []*workflow.Measure{{Name: "m0", Grain: grain}, {Name: "m1", Grain: grain}, {Name: "m2", Grain: grain}}
	const perMeasure = 12_000
	rows := make([][][]byte, len(measures))
	for i := range rows {
		rows[i] = randomRows(rng, arity, perMeasure)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := make(map[string][]MeasureRecord, len(measures))
		asm := assembler{arity: arity}
		slots := make([]*asmSlot, len(measures))
		for j, m := range measures {
			slots[j] = asm.slot(out, m)
		}
		for r := 0; r < perMeasure; r++ {
			for j := range slots {
				if err := slots[j].add(rows[j][r]); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := asm.finish(context.Background(), nil); err != nil {
			b.Fatal(err)
		}
		benchAssembled = out
	}
}
