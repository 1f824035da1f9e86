package core

import (
	"bytes"
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/distkey"
	"github.com/casm-project/casm/internal/measure"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/workflow"
	"github.com/casm-project/casm/internal/workload"
)

// mergeableBasicsWorkflow builds one basic measure per distributive and
// algebraic aggregate function — the full set early aggregation may apply
// to — all at the same grain.
func mergeableBasicsWorkflow(t *testing.T, su *workload.Suite) *workflow.Workflow {
	t.Helper()
	w := workflow.New(su.Schema)
	g := su.Schema.MustGrain(
		cube.GrainSpec{Attr: "a1", Level: "low"},
		cube.GrainSpec{Attr: "t1", Level: "hour"},
	)
	for _, fn := range []measure.Func{
		measure.Count, measure.Sum, measure.Min, measure.Max, // distributive
		measure.Avg, measure.Var, measure.StdDev, // algebraic
	} {
		spec := measure.Spec{Func: fn}
		if spec.Class() == measure.Holistic {
			t.Fatalf("%s unexpectedly holistic", fn)
		}
		attr := "a2"
		if fn == measure.Count {
			attr = ""
		}
		if err := w.AddBasic("m_"+string(fn), g, spec, attr); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// testBlocks is the block space a combiner test folds its ordinals in:
// the regions of the first basic's grain.
func testBlocks(tb testing.TB, s *cube.Schema, basics []*workflow.Measure) *distkey.BlockMapper {
	tb.Helper()
	bm, err := distkey.NewBlockMapper(s, distkey.FromGrain(basics[0].Grain), 1)
	if err != nil {
		tb.Fatal(err)
	}
	return bm
}

// newEarlyAggCombiner is a one-task plan's combiner over testBlocks.
func newEarlyAggCombiner(tb testing.TB, s *cube.Schema, basics []*workflow.Measure, st *mr.MapTaskStats) *earlyAggCombiner {
	tb.Helper()
	plan := newEarlyAggPlan(s, basics)
	if plan == nil {
		tb.Fatal("the basics' regions do not fit in 64 bits")
	}
	return plan.newCombiner(testBlocks(tb, s, basics), st)
}

// columnBatches transposes records into batches of at most 1 024, the
// size a store block's decoder hands out.
func columnBatches(records []cube.Record) []mr.Batch {
	var out []mr.Batch
	for lo := 0; lo < len(records); lo += 1024 {
		recs := records[lo:min(lo+1024, len(records))]
		b := mr.Batch{N: len(recs), Cols: make([][]int64, len(recs[0]))}
		for a := range b.Cols {
			b.Cols[a] = make([]int64, len(recs))
			for i, rec := range recs {
				b.Cols[a][i] = rec[a]
			}
		}
		out = append(out, b)
	}
	return out
}

// foldRow folds one record into the combiner under block, as a batch of one
// with no budget: the tests' record-at-a-time way into Fold.
func foldRow(c *earlyAggCombiner, block uint64, rec []int64) error {
	cols := make([][]int64, len(rec))
	for a, v := range rec {
		cols[a] = []int64{v}
	}
	_, _, err := c.Fold(mr.Batch{N: 1, Cols: cols}, []uint64{block}, []int32{0}, math.MaxInt)
	return err
}

// TestStreamingCombinerMatchesBufferedMerge is the early-aggregation
// equivalence property: for every distributive and algebraic measure,
// folding records one at a time into the streaming combiner — including
// mid-stream flushes that split one group's state across several shipped
// partials — then merging the partial states must produce exactly the
// aggregate of buffering all records and adding them to one aggregator.
func TestStreamingCombinerMatchesBufferedMerge(t *testing.T) {
	su := workload.NewSuite()
	w := mergeableBasicsWorkflow(t, su)
	basics := w.Basics()
	arity := su.Schema.NumAttrs()
	records := su.Generate(3000, workload.SkewedTime, 7)

	// Streaming path: combiner Add per record, flush every 251 records so
	// groups ship as multiple partials, then reduce-side MergeState.
	var st mr.MapTaskStats
	comb := newEarlyAggCombiner(t, su.Schema, basics, &st)
	type merged struct {
		coords []int64
		agg    measure.Aggregator
	}
	perBasic := make([]map[string]*merged, len(basics))
	for i := range perBasic {
		perBasic[i] = make(map[string]*merged)
	}
	absorb := func(key, value []byte) error {
		idx, coords, state, err := decodePartial(value, arity)
		if err != nil {
			return err
		}
		k := cube.EncodeCoords(coords)
		g, ok := perBasic[idx][k]
		if !ok {
			g = &merged{coords: coords, agg: basics[idx].Agg.New()}
			perBasic[idx][k] = g
		}
		return g.agg.MergeState(state)
	}
	for i, rec := range records {
		if err := foldRow(comb, 0, rec); err != nil {
			t.Fatal(err)
		}
		if (i+1)%251 == 0 {
			if err := comb.Flush(absorb); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := comb.Flush(absorb); err != nil {
		t.Fatal(err)
	}
	if comb.Len() != 0 {
		t.Errorf("combiner not reset after flush: Len = %d", comb.Len())
	}
	if st.CombineMerges == 0 {
		t.Error("no in-place merges counted on a skewed stream")
	}

	// Buffered reference: one aggregator per (basic, region) fed every
	// record directly, in the same arrival order.
	ref := make([]map[string]*merged, len(basics))
	for i := range ref {
		ref[i] = make(map[string]*merged)
	}
	coord := make([]int64, arity)
	for _, rec := range records {
		for i, b := range basics {
			su.Schema.CoordOf(rec, b.Grain, coord)
			k := cube.EncodeCoords(coord)
			g, ok := ref[i][k]
			if !ok {
				g = &merged{coords: append([]int64(nil), coord...), agg: b.Agg.New()}
				ref[i][k] = g
			}
			if b.InputAttr >= 0 {
				g.agg.Add(float64(rec[b.InputAttr]))
			} else {
				g.agg.Add(0)
			}
		}
	}

	for i, b := range basics {
		if len(perBasic[i]) != len(ref[i]) {
			t.Errorf("%s: %d groups streamed, %d buffered", b.Name, len(perBasic[i]), len(ref[i]))
			continue
		}
		for k, want := range ref[i] {
			got, ok := perBasic[i][k]
			if !ok {
				t.Errorf("%s: group %q missing from streamed result", b.Name, k)
				continue
			}
			if got.agg.N() != want.agg.N() {
				t.Errorf("%s group %q: N = %d, want %d", b.Name, k, got.agg.N(), want.agg.N())
			}
			gv, wv := got.agg.Result(), want.agg.Result()
			if math.Abs(gv-wv) > 1e-9*math.Max(1, math.Abs(wv)) {
				t.Errorf("%s group %q: result %v, want %v", b.Name, k, gv, wv)
			}
		}
	}
}

// TestCombinerFlushDeterministic checks that two combiners fed the same
// stream flush byte-identical sequences: blocks in ascending key order,
// partials in (basic, region) order — the shuffle byte stream must not
// depend on map iteration order. The block ordinals are chosen so that
// ascending ordinals are not ascending key bytes (varints of 200 and 400
// in the hour coordinate sort the other way round).
func TestCombinerFlushDeterministic(t *testing.T) {
	su := workload.NewSuite()
	w := mergeableBasicsWorkflow(t, su)
	basics := w.Basics()
	records := su.Generate(500, workload.Uniform, 11)

	flushed := func() ([]string, [][]byte) {
		var st mr.MapTaskStats
		comb := newEarlyAggCombiner(t, su.Schema, basics, &st)
		for i, rec := range records {
			if err := foldRow(comb, uint64(i%5)*200, rec); err != nil {
				t.Fatal(err)
			}
		}
		var keys []string
		var vals [][]byte
		if err := comb.Flush(func(k, v []byte) error {
			keys = append(keys, string(k))
			vals = append(vals, v)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return keys, vals
	}

	k1, v1 := flushed()
	k2, v2 := flushed()
	if len(k1) != len(k2) {
		t.Fatalf("flush lengths differ: %d vs %d", len(k1), len(k2))
	}
	for i := range k1 {
		if k1[i] != k2[i] || !bytes.Equal(v1[i], v2[i]) {
			t.Fatalf("flush diverges at emission %d: %q vs %q", i, k1[i], k2[i])
		}
		if i > 0 && k1[i-1] > k1[i] {
			t.Fatalf("flush keys not ascending: %q before %q", k1[i-1], k1[i])
		}
	}
}

// decodePartial splits a partial payload and decodes its coordinates.
func decodePartial(b []byte, arity int) (int, []int64, []byte, error) {
	idx, ck, state, err := splitPartial(b)
	if err != nil {
		return 0, nil, nil, err
	}
	coords, err := cube.DecodeCoords(string(ck), arity)
	if err != nil {
		return 0, nil, nil, err
	}
	return idx, coords, state, nil
}

// TestFlushRadixSortIsTheComparisonOrder: the flush's LSD radix sort puts
// distinct (hi, prefix) keys in the order the comparison sort it replaced
// does, for keys that vary in few bytes (block ranks and grains, short
// regions: most digits skipped) and in all sixteen.
func TestFlushRadixSortIsTheComparisonOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for _, n := range []int{0, 1, 2, 255, 1000, 5000} {
		for _, mask := range []uint64{0xff, 0xffff00, ^uint64(0)} {
			seen := map[[2]uint64]bool{}
			var keys []aggSortKey
			for len(keys) < n {
				k := aggSortKey{hi: uint64(rng.Intn(40))<<32 | uint64(rng.Intn(3)), prefix: rng.Uint64() & mask, entry: uint32(len(keys))}
				if mask == ^uint64(0) {
					k.hi = rng.Uint64()
				}
				if !seen[[2]uint64{k.hi, k.prefix}] {
					seen[[2]uint64{k.hi, k.prefix}] = true
					keys = append(keys, k)
				}
			}
			want := slices.Clone(keys)
			slices.SortFunc(want, func(a, b aggSortKey) int {
				if a.hi != b.hi {
					return cmp.Compare(a.hi, b.hi)
				}
				return cmp.Compare(a.prefix, b.prefix)
			})
			if got := radixSort(keys, make([]aggSortKey, len(keys))); !slices.Equal(got, want) {
				t.Fatalf("%d keys under mask %x: radix order differs from comparison order", n, mask)
			}
		}
	}
}
