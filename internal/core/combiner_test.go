package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/measure"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/recio"
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
	comb := newEarlyAggCombiner(su.Schema, basics, &st)
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
	var raw []byte
	for i, rec := range records {
		raw = recio.AppendRecord(raw[:0], rec)
		if err := comb.Add([]byte("block"), raw); err != nil {
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
// depend on map iteration order.
func TestCombinerFlushDeterministic(t *testing.T) {
	su := workload.NewSuite()
	w := mergeableBasicsWorkflow(t, su)
	basics := w.Basics()
	records := su.Generate(500, workload.Uniform, 11)

	flushed := func() ([]string, [][]byte) {
		var st mr.MapTaskStats
		comb := newEarlyAggCombiner(su.Schema, basics, &st)
		var raw []byte
		for i, rec := range records {
			raw = recio.AppendRecord(raw[:0], rec)
			if err := comb.Add([]byte(fmt.Sprintf("block-%d", i%5)), raw); err != nil {
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
