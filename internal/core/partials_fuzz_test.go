package core

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/localeval"
	"github.com/casm-project/casm/internal/measure"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/transport"
	"github.com/casm-project/casm/internal/workflow"
)

// partialsWorkflow is a fixed two-grain workflow over a schema with a
// mapped attribute: a SUM at (product, amount band), a COUNT at product
// category, a rollup of the first to the second and a self measure across
// both grains.
func partialsWorkflow(tb testing.TB) *workflow.Workflow {
	s := cube.MustSchema(
		cube.MustMappedAttribute("product", 8, cube.MappedLevel{Name: "cat", Assign: []int64{0, 0, 1, 1, 1, 2, 2, 3}}),
		cube.MustAttribute("amt", cube.Numeric, 64, cube.Level{Name: "v", Span: 1}, cube.Level{Name: "band", Span: 8}),
	)
	fine := s.MustGrain(cube.GrainSpec{Attr: "product", Level: "value"}, cube.GrainSpec{Attr: "amt", Level: "band"})
	coarse := s.MustGrain(cube.GrainSpec{Attr: "product", Level: "cat"})
	w := workflow.New(s)
	for _, err := range []error{
		w.AddBasic("total", fine, measure.Spec{Func: measure.Sum}, "amt"),
		w.AddBasic("n", coarse, measure.Spec{Func: measure.Count}, ""),
		w.AddRollup("catAvg", coarse, measure.Spec{Func: measure.Avg}, "total"),
		w.AddSelf("share", fine, measure.Ratio(), "total", "catAvg"),
	} {
		if err != nil {
			tb.Fatal(err)
		}
	}
	return w
}

// payloadList is a group's values: each a uvarint length and that many
// bytes; a length past the end takes the rest.
type payloadList struct{ data []byte }

func (l *payloadList) Next() (transport.Pair, bool, error) {
	if len(l.data) == 0 {
		return transport.Pair{}, false, nil
	}
	n, k := binary.Uvarint(l.data)
	if k <= 0 || n > uint64(len(l.data)-k) {
		v := l.data
		l.data = nil
		return transport.Pair{Value: v}, true, nil
	}
	v := l.data[k : k+int(n)]
	l.data = l.data[k+int(n):]
	return transport.Pair{Value: v}, true, nil
}

func appendPayloads(dst []byte, payloads ...[]byte) []byte {
	for _, p := range payloads {
		dst = binary.AppendUvarint(dst, uint64(len(p)))
		dst = append(dst, p...)
	}
	return dst
}

// wellFormed decodes a payload independently of the reducer — with the
// aggregate function's own MergeState — and reports whether the reducer
// must accept it, with its basic, region key and merged aggregate.
func wellFormed(w *workflow.Workflow, b []byte) (int, string, measure.Aggregator, bool) {
	basics, s := w.Basics(), w.Schema()
	if len(b) < 1 || b[0] != partialTag {
		return 0, "", nil, false
	}
	idx, n := binary.Uvarint(b[1:])
	if n <= 0 || idx >= uint64(len(basics)) {
		return 0, "", nil, false
	}
	b = b[1+n:]
	ckLen, n := binary.Uvarint(b)
	if n <= 0 || ckLen > uint64(len(b)-n) {
		return 0, "", nil, false
	}
	ck, state := b[n:n+int(ckLen)], b[n+int(ckLen):]
	m := basics[idx]
	coords, err := cube.DecodeCoords(string(ck), s.NumAttrs())
	if err != nil {
		return 0, "", nil, false
	}
	for a, c := range coords {
		if uint64(c) >= uint64(s.Attr(a).CardAt(m.Grain[a])) {
			return 0, "", nil, false
		}
	}
	agg := m.Agg.New()
	if agg.MergeState(state) != nil {
		return 0, "", nil, false
	}
	return int(idx), cube.EncodeCoords(coords), agg, true // an over-long varint names the same region
}

// FuzzCollectPartials throws payload sequences at the reducer's partial
// decoder (splitPartial's header, the region and the state) for a fixed
// two-grain workflow. It must not panic. A sequence with a malformed
// payload is an error; a well-formed one evaluates, and its basic
// measures hold exactly what merging each payload's state into the
// function's own Aggregator gives. The reducer decodes into fixed-size
// scratch and session slots, so nothing it allocates is sized by a length
// it read.
func FuzzCollectPartials(f *testing.F) {
	w := partialsWorkflow(f)
	s, basics := w.Schema(), w.Basics()
	comb := newEarlyAggCombiner(f, s, basics, &mr.MapTaskStats{})
	for i := int64(0); i < 40; i++ {
		if err := foldRow(comb, 7, []int64{i % 8, i * 5 % 64}); err != nil {
			f.Fatal(err)
		}
	}
	var flush [][]byte
	if err := comb.Flush(func(_, v []byte) error { flush = append(flush, v); return nil }); err != nil {
		f.Fatal(err)
	}
	sum := (&measure.FlatState{N: 1, A: 3}).AppendState(nil, measure.FlatSum)
	region := cube.AppendCoords(nil, []int64{2, 1})
	f.Add(appendPayloads(nil, flush...))
	f.Add(appendPayloads(nil, flush[0], []byte{partialTag}))                                                       // truncated header
	f.Add(appendPayloads(nil, append(appendPartialHeader(nil, 1<<40, region), sum...)))                            // huge basic index
	f.Add(appendPayloads(nil, []byte{partialTag, 0, 200, 2, 1}))                                                   // ckLen past the end
	f.Add(appendPayloads(nil, append(appendPartialHeader(nil, 0, append(region, 5)), sum...)))                     // trailing coordinate bytes
	f.Add(appendPayloads(nil, append(appendPartialHeader(nil, 0, cube.AppendCoords(nil, []int64{9, 1})), sum...))) // out of domain
	ev, err := localeval.New(w)
	if err != nil {
		f.Fatal(err)
	}
	ss := ev.NewSession()
	f.Fuzz(func(t *testing.T, data []byte) {
		want := make([]map[string]measure.Aggregator, len(basics))
		for i := range want {
			want[i] = map[string]measure.Aggregator{}
		}
		good := true
		for l := (&payloadList{data}); ; {
			p, ok, _ := l.Next()
			if !ok {
				break
			}
			idx, key, agg, ok := wellFormed(w, p.Value)
			if good = good && ok; !good {
				break
			}
			if prev := want[idx][key]; prev != nil {
				if err := prev.MergeState(agg.State()); err != nil {
					t.Fatal(err)
				}
			} else {
				want[idx][key] = agg
			}
		}
		_, err := collectPartials(&payloadList{data}, ss)
		if !good {
			if err == nil {
				t.Fatal("a malformed payload was accepted")
			}
			if !errors.Is(err, localeval.ErrCorruptValue) {
				t.Fatalf("untyped error %v", err)
			}
			ss.EvaluatePartials() // end the group the failure left
			return
		}
		if err != nil {
			t.Fatalf("well-formed payloads refused: %v", err)
		}
		results, _, err := ss.EvaluatePartials()
		if err != nil {
			t.Fatal(err)
		}
		got := make([]map[string]float64, len(basics))
		for i, b := range basics {
			got[i] = map[string]float64{}
			for _, r := range results {
				if r.Measure == b.Name {
					got[i][r.Region.Key()] = r.Value
				}
			}
			for key, agg := range want[i] {
				v, ok := got[i][key]
				wv := agg.Result()
				if agg.N() == 0 { // merged states that absorbed no record leave the region undefined
					wv = math.NaN()
				}
				if math.IsNaN(wv) == ok || ok && math.Float64bits(v) != math.Float64bits(wv) {
					t.Fatalf("%s at %x: got %v (present %v), want %v", b.Name, key, v, ok, wv)
				}
				delete(got[i], key)
			}
			if len(got[i]) > 0 {
				t.Fatalf("%s: %d regions no payload named", b.Name, len(got[i]))
			}
		}
	})
}
