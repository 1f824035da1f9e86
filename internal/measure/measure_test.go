package measure

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

var allSpecs = []Spec{
	{Func: Count}, {Func: Sum}, {Func: Min}, {Func: Max},
	{Func: Avg}, {Func: Var}, {Func: StdDev}, {Func: Median},
	{Func: Quantile, Arg: 0.9}, {Func: CountDistinct},
}

func TestValidate(t *testing.T) {
	for _, s := range allSpecs {
		if err := s.Validate(); err != nil {
			t.Errorf("%v: %v", s, err)
		}
	}
	bad := []Spec{
		{Func: "bogus"},
		{Func: Quantile, Arg: 0},
		{Func: Quantile, Arg: 1},
		{Func: Quantile, Arg: -0.5},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%v: expected error", s)
		}
	}
}

func TestClassification(t *testing.T) {
	cases := map[Func]Class{
		Count: Distributive, Sum: Distributive, Min: Distributive, Max: Distributive,
		Avg: Algebraic, Var: Algebraic, StdDev: Algebraic,
		Median: Holistic, Quantile: Holistic, CountDistinct: Holistic,
	}
	for f, want := range cases {
		s := Spec{Func: f, Arg: 0.5}
		if got := s.Class(); got != want {
			t.Errorf("%s class = %v, want %v", f, got, want)
		}
		if s.Mergeable() != (want != Holistic) {
			t.Errorf("%s mergeable inconsistent with class", f)
		}
	}
}

// reference computes the aggregate over the whole slice directly.
func reference(s Spec, vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		if s.Func == Count || s.Func == Sum {
			return 0
		}
		return math.NaN()
	}
	switch s.Func {
	case Count:
		return float64(n)
	case Sum, Avg, Var, StdDev:
		var sum float64
		for _, v := range vals {
			sum += v
		}
		if s.Func == Sum {
			return sum
		}
		mean := sum / float64(n)
		if s.Func == Avg {
			return mean
		}
		var ss float64
		for _, v := range vals {
			d := v - mean
			ss += d * d
		}
		variance := ss / float64(n)
		if s.Func == Var {
			return variance
		}
		return math.Sqrt(variance)
	case Min:
		m := vals[0]
		for _, v := range vals {
			if v < m {
				m = v
			}
		}
		return m
	case Max:
		m := vals[0]
		for _, v := range vals {
			if v > m {
				m = v
			}
		}
		return m
	case Median:
		cp := append([]float64(nil), vals...)
		sort.Float64s(cp)
		if n%2 == 1 {
			return cp[n/2]
		}
		return (cp[n/2-1] + cp[n/2]) / 2
	case Quantile:
		cp := append([]float64(nil), vals...)
		sort.Float64s(cp)
		idx := int(math.Ceil(s.Arg*float64(n))) - 1
		if idx < 0 {
			idx = 0
		}
		return cp[idx]
	case CountDistinct:
		seen := map[float64]bool{}
		for _, v := range vals {
			seen[v] = true
		}
		return float64(len(seen))
	}
	panic("unreachable")
}

func close2(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1)
}

func TestAggregatorsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, s := range allSpecs {
		for trial := 0; trial < 30; trial++ {
			n := rng.Intn(50)
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = float64(rng.Intn(2001)-1000) / 10
			}
			agg := s.New()
			for _, v := range vals {
				agg.Add(v)
			}
			if agg.N() != int64(n) {
				t.Fatalf("%v: N = %d, want %d", s, agg.N(), n)
			}
			got, want := agg.Result(), reference(s, vals)
			if !close2(got, want) {
				t.Errorf("%v over %v: got %v, want %v", s, vals, got, want)
			}
		}
	}
}

func TestEmptyAggregates(t *testing.T) {
	for _, s := range allSpecs {
		agg := s.New()
		r := agg.Result()
		switch s.Func {
		case Count, Sum:
			if r != 0 {
				t.Errorf("%v empty result = %v, want 0", s, r)
			}
		default:
			if !math.IsNaN(r) {
				t.Errorf("%v empty result = %v, want NaN", s, r)
			}
		}
	}
}

// TestStateMergeEquivalence is the property that justifies early
// aggregation: splitting the input arbitrarily, aggregating each part,
// serializing, and merging the states must equal whole-input aggregation.
// It must hold for every function (holistic included — the combiner just
// does not shrink holistic states).
func TestStateMergeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, s := range allSpecs {
		for trial := 0; trial < 25; trial++ {
			n := 1 + rng.Intn(60)
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = float64(rng.Intn(400)) / 4
			}
			// Split into 1..5 random parts.
			parts := 1 + rng.Intn(5)
			whole := s.New()
			merged := s.New()
			for _, v := range vals {
				whole.Add(v)
			}
			start := 0
			for p := 0; p < parts; p++ {
				end := start + (n-start)/(parts-p)
				if p == parts-1 {
					end = n
				}
				part := s.New()
				for _, v := range vals[start:end] {
					part.Add(v)
				}
				if err := merged.MergeState(part.State()); err != nil {
					t.Fatalf("%v: merge: %v", s, err)
				}
				start = end
			}
			if merged.N() != whole.N() {
				t.Fatalf("%v: merged N %d != whole N %d", s, merged.N(), whole.N())
			}
			if !close2(merged.Result(), whole.Result()) {
				t.Errorf("%v: merged %v != whole %v (vals %v, parts %d)",
					s, merged.Result(), whole.Result(), vals, parts)
			}
		}
	}
}

func TestMergeStateErrors(t *testing.T) {
	for _, s := range allSpecs {
		agg := s.New()
		if err := agg.MergeState(nil); err == nil && s.Func != Count {
			// count of an empty buffer still needs one varint byte
			t.Errorf("%v: empty state accepted", s)
		}
		if err := agg.MergeState([]byte{0xff}); err == nil {
			t.Errorf("%v: garbage state accepted", s)
		}
	}
}

// wrappingStates are holistic states whose value count n makes 8·n wrap
// around 2⁶⁴ — to 0 for n = 2⁶¹ with no values behind it, to 8 for
// n = 2⁶¹+1 with one — which a length check of the form len < 8·n let
// through into a read past the buffer.
func wrappingStates() map[Func][][]byte {
	zero := binary.AppendUvarint(nil, 1<<61)                                    // 9 bytes
	eight := append(binary.AppendUvarint(nil, 1<<61+1), 1, 2, 3, 4, 5, 6, 7, 8) // 17 bytes
	return map[Func][][]byte{
		Median:        {zero, eight},
		Quantile:      {zero, eight},
		CountDistinct: {append([]byte{0}, zero...), append([]byte{1}, eight...)},
	}
}

// TestMergeStateCountWrap: a holistic state claiming 2⁶¹ or 2⁶¹+1 values
// is refused with an error, not an index-out-of-range panic, and leaves
// the aggregator empty.
func TestMergeStateCountWrap(t *testing.T) {
	for fn, states := range wrappingStates() {
		for _, state := range states {
			agg := Spec{Func: fn, Arg: 0.5}.New()
			if err := agg.MergeState(state); err == nil {
				t.Errorf("%s accepted the %d-byte state %x", fn, len(state), state)
			}
			if agg.N() != 0 {
				t.Errorf("%s: a refused state left N = %d", fn, agg.N())
			}
		}
	}
}

// TestMergeStateRefusesTrailingBytes: a valid state with one byte more is
// not a state, for every function.
func TestMergeStateRefusesTrailingBytes(t *testing.T) {
	for _, s := range allSpecs {
		part := s.New()
		part.Add(2)
		if err := s.New().MergeState(append(part.State(), 0)); err == nil {
			t.Errorf("%v accepted a state with a trailing byte", s)
		}
	}
}

// validState reports whether state is exactly one partial state of s, by
// the format alone: a uvarint count N, then the function's float64s —
// none (COUNT), one (SUM, MIN, MAX), two (AVG, VAR, STDDEV) or N (MEDIAN,
// QUANTILE) — or, for DISTINCT, a second uvarint K and K float64s.
func validState(s Spec, state []byte) bool {
	n, k := binary.Uvarint(state)
	if k <= 0 {
		return false
	}
	rest, floats := state[k:], n
	switch s.Func {
	case Count:
		floats = 0
	case Sum, Min, Max:
		floats = 1
	case Avg, Var, StdDev:
		floats = 2
	case CountDistinct:
		if floats, k = binary.Uvarint(rest); k <= 0 {
			return false
		}
		rest = rest[k:]
	}
	return floats <= uint64(len(rest))/8 && uint64(len(rest)) == 8*floats
}

// FuzzMergeState throws arbitrary bytes at every function's partial-state
// decoder, the one a reducer runs on each shuffled partial. It must not
// panic; bytes that are not exactly one state (validState) are an error
// and leave a fresh aggregator empty; a state that merges is retained in
// no more bytes than it arrived in — nothing is sized from a count the
// bytes do not back — and re-merging the aggregator's own State into a
// fresh one gives the same aggregate.
func FuzzMergeState(f *testing.F) {
	for i, s := range allSpecs {
		agg := s.New()
		for _, v := range []float64{3, -1.5, 3, 1e300, 0} {
			f.Add(uint8(i), agg.State())
			agg.Add(v)
		}
		f.Add(uint8(i), agg.State())
	}
	for fn, states := range wrappingStates() {
		i := slices.IndexFunc(allSpecs, func(s Spec) bool { return s.Func == fn })
		for _, state := range states {
			f.Add(uint8(i), state)
		}
	}

	f.Fuzz(func(t *testing.T, which uint8, state []byte) {
		s := allSpecs[int(which)%len(allSpecs)]
		agg := s.New()
		err := agg.MergeState(state)
		if !validState(s, state) {
			if err == nil {
				t.Fatalf("%v accepted the malformed state %x", s, state)
			}
			if empty := s.New().State(); agg.N() != 0 || !bytes.Equal(agg.State(), empty) {
				t.Fatalf("%v: refused state %x left %x, want %x", s, state, agg.State(), empty)
			}
			return
		}
		if err != nil {
			t.Fatalf("%v refused the well-formed state %x: %v", s, state, err)
		}
		own := agg.State()
		if len(own) > len(state) {
			t.Fatalf("%v: a %d-byte state is held as %d bytes", s, len(state), len(own))
		}
		again := s.New()
		if err := again.MergeState(own); err != nil {
			t.Fatalf("%v refused its own state %x: %v", s, own, err)
		}
		if s.Func == CountDistinct { // State lists the set in map order
			if again.N() != agg.N() || math.Float64bits(again.Result()) != math.Float64bits(agg.Result()) || len(again.State()) != len(own) {
				t.Fatalf("%v: re-merged N %d, result %v; merged N %d, result %v", s, again.N(), again.Result(), agg.N(), agg.Result())
			}
		} else if !bytes.Equal(again.State(), own) {
			t.Fatalf("%v: re-merged state %x, merged %x", s, again.State(), own)
		}
	})
}

func TestMergeEmptyExtreme(t *testing.T) {
	// Merging an empty min/max partial state must not poison the result.
	a := Spec{Func: Min}.New()
	empty := Spec{Func: Min}.New()
	a.Add(5)
	if err := a.MergeState(empty.State()); err != nil {
		t.Fatal(err)
	}
	if got := a.Result(); got != 5 {
		t.Errorf("min after empty merge = %v, want 5", got)
	}
	// And merging into an empty aggregator adopts the other side.
	b := Spec{Func: Max}.New()
	part := Spec{Func: Max}.New()
	part.Add(-3)
	if err := b.MergeState(part.State()); err != nil {
		t.Fatal(err)
	}
	if got := b.Result(); got != -3 {
		t.Errorf("max adopt = %v, want -3", got)
	}
}

func TestQuantileRanks(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		rank float64
		want float64
	}{
		{0.1, 1}, {0.25, 3}, {0.5, 5}, {0.9, 9}, {0.99, 10},
	}
	for _, c := range cases {
		agg := Spec{Func: Quantile, Arg: c.rank}.New()
		for _, v := range vals {
			agg.Add(v)
		}
		if got := agg.Result(); got != c.want {
			t.Errorf("q(%v) = %v, want %v", c.rank, got, c.want)
		}
	}
}

func TestVarianceNonNegativeProperty(t *testing.T) {
	f := func(raw []float64) bool {
		agg := Spec{Func: Var}.New()
		any := false
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				continue
			}
			agg.Add(v)
			any = true
		}
		if !any {
			return true
		}
		return agg.Result() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestExpressions(t *testing.T) {
	cases := []struct {
		e    Expr
		args []float64
		want float64
	}{
		{Ratio(), []float64{6, 3}, 2},
		{Ratio(), []float64{1, 0}, math.NaN()},
		{Ratio(), []float64{1}, math.NaN()},
		{Add(), []float64{1, 2, 3}, 6},
		{Add(), nil, 0},
		{Sub(), []float64{5, 3}, 2},
		{Sub(), []float64{5}, math.NaN()},
		{Mul(), []float64{2, 3, 4}, 24},
		{Ident(), []float64{7}, 7},
		{Ident(), []float64{7, 8}, math.NaN()},
		{Scale(2.5), []float64{4}, 10},
		{FuncExpr{Name: "hyp", NArgs: 2, Fn: func(a []float64) float64 {
			return math.Hypot(a[0], a[1])
		}}, []float64{3, 4}, 5},
	}
	for _, c := range cases {
		got := c.e.Eval(c.args)
		if !close2(got, c.want) {
			t.Errorf("%s%v = %v, want %v", c.e, c.args, got, c.want)
		}
	}
}

func TestExprNaNPropagation(t *testing.T) {
	for _, e := range []Expr{Ratio(), Add(), Sub(), Mul(), Ident(), Scale(3)} {
		args := make([]float64, 2)
		if e.Arity() == 1 {
			args = args[:1]
		}
		args[0] = math.NaN()
		if got := e.Eval(args); !math.IsNaN(got) {
			t.Errorf("%s did not propagate NaN: %v", e, got)
		}
	}
}

func TestExprByName(t *testing.T) {
	for _, name := range []string{"ratio", "ADD", "Sub", "mul", "ident"} {
		if _, err := ExprByName(name); err != nil {
			t.Errorf("%q: %v", name, err)
		}
	}
	if _, err := ExprByName("pow"); err == nil {
		t.Error("unknown expr accepted")
	}
}

func TestSpecString(t *testing.T) {
	if got := (Spec{Func: Median}).String(); got != "median" {
		t.Errorf("got %q", got)
	}
	if got := (Spec{Func: Quantile, Arg: 0.9}).String(); got != "quantile(0.9)" {
		t.Errorf("got %q", got)
	}
}

func TestCountDistinct(t *testing.T) {
	s := Spec{Func: CountDistinct}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Class() != Holistic || s.Mergeable() {
		t.Error("distinct must be holistic")
	}
	agg := s.New()
	for _, v := range []float64{1, 2, 2, 3, 1, 1} {
		agg.Add(v)
	}
	if got := agg.Result(); got != 3 {
		t.Errorf("distinct = %v, want 3", got)
	}
	if agg.N() != 6 {
		t.Errorf("N = %d", agg.N())
	}
	// State merge unions the sets.
	other := s.New()
	other.Add(3)
	other.Add(4)
	if err := agg.MergeState(other.State()); err != nil {
		t.Fatal(err)
	}
	if got := agg.Result(); got != 4 {
		t.Errorf("merged distinct = %v, want 4", got)
	}
	if math.IsNaN(s.New().Result()) != true {
		t.Error("empty distinct not NaN")
	}
	if err := s.New().MergeState([]byte{0xff}); err == nil {
		t.Error("garbage state accepted")
	}
}

// TestFlatStateMatchesAggregator: for every mergeable function a
// FlatState fed a value stream agrees with the function's Aggregator at
// every prefix of the stream — the same state bytes and the same Result
// bits, the two being interchangeable producers of one wire format — and
// merging each prefix's bytes, and an empty state's, into a FlatState and
// into an Aggregator keeps those two equal too. A state one byte short or one byte long is
// refused by both and leaves each as it was. Holistic functions have no
// flat kind.
func TestFlatStateMatchesAggregator(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sameBits := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	for _, fn := range []Func{Count, Sum, Min, Max, Avg, Var, StdDev} {
		spec := Spec{Func: fn}
		kind, ok := spec.FlatKind()
		if !ok {
			t.Fatalf("%s has no flat kind", fn)
		}
		agg, merged := spec.New(), spec.New()
		var flat, flatMerged FlatState
		for i := 0; i < 200; i++ {
			want := agg.State()
			if got := flat.AppendState(nil, kind); !bytes.Equal(got, want) {
				t.Fatalf("%s after %d values: flat state %x, aggregator state %x", fn, i, got, want)
			} else if flat.StateLen(kind) != len(want) {
				t.Fatalf("%s after %d values: StateLen %d, state is %d bytes", fn, i, flat.StateLen(kind), len(want))
			}
			if got, want := flat.Result(fn), agg.Result(); !sameBits(got, want) {
				t.Fatalf("%s after %d values: flat result %v, aggregator result %v", fn, i, got, want)
			}
			for _, state := range [][]byte{want, spec.New().State()} { // the prefix's state, then an empty one
				if err := flatMerged.MergeState(kind, state); err != nil {
					t.Fatalf("%s after %d values: flat merge: %v", fn, i, err)
				}
				if err := merged.MergeState(state); err != nil {
					t.Fatalf("%s after %d values: aggregator merge: %v", fn, i, err)
				}
			}
			if got, want := flatMerged.AppendState(nil, kind), merged.State(); !bytes.Equal(got, want) {
				t.Fatalf("%s after %d merges: flat state %x, aggregator state %x", fn, i, got, want)
			}
			if got, want := flatMerged.Result(fn), merged.Result(); !sameBits(got, want) {
				t.Fatalf("%s after %d merges: flat result %v, aggregator result %v", fn, i, got, want)
			}
			for _, bad := range [][]byte{want[:len(want)-1], append(slices.Clip(want), 0)} {
				before, beforeAgg := flatMerged, merged.State()
				if flatMerged.MergeState(kind, bad) == nil {
					t.Fatalf("%s: flat state accepted %x", fn, bad)
				}
				if merged.MergeState(bad) == nil {
					t.Fatalf("%s: aggregator accepted %x", fn, bad)
				}
				if flatMerged != before || !bytes.Equal(merged.State(), beforeAgg) {
					t.Fatalf("%s: a refused state %x changed the merged state", fn, bad)
				}
			}
			v := float64(rng.Int63n(1<<uint(rng.Intn(54))) - rng.Int63n(1<<20))
			flat.Add(kind, v)
			agg.Add(v)
		}
	}
	for _, spec := range []Spec{{Func: Median}, {Func: Quantile, Arg: 0.9}, {Func: CountDistinct}} {
		if _, ok := spec.FlatKind(); ok {
			t.Errorf("holistic %s claims a flat kind", spec)
		}
	}
}
