// Package measure implements the aggregate functions used by composite
// subset measure queries, including the algebraic/distributive/holistic
// classification that governs whether map-side early aggregation (the
// paper's Section III-D combiner) is applicable, and serializable partial
// states so that partial aggregates can travel through the shuffle.
package measure

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Class classifies an aggregate function following Gray et al.'s data-cube
// taxonomy, which the paper uses to gate early aggregation.
type Class int

const (
	// Distributive: partial aggregates combine with the same function
	// (COUNT, SUM, MIN, MAX).
	Distributive Class = iota
	// Algebraic: a constant-size tuple of distributive aggregates suffices
	// (AVG, VAR, STDDEV).
	Algebraic
	// Holistic: no constant-size partial state exists (MEDIAN, QUANTILE);
	// early aggregation yields no data reduction.
	Holistic
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case Distributive:
		return "distributive"
	case Algebraic:
		return "algebraic"
	case Holistic:
		return "holistic"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Func names an aggregate function.
type Func string

// Supported aggregate functions.
const (
	Count  Func = "count"
	Sum    Func = "sum"
	Min    Func = "min"
	Max    Func = "max"
	Avg    Func = "avg"
	Var    Func = "var"
	StdDev Func = "stddev"
	Median Func = "median"
	// Quantile takes Spec.Arg in (0,1) as the quantile rank.
	Quantile Func = "quantile"
	// CountDistinct counts the number of distinct input values (holistic:
	// its partial state is the distinct-value set itself).
	CountDistinct Func = "distinct"
)

// Spec fully describes an aggregate function instance.
type Spec struct {
	Func Func
	// Arg parameterizes Quantile (the rank in (0,1)); ignored otherwise.
	Arg float64
}

// Validate reports whether the spec names a supported function with a
// valid parameter.
func (s Spec) Validate() error {
	switch s.Func {
	case Count, Sum, Min, Max, Avg, Var, StdDev, Median, CountDistinct:
		return nil
	case Quantile:
		if s.Arg <= 0 || s.Arg >= 1 {
			return fmt.Errorf("measure: quantile rank %v outside (0,1)", s.Arg)
		}
		return nil
	default:
		return fmt.Errorf("measure: unknown aggregate function %q", s.Func)
	}
}

// Class returns the function's classification.
func (s Spec) Class() Class {
	switch s.Func {
	case Count, Sum, Min, Max:
		return Distributive
	case Avg, Var, StdDev:
		return Algebraic
	default:
		return Holistic
	}
}

// Mergeable reports whether the engine may use early aggregation for this
// function: the paper requires the basic measure to be algebraic or
// distributive for the combiner to reduce data volume.
func (s Spec) Mergeable() bool { return s.Class() != Holistic }

// String renders the spec ("median", "quantile(0.9)").
func (s Spec) String() string {
	if s.Func == Quantile {
		return fmt.Sprintf("quantile(%g)", s.Arg)
	}
	return string(s.Func)
}

// Aggregator accumulates values for one (measure, region) group. All
// implementations support merging serialized partial states, so the same
// type serves the mapper-side combiner, the shuffle, and the reducer.
type Aggregator interface {
	// Add absorbs one raw value.
	Add(v float64)
	// State serializes the current partial aggregate.
	State() []byte
	// MergeState absorbs a partial aggregate produced by State. Bytes
	// that are not exactly one such state are an error and leave the
	// aggregator as it was.
	MergeState(state []byte) error
	// Result finalizes the aggregate. For an empty group the result is 0
	// for Count/Sum and NaN otherwise. It may use the aggregator's own
	// scratch, so concurrent calls need their own aggregators.
	Result() float64
	// N reports how many raw values have been absorbed.
	N() int64
	// Reset returns the aggregator to its freshly constructed state while
	// retaining internal capacity (buffers, map storage), so pools can
	// recycle aggregators across groups. After Reset the aggregator must
	// be indistinguishable from Spec.New()'s result to every other method.
	Reset()
}

// New returns a fresh aggregator for the spec. It panics if the spec is
// invalid; call Validate first for untrusted input.
func (s Spec) New() Aggregator {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	switch s.Func {
	case Count:
		return &countAgg{}
	case Sum:
		return &sumAgg{}
	case Min:
		return &extremeAgg{min: true}
	case Max:
		return &extremeAgg{}
	case Avg:
		return &momentAgg{kind: Avg}
	case Var:
		return &momentAgg{kind: Var}
	case StdDev:
		return &momentAgg{kind: StdDev}
	case Median:
		return &bufferAgg{rank: 0.5, median: true}
	case CountDistinct:
		return &distinctAgg{seen: make(map[float64]bool)}
	default: // Quantile
		return &bufferAgg{rank: s.Arg}
	}
}

// --- distributive ---

type countAgg struct{ n int64 }

func (a *countAgg) Add(float64)     { a.n++ }
func (a *countAgg) Reset()          { a.n = 0 }
func (a *countAgg) N() int64        { return a.n }
func (a *countAgg) Result() float64 { return float64(a.n) }
func (a *countAgg) State() []byte {
	var buf [binary.MaxVarintLen64]byte
	return buf[:binary.PutUvarint(buf[:], uint64(a.n))]
}
func (a *countAgg) MergeState(state []byte) error {
	v, n := binary.Uvarint(state)
	if n <= 0 || n != len(state) {
		return fmt.Errorf("measure: bad count state")
	}
	a.n += int64(v)
	return nil
}

type sumAgg struct {
	n   int64
	sum float64
}

func (a *sumAgg) Add(v float64)   { a.n++; a.sum += v }
func (a *sumAgg) Reset()          { a.n = 0; a.sum = 0 }
func (a *sumAgg) N() int64        { return a.n }
func (a *sumAgg) Result() float64 { return a.sum }
func (a *sumAgg) State() []byte {
	buf := make([]byte, 0, 16)
	buf = appendUvarint(buf, uint64(a.n))
	buf = appendFloat(buf, a.sum)
	return buf
}
func (a *sumAgg) MergeState(state []byte) error {
	n, sum, err := readNFloat(state, 1)
	if err != nil {
		return fmt.Errorf("measure: bad sum state: %w", err)
	}
	a.n += n
	a.sum += sum[0]
	return nil
}

type extremeAgg struct {
	min bool
	n   int64
	val float64
}

func (a *extremeAgg) Add(v float64) {
	if a.n == 0 || (a.min && v < a.val) || (!a.min && v > a.val) {
		a.val = v
	}
	a.n++
}
func (a *extremeAgg) Reset()   { a.n = 0; a.val = 0 }
func (a *extremeAgg) N() int64 { return a.n }
func (a *extremeAgg) Result() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.val
}
func (a *extremeAgg) State() []byte {
	buf := make([]byte, 0, 16)
	buf = appendUvarint(buf, uint64(a.n))
	buf = appendFloat(buf, a.val)
	return buf
}
func (a *extremeAgg) MergeState(state []byte) error {
	n, vals, err := readNFloat(state, 1)
	if err != nil {
		return fmt.Errorf("measure: bad min/max state: %w", err)
	}
	if n == 0 {
		return nil
	}
	if a.n == 0 || (a.min && vals[0] < a.val) || (!a.min && vals[0] > a.val) {
		a.val = vals[0]
	}
	a.n += n
	return nil
}

// --- algebraic ---

type momentAgg struct {
	kind  Func
	n     int64
	sum   float64
	sumSq float64
}

func (a *momentAgg) Add(v float64) { a.n++; a.sum += v; a.sumSq += v * v }
func (a *momentAgg) Reset()        { a.n = 0; a.sum = 0; a.sumSq = 0 }
func (a *momentAgg) N() int64      { return a.n }
func (a *momentAgg) Result() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	mean := a.sum / float64(a.n)
	switch a.kind {
	case Avg:
		return mean
	case Var:
		v := a.sumSq/float64(a.n) - mean*mean
		if v < 0 { // numeric guard
			v = 0
		}
		return v
	default: // StdDev
		v := a.sumSq/float64(a.n) - mean*mean
		if v < 0 {
			v = 0
		}
		return math.Sqrt(v)
	}
}
func (a *momentAgg) State() []byte {
	buf := make([]byte, 0, 24)
	buf = appendUvarint(buf, uint64(a.n))
	buf = appendFloat(buf, a.sum)
	buf = appendFloat(buf, a.sumSq)
	return buf
}
func (a *momentAgg) MergeState(state []byte) error {
	n, vals, err := readNFloat(state, 2)
	if err != nil {
		return fmt.Errorf("measure: bad moment state: %w", err)
	}
	a.n += n
	a.sum += vals[0]
	a.sumSq += vals[1]
	return nil
}

// --- holistic ---

type bufferAgg struct {
	rank   float64
	median bool
	vals   []float64
	sorted []float64 // Result's scratch: vals in order
}

func (a *bufferAgg) Add(v float64) { a.vals = append(a.vals, v) }
func (a *bufferAgg) Reset()        { a.vals = a.vals[:0] }
func (a *bufferAgg) N() int64      { return int64(len(a.vals)) }
func (a *bufferAgg) Result() float64 {
	n := len(a.vals)
	if n == 0 {
		return math.NaN()
	}
	cp := append(a.sorted[:0], a.vals...)
	a.sorted = cp
	sort.Float64s(cp)
	// MEDIAN uses midpoint interpolation for even n, matching the
	// conventional definition; QUANTILE uses pure nearest-rank.
	if a.median && n%2 == 0 {
		return (cp[n/2-1] + cp[n/2]) / 2
	}
	idx := int(math.Ceil(a.rank*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return cp[idx]
}
func (a *bufferAgg) State() []byte {
	buf := make([]byte, 0, 8+8*len(a.vals))
	buf = appendUvarint(buf, uint64(len(a.vals)))
	for _, v := range a.vals {
		buf = appendFloat(buf, v)
	}
	return buf
}
func (a *bufferAgg) MergeState(state []byte) error {
	n, rest, err := readUvarint(state)
	if err != nil {
		return fmt.Errorf("measure: bad buffer state: %w", err)
	}
	if n > uint64(len(rest))/8 {
		return fmt.Errorf("measure: truncated buffer state")
	}
	if uint64(len(rest)) != 8*n {
		return fmt.Errorf("measure: %d trailing bytes after buffer state", uint64(len(rest))-8*n)
	}
	for i := uint64(0); i < n; i++ {
		a.vals = append(a.vals, readFloat(rest[8*i:]))
	}
	return nil
}

type distinctAgg struct {
	n    int64
	seen map[float64]bool
}

func (a *distinctAgg) Add(v float64) { a.n++; a.seen[v] = true }
func (a *distinctAgg) Reset()        { a.n = 0; clear(a.seen) }
func (a *distinctAgg) N() int64      { return a.n }
func (a *distinctAgg) Result() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return float64(len(a.seen))
}
func (a *distinctAgg) State() []byte {
	buf := make([]byte, 0, 16+8*len(a.seen))
	buf = appendUvarint(buf, uint64(a.n))
	buf = appendUvarint(buf, uint64(len(a.seen)))
	for v := range a.seen {
		buf = appendFloat(buf, v)
	}
	return buf
}
func (a *distinctAgg) MergeState(state []byte) error {
	n, rest, err := readUvarint(state)
	if err != nil {
		return fmt.Errorf("measure: bad distinct state: %w", err)
	}
	k, rest, err := readUvarint(rest)
	if err != nil || k > uint64(len(rest))/8 {
		return fmt.Errorf("measure: truncated distinct state")
	}
	if uint64(len(rest)) != 8*k {
		return fmt.Errorf("measure: %d trailing bytes after distinct state", uint64(len(rest))-8*k)
	}
	a.n += int64(n)
	for i := uint64(0); i < k; i++ {
		a.seen[readFloat(rest[8*i:])] = true
	}
	return nil
}

// --- state codec helpers ---

func appendUvarint(buf []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return append(buf, tmp[:binary.PutUvarint(tmp[:], v)]...)
}

func appendFloat(buf []byte, v float64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v))
	return append(buf, tmp[:]...)
}

func readFloat(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("truncated varint")
	}
	return v, b[n:], nil
}

// readNFloat decodes a count followed by exactly k float64s.
func readNFloat(b []byte, k int) (int64, []float64, error) {
	n, rest, err := readUvarint(b)
	if err != nil {
		return 0, nil, err
	}
	if len(rest) != 8*k {
		return 0, nil, fmt.Errorf("%d bytes after the count, want %d", len(rest), 8*k)
	}
	vals := make([]float64, k)
	for i := 0; i < k; i++ {
		vals[i] = readFloat(rest[8*i:])
	}
	return int64(n), vals, nil
}

// --- flat partial states ---

// FlatKind says how a mergeable aggregate function uses a FlatState; the
// update is a switch on it rather than an Aggregator interface call.
type FlatKind uint8

const (
	FlatCount   FlatKind = iota // N
	FlatSum                     // N, A = sum
	FlatMin                     // N, A = minimum
	FlatMax                     // N, A = maximum
	FlatMoments                 // N, A = sum, B = sum of squares (avg, var, stddev)
)

// FlatKind returns the function's flat-state kind; ok is false for
// holistic functions, which have no constant-size partial state.
func (s Spec) FlatKind() (kind FlatKind, ok bool) {
	switch s.Func {
	case Count:
		return FlatCount, true
	case Sum:
		return FlatSum, true
	case Min:
		return FlatMin, true
	case Max:
		return FlatMax, true
	case Avg, Var, StdDev:
		return FlatMoments, true
	}
	return 0, false
}

// FlatState is the fixed-width partial state of one mergeable aggregate:
// what the matching Aggregator holds, without the pointer and the method
// table, so a combiner or an evaluator session can keep its states in one
// slab. The zero value is the empty state. Add, AppendState, MergeState
// and Result mirror the Aggregator's methods value for value and byte for
// byte — the reduce side must not be able to tell the two apart.
type FlatState struct {
	N    int64
	A, B float64
}

// Add absorbs one raw value.
func (s *FlatState) Add(kind FlatKind, v float64) {
	switch kind {
	case FlatSum:
		s.A += v
	case FlatMin:
		if s.N == 0 || v < s.A {
			s.A = v
		}
	case FlatMax:
		if s.N == 0 || v > s.A {
			s.A = v
		}
	case FlatMoments:
		s.A += v
		s.B += v * v
	}
	s.N++
}

// StateLen is the length of the bytes AppendState appends.
func (s *FlatState) StateLen(kind FlatKind) int {
	n := (bits.Len64(uint64(s.N)|1) + 6) / 7 // N's uvarint
	switch kind {
	case FlatCount:
		return n
	case FlatMoments:
		return n + 16
	}
	return n + 8
}

// AppendState appends the serialized partial aggregate: the bytes the
// function's Aggregator returns from State after the same Adds.
func (s *FlatState) AppendState(dst []byte, kind FlatKind) []byte {
	dst = binary.AppendUvarint(dst, uint64(s.N))
	if kind == FlatCount {
		return dst
	}
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.A))
	if kind == FlatMoments {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.B))
	}
	return dst
}

// Result finalizes the state as f's Aggregator would: 0 for an empty COUNT
// or SUM, NaN for any other empty state.
func (s *FlatState) Result(f Func) float64 {
	switch f {
	case Count:
		return float64(s.N)
	case Sum:
		return s.A
	}
	if s.N == 0 {
		return math.NaN()
	}
	if f == Min || f == Max {
		return s.A
	}
	mean := s.A / float64(s.N)
	if f == Avg {
		return mean
	}
	v := s.B/float64(s.N) - mean*mean
	if v < 0 { // numeric guard
		v = 0
	}
	if f == StdDev {
		return math.Sqrt(v)
	}
	return v
}

// MergeState absorbs the bytes AppendState wrote for the same kind, as the
// function's Aggregator.MergeState does. Bytes that are not exactly one
// such state are an error and leave s as it was.
func (s *FlatState) MergeState(kind FlatKind, state []byte) error {
	floats := 1
	switch kind {
	case FlatCount:
		floats = 0
	case FlatMoments:
		floats = 2
	}
	n, k := binary.Uvarint(state)
	if k <= 0 || len(state)-k != 8*floats {
		return fmt.Errorf("measure: bad flat state of %d bytes", len(state))
	}
	var a, b float64
	if floats > 0 {
		a = readFloat(state[k:])
	}
	if floats > 1 {
		b = readFloat(state[k+8:])
	}
	switch kind {
	case FlatSum:
		s.A += a
	case FlatMoments:
		s.A += a
		s.B += b
	case FlatMin, FlatMax:
		if n == 0 {
			return nil
		}
		if s.N == 0 || kind == FlatMin && a < s.A || kind == FlatMax && a > s.A {
			s.A = a
		}
	}
	s.N += int64(n)
	return nil
}
