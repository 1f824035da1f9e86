package localeval

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/measure"
	"github.com/casm-project/casm/internal/workflow"
)

// narrowEvaluator reads two of the test schema's three attributes: hourly
// sums of v, and a record count at the ALL grain that reads nothing.
func narrowEvaluator(tb testing.TB) *Evaluator {
	tb.Helper()
	s := testSchema(tb)
	w := workflow.New(s)
	if err := w.AddBasic("hourly", s.MustGrain(cube.GrainSpec{Attr: "t", Level: "hour"}), measure.Spec{Func: measure.Sum}, "v"); err != nil {
		tb.Fatal(err)
	}
	if err := w.AddBasic("n", s.GrainAll(), measure.Spec{Func: measure.Count}, ""); err != nil {
		tb.Fatal(err)
	}
	e, err := New(w)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// allAttrs lists the attributes a full record value holds.
func allAttrs(e *Evaluator) []int {
	attrs := make([]int, e.arity)
	for i := range attrs {
		attrs[i] = i
	}
	return attrs
}

// encodeAttrs is a record value holding the given attributes, in order.
func encodeAttrs(rec cube.Record, attrs []int) []byte {
	var b []byte
	for _, a := range attrs {
		b = binary.AppendUvarint(b, uint64(rec[a]))
	}
	return b
}

// valueLoaders returns the three ways a record reaches a session's arena:
// decoded, as a full value, and as a value projected to the read columns.
func valueLoaders(t *testing.T, e *Evaluator) [3]func(*Session, cube.Record) {
	t.Helper()
	raw := func(attrs []int, lay Layout) func(*Session, cube.Record) {
		return func(ss *Session, rec cube.Record) {
			if err := ss.AppendRaw(encodeAttrs(rec, attrs), lay); err != nil {
				t.Fatal(err)
			}
		}
	}
	projected, err := e.Layout(e.Columns())
	if err != nil {
		t.Fatal(err)
	}
	return [3]func(*Session, cube.Record){
		func(ss *Session, rec cube.Record) { ss.AppendRecord(rec) },
		raw(allAttrs(e), e.FullLayout()),
		raw(e.Columns(), projected),
	}
}

// TestLayoutNeedsEveryReadColumn: a value that lacks a column the
// evaluator reads has no layout.
func TestLayoutNeedsEveryReadColumn(t *testing.T) {
	e := narrowEvaluator(t)
	cols := e.Columns()
	if !slices.Equal(cols, []int{1, 2}) {
		t.Fatalf("hourly sums of v read columns %v, want v and t", cols)
	}
	if _, err := e.Layout(cols[1:]); err == nil {
		t.Errorf("a value without column %d got a layout", cols[0])
	}
	lay, err := e.Layout(allAttrs(e))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(lay, e.FullLayout()) {
		t.Errorf("FullLayout %v is not the layout of all attributes %v", e.FullLayout(), lay)
	}
	for a, col := range lay {
		if want := slices.Index(cols, a); col != want {
			t.Errorf("full layout sends attribute %d to column %d, want %d", a, col, want)
		}
	}
}

// TestArenaLoadsWithoutRegrowth: a task that knows its largest group
// reserves once, and loading every group after that — in either layout,
// evaluations in between — allocates nothing for the arena: one data
// array and one row index per task.
func TestArenaLoadsWithoutRegrowth(t *testing.T) {
	e := narrowEvaluator(t)
	rng := rand.New(rand.NewSource(3))
	const maxGroup = 5000
	sizes := []int{40, maxGroup, 1, 3000, maxGroup, 700}
	var values [2][][]byte
	var lays [2]Layout
	for i, attrs := range [][]int{allAttrs(e), e.Columns()} {
		var err error
		if lays[i], err = e.Layout(attrs); err != nil {
			t.Fatal(err)
		}
		for n := 0; n < maxGroup; n++ {
			values[i] = append(values[i], encodeAttrs(rec(rng.Int63n(10), rng.Int63n(1000), rng.Int63n(86400)), attrs))
		}
	}
	ss := e.NewSession()
	if got := testing.AllocsPerRun(1, func() { ss.Reserve(maxGroup) }); got > 2 {
		t.Errorf("reserving allocated %.0f times, want the data array and the row index", got)
	}
	data, rows := &ss.data[:1][0], &ss.rows[:1][0]
	for i, n := range sizes {
		ss.Reserve(maxGroup)
		if got := testing.AllocsPerRun(1, func() {
			ss.data, ss.rows = ss.data[:0], ss.rows[:0] // AllocsPerRun runs this twice
			for _, v := range values[i%2][:n] {
				if err := ss.AppendRaw(v, lays[i%2]); err != nil {
					t.Fatal(err)
				}
			}
		}); got != 0 {
			t.Errorf("group %d: loading %d records allocated %.0f times", i, n, got)
		}
		if len(ss.rows) != n {
			t.Fatalf("group %d: %d rows loaded, want %d", i, len(ss.rows), n)
		}
		if _, _, err := ss.EvaluateBlock(Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if &ss.data[:1][0] != data || &ss.rows[:1][0] != rows {
		t.Error("the arena moved after it was reserved")
	}
}

// FuzzArenaLoad throws arbitrary bytes at the reducer's value decoder in
// both layouts. It must not panic; a value is either loaded — then it is
// exactly the canonical encoding's length or an over-long varint form of
// it, and the arena holds what a reference decode reads — or refused with
// ErrCorruptValue, the arena left at its previous length; truncated and
// trailing bytes are always refused.
func FuzzArenaLoad(f *testing.F) {
	e := narrowEvaluator(f)
	layouts := [][]int{allAttrs(e), e.Columns()}
	r := rec(7, 300, 86399)
	for _, attrs := range layouts {
		v := encodeAttrs(r, attrs)
		f.Add(v, false)
		f.Add(v, true)
		f.Add(v[:len(v)-1], false)
		f.Add(append(slices.Clone(v), 0), true)
	}
	f.Add([]byte{}, true)
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, false) // varint overflow

	f.Fuzz(func(t *testing.T, payload []byte, projected bool) {
		attrs := layouts[0]
		if projected {
			attrs = layouts[1]
		}
		lay, err := e.Layout(attrs)
		if err != nil {
			t.Fatal(err)
		}
		ss := e.NewSession()
		ss.AppendRecord(r) // something to leave alone
		before := slices.Clone(ss.data)

		// Reference decode: exactly len(attrs) uvarints and nothing else.
		want, rest, ok := make(cube.Record, e.arity), payload, true
		for _, a := range attrs {
			v, k := binary.Uvarint(rest)
			if k <= 0 {
				ok = false
				break
			}
			want[a], rest = int64(v), rest[k:]
		}
		ok = ok && len(rest) == 0

		err = ss.AppendRaw(payload, lay)
		if !ok {
			if !errors.Is(err, ErrCorruptValue) {
				t.Fatalf("malformed value %x: error %v, want ErrCorruptValue", payload, err)
			}
			if !slices.Equal(ss.data, before) || len(ss.rows) != 1 {
				t.Fatalf("failed load changed the arena: %v, was %v (%d rows)", ss.data, before, len(ss.rows))
			}
			return
		}
		if err != nil {
			t.Fatalf("well-formed value %x refused: %v", payload, err)
		}
		got := ss.data[len(before):]
		if len(ss.rows) != 2 || len(got) != len(e.cols) {
			t.Fatalf("loaded %d rows, %d values; want 2 rows of %d", len(ss.rows), len(got), len(e.cols))
		}
		for j, c := range e.cols {
			if got[j] != want[c] {
				t.Fatalf("column %d (attribute %d) = %d, want %d", j, c, got[j], want[c])
			}
		}
	})
}

// TestWorkflowThatReadsNothing: COUNT at the ALL grain reads no attribute,
// so its arena has no columns and a projected value no bytes — and the
// records are still counted, however they arrive.
func TestWorkflowThatReadsNothing(t *testing.T) {
	s := testSchema(t)
	w := workflow.New(s)
	if err := w.AddBasic("n", s.GrainAll(), measure.Spec{Func: measure.Count}, ""); err != nil {
		t.Fatal(err)
	}
	e, err := New(w)
	if err != nil {
		t.Fatal(err)
	}
	if cols := e.Columns(); len(cols) != 0 {
		t.Fatalf("COUNT at ALL reads columns %v", cols)
	}
	ss := e.NewSession()
	for i, load := range valueLoaders(t, e) {
		ss.Reserve(7)
		for n := 0; n < 7; n++ {
			load(ss, rec(int64(n), 5, 60))
		}
		res, stats, err := ss.EvaluateBlock(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].Value != 7 || stats.ScannedRecords != 7 {
			t.Errorf("loader %d: results %+v over %d scanned records, want one count of 7", i, res, stats.ScannedRecords)
		}
	}
}
