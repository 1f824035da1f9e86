package localeval

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/measure"
	"github.com/casm-project/casm/internal/workflow"
)

// mappedSchema is testSchema's shape with a mapped hierarchy for k (12
// words into 4 categories into 2 families) and a fourth attribute, w, whose
// finest level spans 2⁶² values.
func mappedSchema(t testing.TB) *cube.Schema {
	t.Helper()
	cat, fam := make([]int64, 12), make([]int64, 12)
	for v := range cat {
		cat[v], fam[v] = int64(v/3), int64(v/6)
	}
	return cube.MustSchema(
		cube.MustMappedAttribute("k", 12, cube.MappedLevel{Name: "cat", Assign: cat}, cube.MappedLevel{Name: "fam", Assign: fam}),
		cube.MustAttribute("v", cube.Numeric, 1000, cube.Level{Name: "value", Span: 1}),
		cube.TimeAttribute("t", 2),
		cube.MustAttribute("w", cube.Numeric, 1<<62, cube.Level{Name: "value", Span: 1}, cube.Level{Name: "block", Span: 1 << 56}),
	)
}

// boxBlock draws n records over s: clustered ones in a narrow slice of
// each attribute's domain, where boxes are small, else spread over it.
func boxBlock(rng *rand.Rand, s *cube.Schema, n int, clustered bool) []cube.Record {
	lo, width := make([]int64, s.NumAttrs()), make([]int64, s.NumAttrs())
	for a := range lo {
		card := s.Attr(a).CardAt(0)
		if width[a] = card; clustered {
			width[a] = min(card, max(2, min(card/16, 4096)))
		}
		lo[a] = rng.Int63n(card - width[a] + 1)
	}
	out := make([]cube.Record, n)
	for i := range out {
		out[i] = make(cube.Record, s.NumAttrs())
		for a := range out[i] {
			out[i][a] = lo[a] + rng.Int63n(width[a])
		}
	}
	return out
}

// boxedGrains counts the grains whose regions the session's last block
// found through the box.
func boxedGrains(ss *Session) int {
	n := 0
	for _, x := range ss.idx {
		if x.box {
			n++
		}
	}
	return n
}

// evalPath evaluates records in ss with scan forced onto one index path.
func evalPath(t *testing.T, ss *Session, path int, records []cube.Record) ([]Result, Stats) {
	t.Helper()
	forceIndex = path
	defer func() { forceIndex = indexAuto }()
	for _, r := range records {
		ss.AppendRecord(r)
	}
	got, stats, err := ss.EvaluateBlock(Options{})
	if err != nil {
		t.Fatal(err)
	}
	return got, stats
}

// TestBoxAndHashIndexAgree is the box ordinals' equivalence property:
// random workflows over a plain and a mapped schema, on blocks of one row,
// of fewer rows than boxMinRows and of hundreds, clustered and spread,
// give byte-identical results and equal Stats whether every grain is
// hashed, boxed whenever its box fits, or left to the rule, and match the
// reference evaluator. Each evaluator's session is the spare the previous
// one released, though arity and grain count change between them.
func TestBoxAndHashIndexAgree(t *testing.T) {
	schemas := []*cube.Schema{testSchema(t), mappedSchema(t)}
	var prev *Session
	boxed := map[int]int{}
	for seed := range 24 {
		rng := rand.New(rand.NewSource(int64(7000 + seed)))
		s := schemas[seed%2]
		e, err := New(randomLocalWorkflow(t, s, rng))
		if err != nil {
			t.Fatal(err)
		}
		ss := e.NewSession()
		if prev != nil && ss != prev {
			t.Fatal("NewSession did not take the released spare")
		}
		sizes := []int{1, 2 + rng.Intn(boxMinRows-2), 50 + rng.Intn(200), 600 + rng.Intn(900)}
		for blk, n := range sizes {
			for _, clustered := range []bool{true, false} {
				records := boxBlock(rng, s, n, clustered)
				want, _ := refEvaluate(t, e, cloneRecords(records))
				hashed, hashStats := evalPath(t, ss, indexHash, records)
				sameResults(t, fmt.Sprintf("seed %d block %d hashed", seed, blk), want, hashed)
				for _, path := range []int{indexBox, indexAuto} {
					label := fmt.Sprintf("seed %d block %d (%d rows, clustered %v) path %d", seed, blk, n, clustered, path)
					got, stats := evalPath(t, ss, path, records)
					sameResults(t, label, want, got)
					if stats != hashStats {
						t.Fatalf("%s: stats %+v, hashed %+v", label, stats, hashStats)
					}
					boxed[path] += boxedGrains(ss)
				}
			}
		}
		ss.Release()
		prev = ss
	}
	if boxed[indexBox] == 0 || boxed[indexAuto] == 0 {
		t.Errorf("grains boxed: %d forced, %d by the rule; want both paths taken", boxed[indexBox], boxed[indexAuto])
	}
}

// TestBoxWindowProbesPastItsEdge: a sliding window over minutes whose
// block covers minutes 100–110 (11 regions of two rows) probes minutes
// 97–113; the probes outside the box find nothing, as the hash table's do.
func TestBoxWindowProbesPastItsEdge(t *testing.T) {
	s := testSchema(t)
	w := workflow.New(s)
	g := s.MustGrain(cube.GrainSpec{Attr: "k", Level: "word"}, cube.GrainSpec{Attr: "t", Level: "minute"})
	ti, _ := s.AttrIndex("t")
	if err := w.AddBasic("perMin", g, measure.Spec{Func: measure.Sum}, "v"); err != nil {
		t.Fatal(err)
	}
	if err := w.AddSliding("mov", g, measure.Spec{Func: measure.Sum}, "perMin",
		workflow.RangeAnn{Attr: ti, Low: -3, High: 3}); err != nil {
		t.Fatal(err)
	}
	e, err := New(w)
	if err != nil {
		t.Fatal(err)
	}
	var records []cube.Record
	for m := int64(100); m <= 110; m++ {
		records = append(records, rec(m%2, m, m*60), rec(m%2, 2*m, m*60+30))
	}
	want, _ := refEvaluate(t, e, cloneRecords(records))
	ss := e.NewSession()
	defer ss.Release()
	hashed, hashStats := evalPath(t, ss, indexHash, records)
	got, stats := evalPath(t, ss, indexAuto, records)
	if boxedGrains(ss) != 1 {
		t.Fatalf("%d grains boxed, want the one", boxedGrains(ss))
	}
	sameResults(t, "hashed", want, hashed)
	sameResults(t, "boxed", want, got)
	if stats != hashStats || stats.WindowLookups != 11*7 {
		t.Errorf("stats %+v, hashed %+v; want %d window lookups", stats, hashStats, 11*7)
	}
}

// TestBoxOutgrowsItsLimit: extents whose box is too large, whose volume
// overflows 64 bits, or whose width does — raw values past the domain,
// read as negative — take the hash table even when a test forces the
// box, and never panic.
func TestBoxOutgrowsItsLimit(t *testing.T) {
	ms := mappedSchema(t)
	wide := workflow.New(ms)
	if err := wide.AddBasic("n", ms.MustGrain(cube.GrainSpec{Attr: "t", Level: "second"}, cube.GrainSpec{Attr: "w", Level: "value"}),
		measure.Spec{Func: measure.Count}, ""); err != nil {
		t.Fatal(err)
	}
	e, err := New(wide)
	if err != nil {
		t.Fatal(err)
	}
	ss := e.NewSession()
	records := []cube.Record{{0, 0, 0, 0}, {1, 1, 2*86400 - 1, 1<<62 - 1}, {2, 2, 5, 1 << 61}}
	want, _ := refEvaluate(t, e, cloneRecords(records))
	got, _ := evalPath(t, ss, indexBox, records)
	if boxedGrains(ss) != 0 {
		t.Error("a box of 2⁷⁹ cells was used")
	}
	sameResults(t, "overflowing volume", want, got)
	ss.Release()

	s := testSchema(t)
	w := workflow.New(s)
	if err := w.AddBasic("n", s.MustGrain(cube.GrainSpec{Attr: "v", Level: "value"}), measure.Spec{Func: measure.Count}, ""); err != nil {
		t.Fatal(err)
	}
	if e, err = New(w); err != nil {
		t.Fatal(err)
	}
	lay, err := e.Layout(e.Columns())
	if err != nil {
		t.Fatal(err)
	}
	var results [2][]string
	for i, path := range []int{indexHash, indexBox} {
		ss := e.NewSession()
		for _, v := range []uint64{1<<63 - 1, 1 << 63, 7} {
			if err := ss.AppendRaw(binary.AppendUvarint(nil, v), lay); err != nil {
				t.Fatal(err)
			}
		}
		forceIndex = path
		out, _, err := ss.EvaluateBlock(Options{})
		forceIndex = indexAuto
		if err != nil {
			t.Fatal(err)
		}
		if path == indexBox && boxedGrains(ss) != 0 {
			t.Error("a box 2⁶⁴ wide was used")
		}
		for _, r := range out {
			results[i] = append(results[i], fmt.Sprint(r))
		}
		ss.Release()
	}
	if fmt.Sprint(results[0]) != fmt.Sprint(results[1]) {
		t.Errorf("wrapped extents: hashed %v, forced box %v", results[0], results[1])
	}
}
