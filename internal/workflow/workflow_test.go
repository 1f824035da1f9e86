package workflow

import (
	"strings"
	"testing"

	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/measure"
)

// weblogSchema mirrors the paper's motivating example: (Keyword, PageCount,
// AdCount, Time) with the domains of Table I, scaled down.
func weblogSchema(t testing.TB) *cube.Schema {
	t.Helper()
	return cube.MustSchema(
		cube.MustAttribute("keyword", cube.Nominal, 1000,
			cube.Level{Name: "word", Span: 1},
			cube.Level{Name: "group", Span: 50},
		),
		cube.MustAttribute("pagecount", cube.Numeric, 201,
			cube.Level{Name: "value", Span: 1},
			cube.Level{Name: "level", Span: 67},
		),
		cube.MustAttribute("adcount", cube.Numeric, 201,
			cube.Level{Name: "value", Span: 1},
			cube.Level{Name: "level", Span: 67},
		),
		cube.TimeAttribute("time", 2),
	)
}

// weblogWorkflow builds the paper's M1–M4 query (Section I / Figure 1).
func weblogWorkflow(t testing.TB) *Workflow {
	t.Helper()
	s := weblogSchema(t)
	w := New(s)
	kwMinute := s.MustGrain(cube.GrainSpec{Attr: "keyword", Level: "word"}, cube.GrainSpec{Attr: "time", Level: "minute"})
	kwHour := s.MustGrain(cube.GrainSpec{Attr: "keyword", Level: "word"}, cube.GrainSpec{Attr: "time", Level: "hour"})
	ti, _ := s.AttrIndex("time")

	if err := w.AddBasic("M1", kwMinute, measure.Spec{Func: measure.Median}, "pagecount"); err != nil {
		t.Fatal(err)
	}
	if err := w.AddBasic("M2", kwHour, measure.Spec{Func: measure.Median}, "adcount"); err != nil {
		t.Fatal(err)
	}
	if err := w.AddSelf("M3", kwMinute, measure.Ratio(), "M1", "M2"); err != nil {
		t.Fatal(err)
	}
	if err := w.AddSliding("M4", kwMinute, measure.Spec{Func: measure.Avg}, "M3",
		RangeAnn{Attr: ti, Low: -9, High: 0}); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWeblogWorkflow(t *testing.T) {
	w := weblogWorkflow(t)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	order, err := w.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 4 {
		t.Fatalf("got %d measures", len(order))
	}
	if !w.HasSibling() {
		t.Error("M4 is a sibling measure")
	}
	if got := len(w.Basics()); got != 2 {
		t.Errorf("basics = %d, want 2", got)
	}
	m4, ok := w.Measure("M4")
	if !ok || m4.Kind != Sliding {
		t.Fatalf("M4 lookup failed: %v %v", m4, ok)
	}
	exp := w.Explain()
	for _, want := range []string{"M1", "median(pagecount)", "sibling", "avg(M3) over {time(-9,0)}", "ratio(M1, M2)"} {
		if !strings.Contains(exp, want) {
			t.Errorf("Explain missing %q:\n%s", want, exp)
		}
	}
}

func TestAddBasicValidation(t *testing.T) {
	s := weblogSchema(t)
	w := New(s)
	g := s.GrainAll()
	if err := w.AddBasic("", g, measure.Spec{Func: measure.Count}, ""); err == nil {
		t.Error("empty name accepted")
	}
	if err := w.AddBasic("m", g, measure.Spec{Func: "bogus"}, ""); err == nil {
		t.Error("bad agg accepted")
	}
	if err := w.AddBasic("m", g, measure.Spec{Func: measure.Sum}, ""); err == nil {
		t.Error("sum without input attribute accepted")
	}
	if err := w.AddBasic("m", g, measure.Spec{Func: measure.Sum}, "nope"); err == nil {
		t.Error("unknown input attribute accepted")
	}
	if err := w.AddBasic("m", cube.Grain{0}, measure.Spec{Func: measure.Count}, ""); err == nil {
		t.Error("wrong grain arity accepted")
	}
	if err := w.AddBasic("m", cube.Grain{9, 9, 9, 9}, measure.Spec{Func: measure.Count}, ""); err == nil {
		t.Error("invalid level accepted")
	}
	if err := w.AddBasic("m", g, measure.Spec{Func: measure.Count}, ""); err != nil {
		t.Errorf("valid basic rejected: %v", err)
	}
	if err := w.AddBasic("m", g, measure.Spec{Func: measure.Count}, ""); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestAddSelfValidation(t *testing.T) {
	s := weblogSchema(t)
	w := New(s)
	fine := s.MustGrain(cube.GrainSpec{Attr: "time", Level: "minute"})
	coarse := s.MustGrain(cube.GrainSpec{Attr: "time", Level: "hour"})
	if err := w.AddBasic("fine", fine, measure.Spec{Func: measure.Count}, ""); err != nil {
		t.Fatal(err)
	}
	if err := w.AddBasic("coarse", coarse, measure.Spec{Func: measure.Count}, ""); err != nil {
		t.Fatal(err)
	}
	if err := w.AddSelf("bad1", fine, nil, "fine"); err == nil {
		t.Error("nil expr accepted")
	}
	if err := w.AddSelf("bad2", fine, measure.Ratio()); err == nil {
		t.Error("no sources accepted")
	}
	if err := w.AddSelf("bad3", fine, measure.Ratio(), "fine"); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := w.AddSelf("bad4", fine, measure.Ident(), "nope"); err == nil {
		t.Error("unknown source accepted")
	}
	// Source strictly finer than the measure: invalid for self (that
	// derivation is a rollup, not a same-region lookup).
	if err := w.AddSelf("bad5", coarse, measure.Ident(), "fine"); err == nil {
		t.Error("self with strictly finer source accepted")
	}
	// Failed add must not leave the measure behind.
	if _, ok := w.Measure("bad5"); ok {
		t.Error("failed add left measure in workflow")
	}
	if err := w.AddSelf("ok", fine, measure.Ratio(), "fine", "coarse"); err != nil {
		t.Errorf("valid self rejected: %v", err)
	}
}

func TestAddRollupValidation(t *testing.T) {
	s := weblogSchema(t)
	w := New(s)
	fine := s.MustGrain(cube.GrainSpec{Attr: "time", Level: "minute"})
	coarse := s.MustGrain(cube.GrainSpec{Attr: "time", Level: "hour"})
	if err := w.AddBasic("b", fine, measure.Spec{Func: measure.Count}, ""); err != nil {
		t.Fatal(err)
	}
	if err := w.AddRollup("bad1", fine, measure.Spec{Func: measure.Sum}, "b"); err == nil {
		t.Error("same-grain rollup accepted")
	}
	other := s.MustGrain(cube.GrainSpec{Attr: "keyword", Level: "word"})
	if err := w.AddRollup("bad2", other, measure.Spec{Func: measure.Sum}, "b"); err == nil {
		t.Error("non-generalizing rollup accepted")
	}
	if err := w.AddRollup("ok", coarse, measure.Spec{Func: measure.Sum}, "b"); err != nil {
		t.Errorf("valid rollup rejected: %v", err)
	}
}

func TestAddInheritValidation(t *testing.T) {
	s := weblogSchema(t)
	w := New(s)
	fine := s.MustGrain(cube.GrainSpec{Attr: "time", Level: "minute"})
	coarse := s.MustGrain(cube.GrainSpec{Attr: "time", Level: "hour"})
	if err := w.AddBasic("b", coarse, measure.Spec{Func: measure.Count}, ""); err != nil {
		t.Fatal(err)
	}
	if err := w.AddInherit("bad1", coarse, "b"); err == nil {
		t.Error("same-grain inherit accepted")
	}
	if err := w.AddInherit("ok", fine, "b"); err != nil {
		t.Errorf("valid inherit rejected: %v", err)
	}
	m, _ := w.Measure("ok")
	if m.Kind != Inherit {
		t.Errorf("kind = %v", m.Kind)
	}
}

func TestAddSlidingValidation(t *testing.T) {
	s := weblogSchema(t)
	w := New(s)
	kwMinute := s.MustGrain(cube.GrainSpec{Attr: "keyword", Level: "word"}, cube.GrainSpec{Attr: "time", Level: "minute"})
	ti, _ := s.AttrIndex("time")
	ki, _ := s.AttrIndex("keyword")
	if err := w.AddBasic("b", kwMinute, measure.Spec{Func: measure.Count}, ""); err != nil {
		t.Fatal(err)
	}
	sum := measure.Spec{Func: measure.Sum}
	if err := w.AddSliding("bad1", kwMinute, sum, "b"); err == nil {
		t.Error("no annotations accepted")
	}
	if err := w.AddSliding("bad2", kwMinute, sum, "b", RangeAnn{Attr: ki, Low: 0, High: 1}); err == nil {
		t.Error("nominal annotation accepted")
	}
	if err := w.AddSliding("bad3", kwMinute, sum, "b", RangeAnn{Attr: ti, Low: 2, High: 1}); err == nil {
		t.Error("low > high accepted")
	}
	if err := w.AddSliding("bad4", kwMinute, sum, "b", RangeAnn{Attr: 99, Low: 0, High: 1}); err == nil {
		t.Error("attr out of range accepted")
	}
	pc, _ := s.AttrIndex("pagecount")
	if err := w.AddSliding("bad5", kwMinute, sum, "b", RangeAnn{Attr: pc, Low: 0, High: 1}); err == nil {
		t.Error("annotation on ALL-grain attribute accepted")
	}
	if err := w.AddSliding("bad6", kwMinute, sum, "b",
		RangeAnn{Attr: ti, Low: 0, High: 1}, RangeAnn{Attr: ti, Low: 0, High: 2}); err == nil {
		t.Error("duplicate annotation accepted")
	}
	// Grain mismatch with source.
	kwHour := s.MustGrain(cube.GrainSpec{Attr: "keyword", Level: "word"}, cube.GrainSpec{Attr: "time", Level: "hour"})
	if err := w.AddSliding("bad7", kwHour, sum, "b", RangeAnn{Attr: ti, Low: 0, High: 1}); err == nil {
		t.Error("grain mismatch accepted")
	}
	if err := w.AddSliding("ok", kwMinute, sum, "b", RangeAnn{Attr: ti, Low: -4, High: 0}); err != nil {
		t.Errorf("valid sliding rejected: %v", err)
	}
}

func TestValidateEmpty(t *testing.T) {
	w := New(weblogSchema(t))
	if err := w.Validate(); err == nil {
		t.Error("empty workflow validated")
	}
}

func TestFailedAddKeepsIndicesConsistent(t *testing.T) {
	s := weblogSchema(t)
	w := New(s)
	fine := s.MustGrain(cube.GrainSpec{Attr: "time", Level: "minute"})
	coarse := s.MustGrain(cube.GrainSpec{Attr: "time", Level: "hour"})
	if err := w.AddBasic("a", fine, measure.Spec{Func: measure.Count}, ""); err != nil {
		t.Fatal(err)
	}
	// This add fails post-insert (grain equality check) and must be rolled back.
	if err := w.AddRollup("mid", fine, measure.Spec{Func: measure.Sum}, "a"); err == nil {
		t.Fatal("expected failure")
	}
	if err := w.AddRollup("c", coarse, measure.Spec{Func: measure.Sum}, "a"); err != nil {
		t.Fatal(err)
	}
	m, ok := w.Measure("c")
	if !ok || m.Name != "c" {
		t.Fatalf("index corruption after rollback: %v %v", m, ok)
	}
	if _, err := w.TopoOrder(); err != nil {
		t.Fatal(err)
	}
}
