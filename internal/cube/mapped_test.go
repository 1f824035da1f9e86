package cube

import (
	"math/rand"
	"testing"
)

// products: 8 SKUs grouped irregularly into 3 categories and 2 divisions.
func mappedAttr(t testing.TB) *Attribute {
	t.Helper()
	return MustMappedAttribute("product", 8,
		MappedLevel{Name: "category", Assign: []int64{0, 0, 0, 1, 1, 2, 2, 2}},
		MappedLevel{Name: "division", Assign: []int64{0, 0, 0, 0, 0, 1, 1, 1}},
	)
}

func TestMappedAttributeBasics(t *testing.T) {
	a := mappedAttr(t)
	if !a.Mapped() || a.Kind() != Nominal || a.Card() != 8 {
		t.Fatalf("attr = %v", a)
	}
	if got := a.NumLevels(); got != 4 { // value, category, division, ALL
		t.Fatalf("levels = %d", got)
	}
	cat, _ := a.LevelIndex("category")
	div, _ := a.LevelIndex("division")
	if a.CardAt(cat) != 3 || a.CardAt(div) != 2 || a.CardAt(0) != 8 || a.CardAt(a.AllIndex()) != 1 {
		t.Errorf("cards: %d %d %d %d", a.CardAt(0), a.CardAt(cat), a.CardAt(div), a.CardAt(a.AllIndex()))
	}
	cases := []struct {
		v, cat, div int64
	}{
		{0, 0, 0}, {2, 0, 0}, {3, 1, 0}, {4, 1, 0}, {5, 2, 1}, {7, 2, 1},
	}
	for _, c := range cases {
		if got := a.Roll(c.v, cat); got != c.cat {
			t.Errorf("Roll(%d, category) = %d, want %d", c.v, got, c.cat)
		}
		if got := a.Roll(c.v, div); got != c.div {
			t.Errorf("Roll(%d, division) = %d, want %d", c.v, got, c.div)
		}
		if got := a.Roll(c.v, a.AllIndex()); got != 0 {
			t.Errorf("Roll(%d, ALL) = %d", c.v, got)
		}
	}
	// RollBetween composes consistently with Roll.
	for v := int64(0); v < 8; v++ {
		for from := 0; from < a.NumLevels(); from++ {
			cf := a.Roll(v, from)
			for to := from; to < a.NumLevels(); to++ {
				if got, want := a.RollBetween(cf, from, to), a.Roll(v, to); got != want {
					t.Fatalf("RollBetween(%d, %d->%d) = %d, want %d", cf, from, to, got, want)
				}
			}
		}
	}
}

func TestMappedAttributeValidation(t *testing.T) {
	if _, err := NewMappedAttribute("", 4); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewMappedAttribute("a", 0); err == nil {
		t.Error("zero card accepted")
	}
	if _, err := NewMappedAttribute("a", 4, MappedLevel{Name: "ALL", Assign: []int64{0, 0, 0, 0}}); err == nil {
		t.Error("reserved level name accepted")
	}
	if _, err := NewMappedAttribute("a", 4, MappedLevel{Name: "g", Assign: []int64{0, 0}}); err == nil {
		t.Error("short assign table accepted")
	}
	if _, err := NewMappedAttribute("a", 4, MappedLevel{Name: "g", Assign: []int64{0, -1, 0, 0}}); err == nil {
		t.Error("negative coordinate accepted")
	}
	// A coarser level that splits a finer group is not a hierarchy.
	if _, err := NewMappedAttribute("a", 4,
		MappedLevel{Name: "g", Assign: []int64{0, 0, 1, 1}},
		MappedLevel{Name: "h", Assign: []int64{0, 1, 0, 0}}, // splits group 0
	); err == nil {
		t.Error("non-coarsening level accepted")
	}
	if _, err := NewMappedAttribute("a", 4,
		MappedLevel{Name: "g", Assign: []int64{0, 0, 1, 1}},
		MappedLevel{Name: "g", Assign: []int64{0, 0, 0, 0}},
	); err == nil {
		t.Error("duplicate level name accepted")
	}
}

func TestMappedSpanOperationsPanic(t *testing.T) {
	a := mappedAttr(t)
	for _, f := range []func(){
		func() { a.SpanBetween(0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("span operation on mapped attribute did not panic")
				}
			}()
			f()
		}()
	}
}

func TestMappedAttributeInSchema(t *testing.T) {
	// Mapped attributes must work through the schema-level operations the
	// engine uses: regions, containment, grain counting.
	s := MustSchema(mappedAttr(t), TimeAttribute("t", 2))
	g := s.MustGrain(GrainSpec{Attr: "product", Level: "category"}, GrainSpec{Attr: "t", Level: "hour"})
	if got := s.NumRegions(g); got != 3*48 {
		t.Errorf("regions = %d, want 144", got)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		rec := Record{rng.Int63n(8), rng.Int63n(2 * 86400)}
		r := s.RegionOf(rec, g)
		if !s.Contains(r, rec) {
			t.Fatal("region does not contain its record")
		}
		parent := s.ParentRegion(r, s.MustGrain(GrainSpec{Attr: "product", Level: "division"}))
		if !s.ContainsRegion(parent, r) {
			t.Fatal("parent does not contain child")
		}
	}
}
