package cube

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// testSchema mirrors the paper's experimental schema: four integer
// attributes in [0,256) with a 4-level hierarchy, and two temporal
// attributes spanning twenty days at second resolution.
func testSchema(t testing.TB) *Schema {
	t.Helper()
	mk := func(name string) *Attribute {
		return MustAttribute(name, Numeric, 256,
			Level{Name: "value", Span: 1},
			Level{Name: "low", Span: 4},
			Level{Name: "mid", Span: 4},
			Level{Name: "high", Span: 4},
		)
	}
	return MustSchema(
		mk("a1"), mk("a2"), mk("a3"), mk("a4"),
		TimeAttribute("t1", 20),
		TimeAttribute("t2", 20),
	)
}

func TestNewAttributeValidation(t *testing.T) {
	cases := []struct {
		name   string
		card   int64
		levels []Level
	}{
		{"", 10, []Level{{Name: "v", Span: 1}}},
		{"a", 0, []Level{{Name: "v", Span: 1}}},
		{"a", 10, nil},
		{"a", 10, []Level{{Name: "v", Span: 2}}},                       // finest span != 1
		{"a", 10, []Level{{Name: "v", Span: 1}, {Name: "g", Span: 1}}}, // span < 2
		{"a", 10, []Level{{Name: "v", Span: 1}, {Name: "v", Span: 2}}}, // dup level
		{"a", 10, []Level{{Name: "ALL", Span: 1}}},                     // reserved name
		{"a", 3, []Level{{Name: "v", Span: 1}, {Name: "g", Span: 5}}},  // spans exceed card
	}
	for i, c := range cases {
		if _, err := NewAttribute(c.name, Numeric, c.card, c.levels...); err == nil {
			t.Errorf("case %d: expected error, got nil", i)
		}
	}
	if _, err := NewAttribute("ok", Numeric, 100,
		Level{Name: "v", Span: 1}, Level{Name: "ten", Span: 10}); err != nil {
		t.Errorf("valid attribute rejected: %v", err)
	}
}

func TestTimeAttributeHierarchy(t *testing.T) {
	a := TimeAttribute("t", 20)
	if a.Card() != 20*86400 {
		t.Fatalf("card = %d", a.Card())
	}
	day, ok := a.LevelIndex("day")
	if !ok {
		t.Fatal("no day level")
	}
	if got := a.CardAt(day); got != 20 {
		t.Errorf("days = %d, want 20", got)
	}
	minute, _ := a.LevelIndex("minute")
	if got := a.Roll(3*86400+125, minute); got != (3*86400+125)/60 {
		t.Errorf("minute roll = %d", got)
	}
	if got := a.SpanBetween(minute, day); got != 1440 {
		t.Errorf("minutes per day = %d, want 1440", got)
	}
	all := a.AllIndex()
	if got := a.Roll(12345, all); got != 0 {
		t.Errorf("ALL roll = %d, want 0", got)
	}
	if got := a.CardAt(all); got != 1 {
		t.Errorf("ALL card = %d, want 1", got)
	}
	if got := a.SpanBetween(day, all); got != 20 {
		t.Errorf("days per ALL = %d, want 20", got)
	}
}

func TestRollConsistency(t *testing.T) {
	// Rolling finest→coarse directly must equal finest→mid→coarse.
	a := MustAttribute("x", Numeric, 4096,
		Level{Name: "v", Span: 1},
		Level{Name: "l1", Span: 8},
		Level{Name: "l2", Span: 4},
		Level{Name: "l3", Span: 16},
	)
	f := func(raw int64) bool {
		v := raw % a.Card()
		if v < 0 {
			v = -v
		}
		for from := 0; from < a.NumLevels(); from++ {
			cf := a.Roll(v, from)
			for to := from; to < a.NumLevels(); to++ {
				if a.RollBetween(cf, from, to) != a.Roll(v, to) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSchemaValidate(t *testing.T) {
	s := testSchema(t)
	good := Record{1, 2, 3, 4, 100, 200}
	if err := s.Validate(good); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
	if err := s.Validate(Record{1, 2, 3}); err == nil {
		t.Error("wrong arity accepted")
	}
	bad := Record{1, 2, 3, 999, 100, 200}
	if err := s.Validate(bad); err == nil {
		t.Error("out-of-domain value accepted")
	}
	if err := s.Validate(Record{1, 2, 3, -1, 100, 200}); err == nil {
		t.Error("negative value accepted")
	}
}

func TestMakeGrainAndFormat(t *testing.T) {
	s := testSchema(t)
	g, err := s.MakeGrain(GrainSpec{"a1", "low"}, GrainSpec{"t1", "hour"})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.FormatGrain(g); got != "<a1:low, t1:hour>" {
		t.Errorf("format = %q", got)
	}
	if got := s.FormatGrain(s.GrainAll()); got != "<ALL>" {
		t.Errorf("ALL format = %q", got)
	}
	if _, err := s.MakeGrain(GrainSpec{"nope", "low"}); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := s.MakeGrain(GrainSpec{"a1", "nope"}); err == nil {
		t.Error("unknown level accepted")
	}
}

// TestFormatRegion pins the rendering of a region — ALL attributes
// omitted, an all-ALL grain as [ALL] — and AppendRegion to append exactly
// FormatRegion's string after whatever dst already holds.
func TestFormatRegion(t *testing.T) {
	s := testSchema(t)
	g, err := s.MakeGrain(GrainSpec{"a1", "low"}, GrainSpec{"t1", "hour"})
	if err != nil {
		t.Fatal(err)
	}
	r := Region{Grain: g, Coord: []int64{17, 0, 0, 0, 301, 0}}
	if got, want := s.FormatRegion(r), "[a1=17@low, t1=301@hour]"; got != want {
		t.Errorf("FormatRegion = %q, want %q", got, want)
	}
	all := Region{Grain: s.GrainAll(), Coord: make([]int64, s.NumAttrs())}
	if got := s.FormatRegion(all); got != "[ALL]" {
		t.Errorf("ALL region = %q", got)
	}
	for _, reg := range []Region{r, all} {
		if got := string(s.AppendRegion([]byte("x:"), reg)); got != "x:"+s.FormatRegion(reg) {
			t.Errorf("AppendRegion = %q", got)
		}
	}
}

func TestGeneralizationAndLCA(t *testing.T) {
	s := testSchema(t)
	fineG := s.MustGrain(GrainSpec{"a1", "value"}, GrainSpec{"t1", "minute"})
	coarseG := s.MustGrain(GrainSpec{"a1", "mid"}, GrainSpec{"t1", "hour"})
	otherG := s.MustGrain(GrainSpec{"a2", "value"}, GrainSpec{"t1", "hour"})

	if !coarseG.GeneralizationOf(fineG) {
		t.Error("coarse should generalize fine")
	}
	if fineG.GeneralizationOf(coarseG) {
		t.Error("fine should not generalize coarse")
	}
	if !s.GrainAll().GeneralizationOf(fineG) {
		t.Error("ALL generalizes everything")
	}
	if coarseG.GeneralizationOf(otherG) {
		t.Error("unrelated grains should not generalize (a2 finer in other)")
	}

	lca := s.LCA(fineG, otherG)
	if !lca.GeneralizationOf(fineG) || !lca.GeneralizationOf(otherG) {
		t.Fatal("LCA must generalize all inputs")
	}
	// LCA must be minimal: a1 at value ∨ ALL → ALL? No: fineG has a1:value,
	// otherG has a1:ALL, so LCA a1 level = ALL; t1 = hour (max of minute,hour).
	a1, _ := s.AttrIndex("a1")
	t1, _ := s.AttrIndex("t1")
	if lca[a1] != s.Attr(a1).AllIndex() {
		t.Errorf("lca a1 level = %d, want ALL", lca[a1])
	}
	hour, _ := s.Attr(t1).LevelIndex("hour")
	if lca[t1] != hour {
		t.Errorf("lca t1 level = %d, want hour index %d", lca[t1], hour)
	}

	meet := s.Meet(fineG, otherG)
	if !fineG.GeneralizationOf(meet) || !otherG.GeneralizationOf(meet) {
		t.Fatal("inputs must generalize their Meet")
	}
}

func TestLCAProperty(t *testing.T) {
	s := testSchema(t)
	rng := rand.New(rand.NewSource(11))
	randGrain := func() Grain {
		g := make(Grain, s.NumAttrs())
		for i := range g {
			g[i] = rng.Intn(s.Attr(i).NumLevels())
		}
		return g
	}
	for iter := 0; iter < 200; iter++ {
		g, h := randGrain(), randGrain()
		l := s.LCA(g, h)
		if !l.GeneralizationOf(g) || !l.GeneralizationOf(h) {
			t.Fatalf("LCA(%v,%v)=%v not a common generalization", g, h, l)
		}
		// Minimality: any common generalization must generalize the LCA.
		c := randGrain()
		if c.GeneralizationOf(g) && c.GeneralizationOf(h) && !c.GeneralizationOf(l) {
			t.Fatalf("common generalization %v does not generalize LCA %v", c, l)
		}
	}
}

func TestNumRegions(t *testing.T) {
	s := testSchema(t)
	if got := s.NumRegions(s.GrainAll()); got != 1 {
		t.Errorf("ALL regions = %d", got)
	}
	g := s.MustGrain(GrainSpec{"a1", "high"}, GrainSpec{"t1", "day"})
	// a1 high: 256/64 = 4; t1 day: 20.
	if got := s.NumRegions(g); got != 4*20 {
		t.Errorf("regions = %d, want 80", got)
	}
}

func TestRegionOfAndContains(t *testing.T) {
	s := testSchema(t)
	g := s.MustGrain(GrainSpec{"a1", "low"}, GrainSpec{"t1", "hour"})
	rec := Record{13, 0, 0, 0, 2*86400 + 3*3600 + 59, 0}
	r := s.RegionOf(rec, g)
	a1, _ := s.AttrIndex("a1")
	t1, _ := s.AttrIndex("t1")
	if r.Coord[a1] != 13/4 {
		t.Errorf("a1 coord = %d", r.Coord[a1])
	}
	if r.Coord[t1] != 2*24+3 {
		t.Errorf("t1 coord = %d", r.Coord[t1])
	}
	if !s.Contains(r, rec) {
		t.Error("region must contain its defining record")
	}
	other := rec.Clone()
	other[t1] += 3600 // next hour
	if s.Contains(r, other) {
		t.Error("record from next hour contained")
	}
}

func TestParentAndContainsRegion(t *testing.T) {
	s := testSchema(t)
	fine := s.MustGrain(GrainSpec{"a1", "value"}, GrainSpec{"t1", "minute"})
	coarse := s.MustGrain(GrainSpec{"a1", "mid"}, GrainSpec{"t1", "day"})
	rec := Record{200, 1, 2, 3, 5*86400 + 7200, 0}
	child := s.RegionOf(rec, fine)
	parent := s.ParentRegion(child, coarse)
	if !s.ContainsRegion(parent, child) {
		t.Fatal("parent must contain child")
	}
	if s.ContainsRegion(child, parent) {
		t.Fatal("child cannot contain parent (grain direction)")
	}
	// A sibling child of a different day must not be contained.
	rec2 := rec.Clone()
	t1, _ := s.AttrIndex("t1")
	rec2[t1] += 86400
	sib := s.RegionOf(rec2, fine)
	if s.ContainsRegion(parent, sib) {
		t.Fatal("region from another day contained")
	}
}

func TestContainmentTransitivityProperty(t *testing.T) {
	s := testSchema(t)
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 300; iter++ {
		rec := make(Record, s.NumAttrs())
		for i := range rec {
			rec[i] = rng.Int63n(s.Attr(i).Card())
		}
		// Build a chain fine ⊆ mid ⊆ coarse of random grains.
		fine := make(Grain, s.NumAttrs())
		mid := make(Grain, s.NumAttrs())
		coarse := make(Grain, s.NumAttrs())
		for i := 0; i < s.NumAttrs(); i++ {
			n := s.Attr(i).NumLevels()
			a, b, c := rng.Intn(n), rng.Intn(n), rng.Intn(n)
			if a > b {
				a, b = b, a
			}
			if b > c {
				b, c = c, b
			}
			if a > b {
				a, b = b, a
			}
			fine[i], mid[i], coarse[i] = a, b, c
		}
		rf := s.RegionOf(rec, fine)
		rm := s.RegionOf(rec, mid)
		rc := s.RegionOf(rec, coarse)
		if !s.ContainsRegion(rm, rf) || !s.ContainsRegion(rc, rm) || !s.ContainsRegion(rc, rf) {
			t.Fatalf("containment chain broken for rec %v grains %v %v %v", rec, fine, mid, coarse)
		}
		if !s.Contains(rf, rec) || !s.Contains(rm, rec) || !s.Contains(rc, rec) {
			t.Fatalf("record containment broken")
		}
	}
}

func TestEncodeDecodeCoords(t *testing.T) {
	f := func(raw []int64) bool {
		coord := make([]int64, len(raw))
		for i, v := range raw {
			if v < 0 {
				v = -v
			}
			coord[i] = v
		}
		key := EncodeCoords(coord)
		back, err := DecodeCoords(key, len(coord))
		if err != nil {
			return false
		}
		for i := range coord {
			if back[i] != coord[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if _, err := DecodeCoords("", 2); err == nil {
		t.Error("truncated key accepted")
	}
	if _, err := DecodeCoords(EncodeCoords([]int64{1, 2, 3}), 2); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestEncodeCoordsUniqueness(t *testing.T) {
	// Distinct coordinate vectors must encode to distinct keys.
	seen := map[string][]int64{}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		c := []int64{rng.Int63n(1000), rng.Int63n(1000), rng.Int63n(100000)}
		k := EncodeCoords(c)
		if prev, ok := seen[k]; ok {
			same := prev[0] == c[0] && prev[1] == c[1] && prev[2] == c[2]
			if !same {
				t.Fatalf("collision: %v and %v -> %q", prev, c, k)
			}
		}
		seen[k] = c
	}
}

func TestSchemaErrors(t *testing.T) {
	if _, err := NewSchema(); err == nil {
		t.Error("empty schema accepted")
	}
	a := MustAttribute("a", Numeric, 10, Level{Name: "v", Span: 1})
	if _, err := NewSchema(a, a); err == nil {
		t.Error("duplicate attribute accepted")
	}
	if _, err := NewSchema(a, nil); err == nil {
		t.Error("nil attribute accepted")
	}
}
