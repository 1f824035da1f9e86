package cube

import (
	"errors"
	"fmt"
	"strings"
)

// Record is one data record: a finest-level coordinate per schema
// attribute, in schema order. Records are the unit of redistribution; the
// paper's mapper emits key/value pairs whose value is "the exact copy of
// the original data record".
type Record []int64

// Clone returns an independent copy of r.
func (r Record) Clone() Record { return append(Record(nil), r...) }

// Schema is an ordered collection of attributes defining cube space.
type Schema struct {
	attrs  []*Attribute
	byName map[string]int
}

// NewSchema builds a schema from the given attributes. Attribute names
// must be unique.
func NewSchema(attrs ...*Attribute) (*Schema, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("cube: schema needs at least one attribute")
	}
	s := &Schema{byName: make(map[string]int, len(attrs))}
	for i, a := range attrs {
		if a == nil {
			return nil, fmt.Errorf("cube: nil attribute at position %d", i)
		}
		if _, dup := s.byName[a.Name()]; dup {
			return nil, fmt.Errorf("cube: duplicate attribute %q", a.Name())
		}
		s.attrs = append(s.attrs, a)
		s.byName[a.Name()] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error.
func MustSchema(attrs ...*Attribute) *Schema {
	s, err := NewSchema(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumAttrs returns the number of attributes.
func (s *Schema) NumAttrs() int { return len(s.attrs) }

// Attr returns the i-th attribute.
func (s *Schema) Attr(i int) *Attribute { return s.attrs[i] }

// AttrIndex looks an attribute up by name.
func (s *Schema) AttrIndex(name string) (int, bool) {
	i, ok := s.byName[name]
	return i, ok
}

// ErrOutOfDomain is wrapped by Validate's error for a value outside its
// attribute's domain.
var ErrOutOfDomain = errors.New("cube: value outside its attribute's domain")

// Validate checks that rec has the right arity and every value is within
// its attribute's domain. It allocates only to report a failure; a value
// is named as the uvarint a record carries, so one ≥ 2⁶³ reads as itself.
func (s *Schema) Validate(rec Record) error {
	if len(rec) != len(s.attrs) {
		return fmt.Errorf("cube: record arity %d, schema has %d attributes", len(rec), len(s.attrs))
	}
	for i, v := range rec {
		if uint64(v) >= uint64(s.attrs[i].Card()) {
			return fmt.Errorf("%w: attribute %q value %d outside [0, %d)", ErrOutOfDomain, s.attrs[i].Name(), uint64(v), s.attrs[i].Card())
		}
	}
	return nil
}

// ValidateColumns is Validate over a batch of records held column-major
// (cols[c][i] is record i's value of attribute c): one pass per column, and
// on failure Validate's error for the first offending record in record
// order, so it names the attribute and value a row-at-a-time check would.
func (s *Schema) ValidateColumns(cols [][]int64) error {
	if len(cols) != len(s.attrs) {
		return fmt.Errorf("cube: record arity %d, schema has %d attributes", len(cols), len(s.attrs))
	}
	first := -1
	for c, col := range cols {
		card := uint64(s.attrs[c].Card())
		if first >= 0 {
			col = col[:first] // only an earlier record can come first
		}
		for i, v := range col {
			if uint64(v) >= card {
				first = i
				break
			}
		}
	}
	if first < 0 {
		return nil
	}
	rec := make(Record, len(cols))
	for c, col := range cols {
		rec[c] = col[first]
	}
	return s.Validate(rec)
}

// GrainSpec names one attribute's level; a slice of them concisely
// specifies a Grain (attributes not mentioned default to ALL).
type GrainSpec struct {
	Attr  string
	Level string
}

// MakeGrain builds a Grain from specs; unmentioned attributes are ALL.
func (s *Schema) MakeGrain(specs ...GrainSpec) (Grain, error) {
	g := s.GrainAll()
	for _, sp := range specs {
		ai, ok := s.AttrIndex(sp.Attr)
		if !ok {
			return nil, fmt.Errorf("cube: unknown attribute %q", sp.Attr)
		}
		li, ok := s.attrs[ai].LevelIndex(sp.Level)
		if !ok {
			return nil, fmt.Errorf("cube: attribute %q has no level %q", sp.Attr, sp.Level)
		}
		g[ai] = li
	}
	return g, nil
}

// MustGrain is MakeGrain that panics on error.
func (s *Schema) MustGrain(specs ...GrainSpec) Grain {
	g, err := s.MakeGrain(specs...)
	if err != nil {
		panic(err)
	}
	return g
}

// GrainAll returns the most general grain (every attribute at ALL).
func (s *Schema) GrainAll() Grain {
	g := make(Grain, len(s.attrs))
	for i, a := range s.attrs {
		g[i] = a.AllIndex()
	}
	return g
}

// GrainFinest returns the most specific grain (every attribute at its
// finest level).
func (s *Schema) GrainFinest() Grain {
	return make(Grain, len(s.attrs))
}

// FormatGrain renders a grain in the paper's <A:level, ...> notation,
// omitting attributes at ALL (or "<ALL>" if every attribute is at ALL).
func (s *Schema) FormatGrain(g Grain) string {
	var parts []string
	for i, li := range g {
		if li == s.attrs[i].AllIndex() {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s:%s", s.attrs[i].Name(), s.attrs[i].Level(li).Name))
	}
	if len(parts) == 0 {
		return "<ALL>"
	}
	return "<" + strings.Join(parts, ", ") + ">"
}
