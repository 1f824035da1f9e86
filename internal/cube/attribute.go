// Package cube models the multidimensional "cube space" of the paper
// (ICDE'08, Section II): attributes with hierarchical value domains,
// granularities (region sets), and regions. Every record maps to a point in
// cube space; every measure of a composite subset measure query is defined
// over a set of regions of one granularity.
//
// Values are stored at each attribute's finest level as int64 coordinates
// in [0, Card). Coarser levels are deterministic roll-ups; for the regular
// hierarchies used throughout the paper a level is a fixed-span grouping of
// the next finer level (e.g. minute = 60 seconds), which makes roll-up an
// integer division by the cumulative span.
package cube

import (
	"fmt"
	"strings"
)

// Kind classifies an attribute's domain. Only numeric and temporal
// attributes may carry range annotations on distribution keys (the paper
// notes "we cannot add an annotation to a nominal attribute because the
// meaning of closeness is not defined").
type Kind int

const (
	// Nominal domains have no order; siblings/windows are undefined.
	Nominal Kind = iota
	// Numeric domains are ordered integers; windows are meaningful.
	Numeric
	// Temporal domains are ordered time units; windows are meaningful.
	Temporal
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Nominal:
		return "nominal"
	case Numeric:
		return "numeric"
	case Temporal:
		return "temporal"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// AllLevel is the name of the implicit most-general level present on every
// attribute; it contains the single value ALL (coordinate 0).
const AllLevel = "ALL"

// Level is one level of an attribute's domain hierarchy. Span is the
// number of units of the next finer level grouped into one unit of this
// level; the finest level has Span 1.
type Level struct {
	Name string
	Span int64
}

// Attribute is one dimension of cube space together with its domain
// hierarchy. The zero value is not usable; construct with NewAttribute or
// one of the convenience constructors.
type Attribute struct {
	name    string
	kind    Kind
	card    int64   // finest-level domain size; values are in [0, card)
	levels  []Level // finest → coarsest, with ALL appended last
	cumSpan []int64 // cumSpan[i] = finest units per unit of level i
	byName  map[string]int

	// Irregular (table-driven) hierarchies; see NewMappedAttribute.
	mapped bool
	assign [][]int64 // assign[i][v] = level-i coordinate of finest value v
	up     [][]int64 // up[i][c] = level-(i+1) coordinate of level-i coord c
	cards  []int64   // cards[i] = CardAt(i) for mapped attributes
}

// NewAttribute builds an attribute named name of the given kind whose
// finest level holds card distinct values, with the supplied hierarchy
// levels ordered finest first. The finest level must have Span 1; an ALL
// level is appended automatically. At least one level is required.
func NewAttribute(name string, kind Kind, card int64, levels ...Level) (*Attribute, error) {
	if name == "" {
		return nil, fmt.Errorf("cube: attribute name must be non-empty")
	}
	if card < 1 {
		return nil, fmt.Errorf("cube: attribute %q: cardinality %d < 1", name, card)
	}
	if len(levels) == 0 {
		return nil, fmt.Errorf("cube: attribute %q: at least one level required", name)
	}
	if levels[0].Span != 1 {
		return nil, fmt.Errorf("cube: attribute %q: finest level %q must have span 1, got %d",
			name, levels[0].Name, levels[0].Span)
	}
	a := &Attribute{name: name, kind: kind, card: card, byName: make(map[string]int)}
	cum := int64(1)
	for i, lv := range levels {
		if lv.Name == "" || lv.Name == AllLevel {
			return nil, fmt.Errorf("cube: attribute %q: invalid level name %q", name, lv.Name)
		}
		if i > 0 {
			if lv.Span < 2 {
				return nil, fmt.Errorf("cube: attribute %q: level %q span %d < 2", name, lv.Name, lv.Span)
			}
			cum *= lv.Span
		}
		if _, dup := a.byName[lv.Name]; dup {
			return nil, fmt.Errorf("cube: attribute %q: duplicate level %q", name, lv.Name)
		}
		a.levels = append(a.levels, lv)
		a.cumSpan = append(a.cumSpan, cum)
		a.byName[lv.Name] = i
	}
	if cum > card {
		return nil, fmt.Errorf("cube: attribute %q: hierarchy spans %d values but cardinality is %d", name, cum, card)
	}
	// The implicit ALL level groups everything into coordinate 0.
	a.levels = append(a.levels, Level{Name: AllLevel, Span: 0})
	a.cumSpan = append(a.cumSpan, card)
	a.byName[AllLevel] = len(a.levels) - 1
	return a, nil
}

// MustAttribute is NewAttribute that panics on error; intended for
// statically known schemas in examples and tests.
func MustAttribute(name string, kind Kind, card int64, levels ...Level) *Attribute {
	a, err := NewAttribute(name, kind, card, levels...)
	if err != nil {
		panic(err)
	}
	return a
}

// TimeAttribute builds a temporal attribute covering the given number of
// days at second resolution with the classical hierarchy
// second < minute < hour < day (< ALL), as used in the paper's experiments.
func TimeAttribute(name string, days int64) *Attribute {
	return MustAttribute(name, Temporal, days*86400,
		Level{Name: "second", Span: 1},
		Level{Name: "minute", Span: 60},
		Level{Name: "hour", Span: 60},
		Level{Name: "day", Span: 24},
	)
}

// Name returns the attribute name.
func (a *Attribute) Name() string { return a.name }

// Kind returns the attribute's domain kind.
func (a *Attribute) Kind() Kind { return a.kind }

// Card returns the finest-level domain size.
func (a *Attribute) Card() int64 { return a.card }

// NumLevels returns the number of levels including ALL.
func (a *Attribute) NumLevels() int { return len(a.levels) }

// AllIndex returns the index of the ALL level (always the last).
func (a *Attribute) AllIndex() int { return len(a.levels) - 1 }

// Level returns the i-th level (0 = finest).
func (a *Attribute) Level(i int) Level { return a.levels[i] }

// LevelIndex looks a level up by name.
func (a *Attribute) LevelIndex(name string) (int, bool) {
	i, ok := a.byName[name]
	return i, ok
}

// SpanBetween returns how many units of level `from` make up one unit of
// the coarser level `to`. It panics if from > to, and for mapped
// attributes (whose levels have no uniform span; mapped attributes are
// nominal, so nothing that needs spans — windows, annotations — applies
// to them).
func (a *Attribute) SpanBetween(from, to int) int64 {
	if a.mapped {
		panic(fmt.Sprintf("cube: attribute %q has irregular levels; SpanBetween is undefined", a.name))
	}
	if from > to {
		panic(fmt.Sprintf("cube: SpanBetween(%d, %d): from is coarser than to", from, to))
	}
	if to == a.AllIndex() {
		// One ALL unit covers everything.
		n := a.card / a.cumSpan[from]
		if a.card%a.cumSpan[from] != 0 {
			n++
		}
		return n
	}
	return a.cumSpan[to] / a.cumSpan[from]
}

// Roll maps a finest-level value to its coordinate at level i.
func (a *Attribute) Roll(v int64, i int) int64 {
	if i == a.AllIndex() {
		return 0
	}
	if a.mapped {
		return a.mappedRoll(v, i)
	}
	return v / a.cumSpan[i]
}

// RollBetween maps a coordinate at level `from` to the enclosing
// coordinate at the coarser level `to`.
func (a *Attribute) RollBetween(c int64, from, to int) int64 {
	if to == a.AllIndex() {
		return 0
	}
	if a.mapped {
		return a.mappedRollBetween(c, from, to)
	}
	return c / (a.cumSpan[to] / a.cumSpan[from])
}

// CardAt returns the number of distinct coordinates at level i.
func (a *Attribute) CardAt(i int) int64 {
	if i == a.AllIndex() {
		return 1
	}
	if a.mapped {
		return a.cards[i]
	}
	n := a.card / a.cumSpan[i]
	if a.card%a.cumSpan[i] != 0 {
		n++
	}
	return n
}

// String renders the attribute and its hierarchy for diagnostics.
func (a *Attribute) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%s, card=%d:", a.name, a.kind, a.card)
	for i, lv := range a.levels {
		if i > 0 {
			b.WriteString(" <")
		}
		b.WriteString(" " + lv.Name)
	}
	b.WriteString(")")
	return b.String()
}
