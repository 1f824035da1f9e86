// Package workflow models the paper's aggregation workflows (ICDE'08
// Section II-A, Figure 1): DAGs whose nodes are measures defined over
// region sets and whose edges are one of the four relationships of
// Table II — self, child/parent, parent/child, and sibling (sliding
// window). Basic measures aggregate raw records; composite measures derive
// from their source measures.
package workflow

import (
	"fmt"
	"strings"

	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/measure"
)

// Kind identifies how a measure derives its values (paper Table II).
type Kind int

const (
	// Basic measures aggregate the raw records contained in each region.
	Basic Kind = iota
	// Self measures evaluate a scalar expression over source measures of
	// the same region (or of its parent regions, when a source is defined
	// at a generalization — the paper's parent/child edge combined with a
	// self edge, as in the weblog example's M3 = M1/M2).
	Self
	// Rollup (child/parent) measures aggregate a source measure over all
	// child regions of each region.
	Rollup
	// Inherit (parent/child) measures copy the parent region's source
	// value down to each child region.
	Inherit
	// Sliding (sibling) measures aggregate a source measure over a window
	// of sibling regions identified by range annotations.
	Sliding
)

// String returns the paper's name for the relationship.
func (k Kind) String() string {
	switch k {
	case Basic:
		return "basic"
	case Self:
		return "self"
	case Rollup:
		return "child/parent"
	case Inherit:
		return "parent/child"
	case Sliding:
		return "sibling"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// RangeAnn is one attribute's range annotation {X:(low,high)} on a sibling
// edge: the window of an output region at coordinate c covers source
// regions at coordinates c+Low … c+High of the annotated attribute (at the
// measure's grain level for that attribute), other coordinates equal.
type RangeAnn struct {
	Attr int   // schema attribute index
	Low  int64 // inclusive offset, may be negative
	High int64 // inclusive offset, >= Low
}

// Measure is one node of an aggregation workflow.
type Measure struct {
	Name  string
	Grain cube.Grain
	Kind  Kind

	// Agg is the aggregate function for Basic, Rollup and Sliding kinds.
	Agg measure.Spec
	// InputAttr is the schema attribute a Basic measure aggregates, or -1
	// when the function is COUNT over records.
	InputAttr int
	// Expr combines source values for Self measures.
	Expr measure.Expr
	// Sources names the measures this one derives from, in Expr argument
	// order for Self; exactly one for Rollup/Inherit/Sliding.
	Sources []string
	// Window holds the sibling range annotations (Sliding only).
	Window []RangeAnn
}

// Workflow is a validated DAG of measures over one schema.
type Workflow struct {
	schema   *cube.Schema
	measures []*Measure
	byName   map[string]int
}

// New returns an empty workflow over the schema.
func New(schema *cube.Schema) *Workflow {
	return &Workflow{schema: schema, byName: make(map[string]int)}
}

// Schema returns the workflow's schema.
func (w *Workflow) Schema() *cube.Schema { return w.schema }

// Measures returns the measures in insertion order.
func (w *Workflow) Measures() []*Measure { return w.measures }

// Measure looks a measure up by name.
func (w *Workflow) Measure(name string) (*Measure, bool) {
	i, ok := w.byName[name]
	if !ok {
		return nil, false
	}
	return w.measures[i], true
}

func (w *Workflow) add(m *Measure) error {
	if m.Name == "" {
		return fmt.Errorf("workflow: measure name must be non-empty")
	}
	if _, dup := w.byName[m.Name]; dup {
		return fmt.Errorf("workflow: duplicate measure %q", m.Name)
	}
	if len(m.Grain) != w.schema.NumAttrs() {
		return fmt.Errorf("workflow: measure %q: grain arity %d, schema has %d attributes",
			m.Name, len(m.Grain), w.schema.NumAttrs())
	}
	for i, li := range m.Grain {
		if li < 0 || li >= w.schema.Attr(i).NumLevels() {
			return fmt.Errorf("workflow: measure %q: invalid level %d for attribute %q",
				m.Name, li, w.schema.Attr(i).Name())
		}
	}
	for _, src := range m.Sources {
		if _, ok := w.byName[src]; !ok {
			return fmt.Errorf("workflow: measure %q: unknown source %q (sources must be added first)", m.Name, src)
		}
	}
	w.byName[m.Name] = len(w.measures)
	w.measures = append(w.measures, m)
	return nil
}

func (w *Workflow) source(m *Measure, i int) *Measure {
	return w.measures[w.byName[m.Sources[i]]]
}

// AddBasic adds a basic measure aggregating attribute inputAttr (by name;
// "" means COUNT over records) at the given grain.
func (w *Workflow) AddBasic(name string, grain cube.Grain, agg measure.Spec, inputAttr string) error {
	if err := agg.Validate(); err != nil {
		return fmt.Errorf("workflow: measure %q: %w", name, err)
	}
	idx := -1
	if inputAttr != "" {
		i, ok := w.schema.AttrIndex(inputAttr)
		if !ok {
			return fmt.Errorf("workflow: measure %q: unknown input attribute %q", name, inputAttr)
		}
		idx = i
	} else if agg.Func != measure.Count {
		return fmt.Errorf("workflow: measure %q: %s needs an input attribute", name, agg)
	}
	return w.add(&Measure{Name: name, Grain: grain.Clone(), Kind: Basic, Agg: agg, InputAttr: idx})
}

// AddSelf adds a self measure combining the named sources with expr. Each
// source must be defined at the measure's grain or at a generalization of
// it (the latter realizes the paper's parent/child lookup inside a self
// expression, as in M3 = M1 / M2 with M2 at the hour grain).
func (w *Workflow) AddSelf(name string, grain cube.Grain, expr measure.Expr, sources ...string) error {
	if expr == nil {
		return fmt.Errorf("workflow: measure %q: nil expression", name)
	}
	if len(sources) == 0 {
		return fmt.Errorf("workflow: measure %q: self measure needs sources", name)
	}
	if a := expr.Arity(); a >= 0 && a != len(sources) {
		return fmt.Errorf("workflow: measure %q: expression %s takes %d args, got %d sources",
			name, expr, a, len(sources))
	}
	m := &Measure{Name: name, Grain: grain.Clone(), Kind: Self, Expr: expr, Sources: sources}
	if err := w.add(m); err != nil {
		return err
	}
	for i := range sources {
		src := w.source(m, i)
		if !src.Grain.GeneralizationOf(m.Grain) {
			w.remove(name)
			return fmt.Errorf("workflow: measure %q: source %q grain %s is not %s or a generalization of it",
				name, src.Name, w.schema.FormatGrain(src.Grain), w.schema.FormatGrain(m.Grain))
		}
	}
	return nil
}

// AddRollup adds a child/parent measure: agg over the source measure's
// values for all child regions. The source grain must be a strict
// specialization of the measure grain.
func (w *Workflow) AddRollup(name string, grain cube.Grain, agg measure.Spec, source string) error {
	if err := agg.Validate(); err != nil {
		return fmt.Errorf("workflow: measure %q: %w", name, err)
	}
	m := &Measure{Name: name, Grain: grain.Clone(), Kind: Rollup, Agg: agg, Sources: []string{source}}
	if err := w.add(m); err != nil {
		return err
	}
	src := w.source(m, 0)
	if !m.Grain.GeneralizationOf(src.Grain) || m.Grain.Equal(src.Grain) {
		w.remove(name)
		return fmt.Errorf("workflow: measure %q: rollup grain %s must strictly generalize source grain %s",
			name, w.schema.FormatGrain(m.Grain), w.schema.FormatGrain(src.Grain))
	}
	return nil
}

// AddInherit adds a parent/child measure: each region receives its parent
// region's source value. The source grain must strictly generalize the
// measure grain.
func (w *Workflow) AddInherit(name string, grain cube.Grain, source string) error {
	m := &Measure{Name: name, Grain: grain.Clone(), Kind: Inherit, Expr: measure.Ident(), Sources: []string{source}}
	if err := w.add(m); err != nil {
		return err
	}
	src := w.source(m, 0)
	if !src.Grain.GeneralizationOf(m.Grain) || src.Grain.Equal(m.Grain) {
		w.remove(name)
		return fmt.Errorf("workflow: measure %q: source grain %s must strictly generalize %s",
			name, w.schema.FormatGrain(src.Grain), w.schema.FormatGrain(m.Grain))
	}
	return nil
}

// AddSliding adds a sibling measure: agg over the source measure's values
// for the window of sibling regions given by the annotations. The source
// must share the measure's grain; annotated attributes must be ordered
// (numeric or temporal) and not at ALL in the grain.
func (w *Workflow) AddSliding(name string, grain cube.Grain, agg measure.Spec, source string, window ...RangeAnn) error {
	if err := agg.Validate(); err != nil {
		return fmt.Errorf("workflow: measure %q: %w", name, err)
	}
	if len(window) == 0 {
		return fmt.Errorf("workflow: measure %q: sibling measure needs at least one range annotation", name)
	}
	m := &Measure{Name: name, Grain: grain.Clone(), Kind: Sliding, Agg: agg,
		Sources: []string{source}, Window: append([]RangeAnn(nil), window...)}
	if err := w.add(m); err != nil {
		return err
	}
	src := w.source(m, 0)
	if !src.Grain.Equal(m.Grain) {
		w.remove(name)
		return fmt.Errorf("workflow: measure %q: sibling source grain %s must equal measure grain %s",
			name, w.schema.FormatGrain(src.Grain), w.schema.FormatGrain(m.Grain))
	}
	seen := map[int]bool{}
	for _, ann := range window {
		if ann.Attr < 0 || ann.Attr >= w.schema.NumAttrs() {
			w.remove(name)
			return fmt.Errorf("workflow: measure %q: annotation attribute index %d out of range", name, ann.Attr)
		}
		attr := w.schema.Attr(ann.Attr)
		if attr.Kind() == cube.Nominal {
			w.remove(name)
			return fmt.Errorf("workflow: measure %q: cannot annotate nominal attribute %q (closeness undefined)",
				name, attr.Name())
		}
		if m.Grain[ann.Attr] == attr.AllIndex() {
			w.remove(name)
			return fmt.Errorf("workflow: measure %q: annotated attribute %q is at ALL in the grain", name, attr.Name())
		}
		if ann.Low > ann.High {
			w.remove(name)
			return fmt.Errorf("workflow: measure %q: annotation low %d > high %d", name, ann.Low, ann.High)
		}
		if seen[ann.Attr] {
			w.remove(name)
			return fmt.Errorf("workflow: measure %q: duplicate annotation on attribute %q", name, attr.Name())
		}
		seen[ann.Attr] = true
	}
	return nil
}

// remove undoes the most recent add (used to keep the workflow consistent
// when post-add validation fails).
func (w *Workflow) remove(name string) {
	i := w.byName[name]
	delete(w.byName, name)
	w.measures = append(w.measures[:i], w.measures[i+1:]...)
	for n, j := range w.byName {
		if j > i {
			w.byName[n] = j - 1
		}
	}
}

// TopoOrder returns the measures in an order where every source precedes
// its dependents. Because sources must exist when a measure is added,
// insertion order already is such an order; the method exists so callers
// need not rely on that invariant and so imported workflows are verified.
func (w *Workflow) TopoOrder() ([]*Measure, error) {
	for i, m := range w.measures {
		for _, s := range m.Sources {
			if w.byName[s] >= i {
				return nil, fmt.Errorf("workflow: measure %q depends on later measure %q", m.Name, s)
			}
		}
	}
	return w.measures, nil
}

// Basics returns the basic measures.
func (w *Workflow) Basics() []*Measure {
	var out []*Measure
	for _, m := range w.measures {
		if m.Kind == Basic {
			out = append(out, m)
		}
	}
	return out
}

// HasSibling reports whether any measure uses the sibling relationship,
// which is what forces an overlapping distribution key (Section III-B.2).
func (w *Workflow) HasSibling() bool {
	for _, m := range w.measures {
		if m.Kind == Sliding {
			return true
		}
	}
	return false
}

// Validate re-checks the whole workflow. Workflows built through the Add*
// methods are always valid; Validate supports programmatically assembled
// ones.
func (w *Workflow) Validate() error {
	if len(w.measures) == 0 {
		return fmt.Errorf("workflow: no measures")
	}
	if _, err := w.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// Explain renders the workflow as an indented textual description, one
// line per measure, in the style of the paper's Figure 1.
func (w *Workflow) Explain() string {
	var b strings.Builder
	for _, m := range w.measures {
		fmt.Fprintf(&b, "%-12s %s  %s", m.Name, w.schema.FormatGrain(m.Grain), m.Kind)
		switch m.Kind {
		case Basic:
			in := "*"
			if m.InputAttr >= 0 {
				in = w.schema.Attr(m.InputAttr).Name()
			}
			fmt.Fprintf(&b, " %s(%s)", m.Agg, in)
		case Self, Inherit:
			fmt.Fprintf(&b, " %s(%s)", m.Expr, strings.Join(m.Sources, ", "))
		case Rollup:
			fmt.Fprintf(&b, " %s(%s)", m.Agg, m.Sources[0])
		case Sliding:
			var anns []string
			for _, a := range m.Window {
				anns = append(anns, fmt.Sprintf("%s(%d,%d)", w.schema.Attr(a.Attr).Name(), a.Low, a.High))
			}
			fmt.Fprintf(&b, " %s(%s) over {%s}", m.Agg, m.Sources[0], strings.Join(anns, ", "))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
