// Package distkey implements the paper's (possibly overlapping)
// distribution keys and the algorithms that derive a minimal feasible key
// for a composite subset measure query (ICDE'08, Section III-B, Tables III
// and IV).
//
// A distribution key is a granularity with an optional range annotation
// per attribute: <X1:D1(l1,h1), …, Xd:Dd(ld,hd)>. The key is feasible for
// a query when, for every measure record in the result, some key region
// (extended by the annotations) contains the record's entire coverage set,
// so the measure can be computed locally inside one distribution block.
package distkey

import (
	"fmt"
	"slices"
	"strings"

	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/workflow"
)

// Ann is a range annotation on one key attribute: a block responsible for
// key coordinate c also carries the data of key regions c+Low … c+High.
// The zero value means no annotation.
type Ann struct {
	Low  int64
	High int64
}

// IsZero reports whether the annotation is absent.
func (a Ann) IsZero() bool { return a.Low == 0 && a.High == 0 }

// Width returns the paper's d = High − Low: how many extra neighbouring
// regions each block must carry.
func (a Ann) Width() int64 { return a.High - a.Low }

// Key is a distribution key: a grain plus one annotation per attribute.
type Key struct {
	Grain cube.Grain
	Anns  []Ann
}

// FromGrain returns the unannotated key of grain g.
func FromGrain(g cube.Grain) Key {
	return Key{Grain: g.Clone(), Anns: make([]Ann, len(g))}
}

// Clone returns an independent copy of k.
func (k Key) Clone() Key {
	return Key{Grain: k.Grain.Clone(), Anns: append([]Ann(nil), k.Anns...)}
}

// Equal reports whether the keys are identical.
func (k Key) Equal(o Key) bool {
	return k.Grain.Equal(o.Grain) && slices.Equal(k.Anns, o.Anns)
}

// AnnotatedAttrs returns the indices of attributes carrying a non-zero
// annotation.
func (k Key) AnnotatedAttrs() []int {
	var out []int
	for i, a := range k.Anns {
		if !a.IsZero() {
			out = append(out, i)
		}
	}
	return out
}

// IsOverlapping reports whether any attribute is annotated.
func (k Key) IsOverlapping() bool { return len(k.AnnotatedAttrs()) > 0 }

// Width returns the paper's d for the single annotated attribute, or 0
// when the key does not overlap.
func (k Key) Width() int64 {
	var d int64
	for _, a := range k.Anns {
		d = max(d, a.Width())
	}
	return d
}

// Format renders the key in the paper's notation, e.g.
// <keyword:word, time:minute(0,10)>.
func (k Key) Format(s *cube.Schema) string {
	var parts []string
	for i, li := range k.Grain {
		attr := s.Attr(i)
		if li == attr.AllIndex() && k.Anns[i].IsZero() {
			continue
		}
		p := fmt.Sprintf("%s:%s", attr.Name(), attr.Level(li).Name)
		if !k.Anns[i].IsZero() {
			p += fmt.Sprintf("(%d,%d)", k.Anns[i].Low, k.Anns[i].High)
		}
		parts = append(parts, p)
	}
	if len(parts) == 0 {
		return "<ALL>"
	}
	return "<" + strings.Join(parts, ", ") + ">"
}

// floorDiv divides rounding toward negative infinity, the division needed
// for correct window arithmetic on negative offsets.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// convertLow converts a low window offset from a fine level into units of
// a coarser level with span s fine units per coarse unit, conservatively
// (the converted window always covers the original): a window reaching l
// fine units below some fine region can reach at most floor(l/s) coarse
// regions below the enclosing coarse region.
func convertLow(l, s int64) int64 {
	if s <= 1 {
		return l
	}
	return floorDiv(l, s)
}

// convertHigh is the conservative upper-bound counterpart: a window
// reaching h fine units above can reach floor((h+s−1)/s) coarse regions
// above (worst case when the fine region sits at the end of its coarse
// region). The paper's example: a 60-day window spans at most
// floor((60+30)/31) = 2 months beyond the current one.
func convertHigh(h, s int64) int64 {
	if s <= 1 {
		return h
	}
	return floorDiv(h+s-1, s)
}

// ConvertAnn converts an annotation expressed in units of attribute
// attr's level `from` into (conservative) units of the coarser level `to`.
// Converting to ALL always yields the zero annotation: the single ALL
// region covers every sibling.
func ConvertAnn(s *cube.Schema, attr int, a Ann, from, to int) Ann {
	at := s.Attr(attr)
	if to == at.AllIndex() || a.IsZero() {
		// No annotation to convert (nominal — possibly irregular —
		// attributes always take this path, since they cannot carry
		// annotations).
		return Ann{}
	}
	if from == to {
		return a
	}
	span := at.SpanBetween(from, to)
	return Ann{Low: convertLow(a.Low, span), High: convertHigh(a.High, span)}
}

// OpConvert is the paper's Table III: given the feasible distribution key
// k of a sliding measure's source and the sibling condition (range
// annotations expressed at the measure's grain), produce a key feasible
// for the target measure. For each annotated attribute the window offsets
// are converted into the key's level and added onto the key's existing
// annotation; unannotated attributes are unchanged.
func OpConvert(s *cube.Schema, k Key, measureGrain cube.Grain, window []workflow.RangeAnn) Key {
	out := k.Clone()
	for _, w := range window {
		at := s.Attr(w.Attr)
		keyLevel := k.Grain[w.Attr]
		if keyLevel == at.AllIndex() {
			// The key already keeps the whole domain together; the window
			// needs no annotation.
			continue
		}
		span := at.SpanBetween(measureGrain[w.Attr], keyLevel)
		out.Anns[w.Attr] = Ann{
			Low:  k.Anns[w.Attr].Low + convertLow(w.Low, span),
			High: k.Anns[w.Attr].High + convertHigh(w.High, span),
		}
	}
	return out
}

// OpCombine is the paper's Table IV: the least feasible key subsuming all
// the given keys. Per attribute it takes the common generalization
// (coarsest level) of the inputs' levels, converts every input's
// annotation into that level, and takes the union of the converted ranges.
func OpCombine(s *cube.Schema, keys ...Key) Key {
	if len(keys) == 0 {
		return FromGrain(s.GrainFinest())
	}
	grains := make([]cube.Grain, len(keys))
	for i, k := range keys {
		grains[i] = k.Grain
	}
	out := FromGrain(s.LCA(grains...))
	for x := 0; x < s.NumAttrs(); x++ {
		if out.Grain[x] == s.Attr(x).AllIndex() {
			continue // ALL needs no annotation
		}
		var low, high int64
		for _, k := range keys {
			a := ConvertAnn(s, x, k.Anns[x], k.Grain[x], out.Grain[x])
			low, high = min(low, a.Low), max(high, a.High)
		}
		out.Anns[x] = Ann{Low: low, High: high}
	}
	return out
}

// Derive computes the minimal feasible distribution key for the workflow
// by walking measures in topological order (Section III-B.2): a basic
// measure's key is its grain; a composite measure's key is the OpCombine
// of its sources' keys (run through OpConvert when the dependency is a
// sibling relationship) together with the measure's own grain. The query's
// key is the OpCombine of all per-measure keys.
//
// The second return value maps each measure name to its individual
// feasible key, which the optimizer and EXPLAIN output use.
func Derive(w *workflow.Workflow) (Key, map[string]Key, error) {
	s := w.Schema()
	order, err := w.TopoOrder()
	if err != nil {
		return Key{}, nil, err
	}
	perMeasure := make(map[string]Key, len(order))
	for _, m := range order {
		switch m.Kind {
		case workflow.Basic:
			perMeasure[m.Name] = FromGrain(m.Grain)
		case workflow.Self, workflow.Rollup, workflow.Inherit:
			args := []Key{FromGrain(m.Grain)}
			for _, src := range m.Sources {
				args = append(args, perMeasure[src])
			}
			perMeasure[m.Name] = OpCombine(s, args...)
		case workflow.Sliding:
			src := perMeasure[m.Sources[0]]
			conv := OpConvert(s, src, m.Grain, m.Window)
			perMeasure[m.Name] = OpCombine(s, FromGrain(m.Grain), conv)
		default:
			return Key{}, nil, fmt.Errorf("distkey: unknown measure kind %v", m.Kind)
		}
	}
	all := make([]Key, 0, len(order))
	for _, m := range order {
		all = append(all, perMeasure[m.Name])
	}
	return OpCombine(s, all...), perMeasure, nil
}

// Generalizes reports whether key a subsumes key b: any block layout of a
// keeps together at least the data that b's layout keeps together, so by
// Theorem 1 feasibility of b implies feasibility of a. Per attribute, a's
// level must be equal or coarser and a's annotation must cover b's
// annotation converted to a's level.
func Generalizes(s *cube.Schema, a, b Key) bool {
	if !a.Grain.GeneralizationOf(b.Grain) {
		return false
	}
	for x := 0; x < s.NumAttrs(); x++ {
		if a.Grain[x] == s.Attr(x).AllIndex() {
			continue
		}
		conv := ConvertAnn(s, x, b.Anns[x], b.Grain[x], a.Grain[x])
		if a.Anns[x].Low > conv.Low || a.Anns[x].High < conv.High {
			return false
		}
	}
	return true
}

// RollUpAttr returns k with attribute x rolled up to ALL (annotation
// dropped): the paper's move for producing single-annotated candidate
// keys.
func RollUpAttr(s *cube.Schema, k Key, x int) Key {
	out := k.Clone()
	out.Grain[x] = s.Attr(x).AllIndex()
	out.Anns[x] = Ann{}
	return out
}

// CoarsenAttr returns k with attribute x coarsened to the given level and
// its annotation conservatively converted. It panics if level is finer
// than k's current level for x.
func CoarsenAttr(s *cube.Schema, k Key, x, level int) Key {
	if level < k.Grain[x] {
		panic(fmt.Sprintf("distkey: CoarsenAttr to finer level %d < %d", level, k.Grain[x]))
	}
	out := k.Clone()
	out.Anns[x] = ConvertAnn(s, x, k.Anns[x], k.Grain[x], level)
	out.Grain[x] = level
	return out
}
