package workflow

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"github.com/casm-project/casm/internal/cube"
)

// Canonical workflow fingerprints back the optimizer's keyed plan cache:
// two workflows that are structurally identical — the same schema, the
// same multiset of measure definitions, the same relation DAG — must map
// to the same fingerprint even when their measures carry different names
// or were added in a different (topologically valid) order, because the
// optimizer's decision depends only on structure, never on names.
//
// The canonical form replaces every measure name with a structural
// descriptor computed bottom-up over the DAG (a measure's descriptor
// embeds its sources' descriptors), orders the measures by descriptor,
// and prefixes the schema's own structural identity. Fingerprint hashes
// that form, so equal fingerprints mean equal canonical forms for any
// practical purpose (truncated SHA-256; no feasibility decision may hang
// off a weaker hash, since a colliding plan would execute silently wrong).

// CanonicalForm renders the workflow's normalized structural form: the
// schema identity followed by one line per measure, names replaced by
// descriptor-ordered indices. It errors only on a malformed DAG.
func CanonicalForm(w *Workflow) (string, error) {
	desc, err := describeMeasures(w)
	if err != nil {
		return "", err
	}
	// The canonical measure order is descriptor order; equal descriptors
	// are genuinely interchangeable, so the multiset is what is encoded.
	sorted := append([]string(nil), desc...)
	sort.Strings(sorted)
	var b strings.Builder
	b.WriteString(SchemaForm(w.schema))
	for i, d := range sorted {
		fmt.Fprintf(&b, "m%d %s\n", i, d)
	}
	return b.String(), nil
}

// describeMeasures computes each measure's structural descriptor in
// insertion order.
func describeMeasures(w *Workflow) ([]string, error) {
	if _, err := w.TopoOrder(); err != nil {
		return nil, err
	}
	desc := make([]string, len(w.measures))
	var describe func(i int) string
	describe = func(i int) string {
		if desc[i] != "" {
			return desc[i]
		}
		m := w.measures[i]
		var b strings.Builder
		switch m.Kind {
		case Basic:
			fmt.Fprintf(&b, "B|%s|%s|in=%d", grainForm(m.Grain), aggForm(m), m.InputAttr)
		case Self:
			fmt.Fprintf(&b, "S|%s|expr=%s", grainForm(m.Grain), m.Expr)
		case Rollup:
			fmt.Fprintf(&b, "R|%s|%s", grainForm(m.Grain), aggForm(m))
		case Inherit:
			fmt.Fprintf(&b, "I|%s", grainForm(m.Grain))
		case Sliding:
			fmt.Fprintf(&b, "W|%s|%s|win=", grainForm(m.Grain), aggForm(m))
			for k, ann := range m.Window {
				if k > 0 {
					b.WriteByte(';')
				}
				fmt.Fprintf(&b, "%d:%d:%d", ann.Attr, ann.Low, ann.High)
			}
		}
		// Source order is semantic (expression argument order), so the
		// sources embed in declaration order, each as its own descriptor.
		for _, s := range m.Sources {
			fmt.Fprintf(&b, "|src=(%s)", describe(w.byName[s]))
		}
		desc[i] = b.String()
		return desc[i]
	}
	for i := range w.measures {
		describe(i)
	}
	return desc, nil
}

// CanonicalMeasures returns the workflow's measures in canonical
// (descriptor) order — the order CanonicalForm encodes them in. Two
// structurally identical workflows yield positionally equivalent lists
// even when their measure names differ, which is what lets a
// fingerprint-keyed result cache store rows under canonical measure
// indices and map them back to whatever names the probing workflow
// uses. Equal descriptors are genuinely interchangeable (identical
// definitions produce identical rows), so their relative order doesn't
// matter; insertion order breaks the tie deterministically.
func CanonicalMeasures(w *Workflow) ([]*Measure, error) {
	desc, err := describeMeasures(w)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(desc))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return desc[idx[a]] < desc[idx[b]] })
	out := make([]*Measure, len(idx))
	for i, j := range idx {
		out[i] = w.measures[j]
	}
	return out, nil
}

// Fingerprint returns the canonical workflow fingerprint: a 128-bit hex
// digest of CanonicalForm, stable across processes and runs.
func Fingerprint(w *Workflow) (string, error) {
	form, err := CanonicalForm(w)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(form))
	return hex.EncodeToString(sum[:16]), nil
}

// SchemaDigest returns a 128-bit hex digest of a schema's structural
// identity (SchemaForm). The block store records it per dataset so a
// restarted service can verify a registration's schema matches the
// ingested data without rereading it.
func SchemaDigest(s *cube.Schema) string {
	sum := sha256.Sum256([]byte(SchemaForm(s)))
	return hex.EncodeToString(sum[:16])
}

// SchemaForm renders a schema's structural identity: every attribute's
// name, kind, cardinality, and hierarchy, with irregular (table-driven)
// hierarchies identified by their full assignment mapping — two schemas
// share a SchemaForm exactly when they induce the same cube space.
func SchemaForm(s *cube.Schema) string {
	var b strings.Builder
	for i := 0; i < s.NumAttrs(); i++ {
		a := s.Attr(i)
		fmt.Fprintf(&b, "a%d %s|%d|card=%d|", i, a.Name(), int(a.Kind()), a.Card())
		// CardAt (not a span, undefined for irregular levels) fixes
		// each level's structure: with Card known, the coordinate counts
		// determine every regular level's span.
		for l := 0; l < a.NumLevels(); l++ {
			if l > 0 {
				b.WriteByte('<')
			}
			fmt.Fprintf(&b, "%s:%d", a.Level(l).Name, a.CardAt(l))
		}
		if a.Mapped() {
			fmt.Fprintf(&b, "|map=%x", mappedDigest(a))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// mappedDigest hashes an irregular attribute's value→coordinate tables:
// two mapped attributes with equal spans but different assignments induce
// different regions, so the tables are part of schema identity.
func mappedDigest(a *cube.Attribute) []byte {
	h := sha256.New()
	buf := make([]byte, 0, 16)
	for l := 1; l < a.NumLevels(); l++ {
		for v := int64(0); v < a.Card(); v++ {
			buf = appendInt(buf[:0], a.Roll(v, l))
			h.Write(buf)
		}
	}
	return h.Sum(nil)[:8]
}

func appendInt(dst []byte, v int64) []byte {
	return append(dst,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func grainForm(g cube.Grain) string {
	parts := make([]string, len(g))
	for i, l := range g {
		parts[i] = fmt.Sprintf("%d", l)
	}
	return "g[" + strings.Join(parts, ",") + "]"
}

func aggForm(m *Measure) string {
	return fmt.Sprintf("agg=%s:%g", m.Agg.Func, m.Agg.Arg)
}
