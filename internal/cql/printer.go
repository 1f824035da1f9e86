package cql

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/measure"
	"github.com/casm-project/casm/internal/workflow"
)

// Format renders a workflow as CQL text. Parse(Format(w)) reconstructs an
// equivalent workflow, which the golden tests verify.
func Format(w *workflow.Workflow) string {
	s := w.Schema()
	var b strings.Builder
	for _, m := range w.Measures() {
		fmt.Fprintf(&b, "MEASURE %s = ", m.Name)
		switch m.Kind {
		case workflow.Basic:
			if m.Agg.Func == measure.Quantile {
				fmt.Fprintf(&b, "QUANTILE(%s, %s)", formatNumber(m.Agg.Arg), s.Attr(m.InputAttr).Name())
			} else if m.InputAttr < 0 {
				fmt.Fprintf(&b, "%s(*)", strings.ToUpper(string(m.Agg.Func)))
			} else {
				fmt.Fprintf(&b, "%s(%s)", strings.ToUpper(string(m.Agg.Func)), s.Attr(m.InputAttr).Name())
			}
		case workflow.Self:
			if es := m.Expr.String(); strings.HasPrefix(es, "scale(") && len(m.Sources) == 1 {
				k := strings.TrimSuffix(strings.TrimPrefix(es, "scale("), ")")
				if v, err := strconv.ParseFloat(k, 64); err == nil {
					k = formatNumber(v)
				}
				fmt.Fprintf(&b, "SCALE(%s, %s)", k, m.Sources[0])
			} else {
				fmt.Fprintf(&b, "%s(%s)", strings.ToUpper(es), strings.Join(m.Sources, ", "))
			}
		case workflow.Rollup:
			fmt.Fprintf(&b, "ROLLUP %s(%s)", strings.ToUpper(string(m.Agg.Func)), m.Sources[0])
		case workflow.Inherit:
			fmt.Fprintf(&b, "INHERIT(%s)", m.Sources[0])
		case workflow.Sliding:
			fmt.Fprintf(&b, "WINDOW %s(%s) OVER ", strings.ToUpper(string(m.Agg.Func)), m.Sources[0])
			for i, ann := range m.Window {
				if i > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "%s(%d, %d)", s.Attr(ann.Attr).Name(), ann.Low, ann.High)
			}
		}
		b.WriteString(" AT ")
		b.WriteString(formatGrain(s, m.Grain))
		b.WriteString(";\n")
	}
	return b.String()
}

// formatNumber renders v as the lexer reads numbers back: plain decimal
// digits, never an exponent (%g would print 1e+06), in the fewest digits
// that parse to v exactly.
func formatNumber(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

func formatGrain(s *cube.Schema, g cube.Grain) string {
	var parts []string
	for i, li := range g {
		if li == s.Attr(i).AllIndex() {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s:%s", s.Attr(i).Name(), s.Attr(i).Level(li).Name))
	}
	if len(parts) == 0 {
		// A grain with every attribute at ALL still needs a clause; use
		// the first attribute's ALL level explicitly.
		parts = append(parts, fmt.Sprintf("%s:%s", s.Attr(0).Name(), cube.AllLevel))
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
