package cql

import (
	"strings"
	"testing"

	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/workflow"
	"github.com/casm-project/casm/internal/workload"
)

// FuzzParse: Parse never panics, and every source it accepts — under the
// weblog test schema or the suite's — Formats to text that parses again
// and Formats to the same text.
func FuzzParse(f *testing.F) {
	su := workload.NewSuite()
	schemas := []*cube.Schema{testSchema(f), su.Schema}
	for _, q := range []func() *workflow.Workflow{su.Q1, su.Q2, su.Q3, su.Q4, su.Q5, su.Q6} {
		f.Add(Format(q()))
	}
	for i := range 3 {
		w, err := su.DS(i)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(Format(w))
	}
	f.Add(weblogCQL)
	f.Add("MEASURE base = SUM(pages) AT (time:hour);\nMEASURE big = SCALE(1" + strings.Repeat("0", 308) + ", base) AT (time:hour);")
	f.Add("MEASURE base = SUM(pages) AT (time:hour);\nMEASURE pct = SCALE(100, base) AT (time:hour);")
	f.Add("MEASURE p90 = QUANTILE(0.9, ads) AT (keyword:group, time:hour);")
	f.Fuzz(func(t *testing.T, src string) {
		for _, s := range schemas {
			w, err := Parse(s, src)
			if err != nil {
				continue
			}
			text := Format(w)
			again, err := Parse(s, text)
			if err != nil {
				t.Fatalf("Format of an accepted source does not parse: %v\nsource: %q\nformatted: %q", err, src, text)
			}
			if got := Format(again); got != text {
				t.Fatalf("Format is not stable across a re-parse:\nfirst:  %q\nsecond: %q", text, got)
			}
		}
	})
}
