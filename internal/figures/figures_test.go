package figures

import (
	"context"
	"strings"
	"testing"
)

// tiny returns a configuration small enough for unit tests. Beside
// executing and rendering each panel, the tests below hold the paper's
// claims that survive this scale (see claims_test.go).
func tiny(t *testing.T) Config {
	return Config{Scale: 0.02, Reducers: 4, TempDir: t.TempDir(), Seed: 1}
}

func TestFig4a(t *testing.T) {
	p, err := Fig4a(context.Background(), tiny(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Seconds) != len(p.Sizes) || len(p.Seconds[0]) != len(p.Queries) {
		t.Fatalf("shape: %dx%d", len(p.Seconds), len(p.Seconds[0]))
	}
	for i := range p.Seconds {
		for j := range p.Seconds[i] {
			if p.Seconds[i][j] <= 0 {
				t.Errorf("cell %d,%d not positive", i, j)
			}
		}
	}
	reportClaims(t, "a", claimsA(p, 0.5))
	tab := p.Table().String()
	for _, want := range []string{"Figure 4(a)", "Q1", "Q6"} {
		if !strings.Contains(tab, want) {
			t.Errorf("table missing %q", want)
		}
	}
}

func TestFig4b(t *testing.T) {
	p, err := Fig4b(context.Background(), tiny(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rate) != len(p.Reducers) {
		t.Fatalf("rows = %d", len(p.Rate))
	}
	reportClaims(t, "b", claimsB(p))
	if !strings.Contains(p.Table().String(), "speed-up") {
		t.Error("table title missing")
	}
}

func TestFig4c(t *testing.T) {
	p, err := Fig4c(context.Background(), tiny(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Measured) != len(p.Factors) || len(p.Predicted) != len(p.Factors) {
		t.Fatal("series lengths differ")
	}
	if p.OptimalCF < 1 {
		t.Errorf("optimal cf = %d", p.OptimalCF)
	}
	if !strings.Contains(p.Table().String(), "clustering factor") {
		t.Error("table title missing")
	}
}

func TestFig4d(t *testing.T) {
	p, err := Fig4d(context.Background(), tiny(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Seconds) != 4 || p.Combined <= 0 {
		t.Fatalf("%+v", p)
	}
	reportClaims(t, "d", claimsD(p))
	if !strings.Contains(p.Table().String(), "Map-Only") {
		t.Error("table missing stage")
	}
}

func TestFig4e(t *testing.T) {
	p, err := Fig4e(context.Background(), tiny(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.With) != 3 || len(p.Without) != 3 {
		t.Fatalf("%+v", p)
	}
	reportClaims(t, "e", claimsE(p, 1))
	if !strings.Contains(p.Table().String(), "DS2") {
		t.Error("table missing DS2")
	}
}

func TestFig4f(t *testing.T) {
	p, err := Fig4f(context.Background(), tiny(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Seconds) != 4 {
		t.Fatalf("%+v", p)
	}
	if p.SampleOverhead <= 0 {
		t.Error("sampling overhead not recorded")
	}
	if !strings.Contains(p.Table().String(), "Sampling") {
		t.Error("table missing Sampling row")
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{
		Title:   "demo",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"1", "2"}, {"333333", "4"}},
	}
	s := tab.String()
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "=== demo") {
		t.Errorf("title line %q", lines[0])
	}
}
