package casm_test

import (
	"math"
	"strings"
	"testing"

	casm "github.com/casm-project/casm"
)

// weblogSchema builds the paper's motivating schema through the public
// API only.
func weblogSchema() *casm.Schema {
	return casm.NewSchema(
		casm.MustAttribute("keyword", casm.Nominal, 100,
			casm.Level{Name: "word", Span: 1},
			casm.Level{Name: "group", Span: 10}),
		casm.MustAttribute("pages", casm.Numeric, 20, casm.Level{Name: "value", Span: 1}),
		casm.MustAttribute("ads", casm.Numeric, 20, casm.Level{Name: "value", Span: 1}),
		casm.TimeAttribute("time", 2),
	)
}

// weblogQuery is the paper's M1–M4 query through the fluent builder.
func weblogQuery(t *testing.T, s *casm.Schema) *casm.Query {
	t.Helper()
	q, err := casm.Build(s).
		Basic("M1", casm.Agg(casm.Median), "pages",
			casm.At("keyword", "word"), casm.At("time", "minute")).
		Basic("M2", casm.Agg(casm.Median), "ads",
			casm.At("keyword", "word"), casm.At("time", "hour")).
		Self("M3", casm.Ratio(), []string{"M1", "M2"},
			casm.At("keyword", "word"), casm.At("time", "minute")).
		Sliding("M4", casm.Agg(casm.Avg), "M3", casm.Window("time", -9, 0),
			casm.At("keyword", "word"), casm.At("time", "minute")).
		Done()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func genRecords(n int) []casm.Record {
	out := make([]casm.Record, n)
	seed := int64(12345)
	next := func(mod int64) int64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		v := (seed >> 33) % mod
		if v < 0 {
			v += mod
		}
		return v
	}
	for i := range out {
		out[i] = casm.Record{next(100), next(20), 1 + next(19), next(2 * 86400)}
	}
	return out
}

func TestPublicAPIEndToEnd(t *testing.T) {
	s := weblogSchema()
	q := weblogQuery(t, s)
	records := genRecords(3000)

	eng, err := casm.NewEngine(casm.Config{NumReducers: 4, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(q, casm.MemoryDataset(s, records, 6))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"M1", "M2", "M3", "M4"} {
		if len(res.Measures[m]) == 0 {
			t.Errorf("measure %s has no results", m)
		}
	}
	// M4 values are moving averages of ratios: positive, finite.
	for _, r := range res.Measures["M4"] {
		if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) || r.Value < 0 {
			t.Fatalf("implausible M4 value %v", r.Value)
		}
	}
	if res.Estimate.Total() <= 0 {
		t.Error("no simulated estimate")
	}
	// The plan must be the paper's overlapping hour key.
	if !res.Plan.Key.IsOverlapping() {
		t.Errorf("plan key not overlapping: %s", res.Plan.Key.Format(s))
	}
}

func TestPublicAPIStoreRoundTrip(t *testing.T) {
	s := weblogSchema()
	q := weblogQuery(t, s)
	records := genRecords(2000)

	st, err := casm.OpenStore(casm.StoreConfig{Dir: t.TempDir(), BlockSize: 8192, Replication: 3, NumNodes: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := casm.WriteRecords(st, "weblog", s, records); err != nil {
		t.Fatal(err)
	}
	ds, err := casm.StoreDataset(s, st, "weblog")
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumRecords != 2000 {
		t.Fatalf("store reports %d records", ds.NumRecords)
	}
	eng, err := casm.NewEngine(casm.Config{NumReducers: 3, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	storeRes, err := eng.Run(q, ds)
	if err != nil {
		t.Fatal(err)
	}
	memRes, err := eng.Run(q, casm.MemoryDataset(s, records, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Store-backed and memory-backed runs agree exactly.
	for name, mm := range memRes.Measures {
		dd := storeRes.Measures[name]
		if len(dd) != len(mm) {
			t.Fatalf("%s: %d vs %d records", name, len(dd), len(mm))
		}
		for i := range mm {
			if mm[i].Value != dd[i].Value {
				t.Fatalf("%s[%d]: %v vs %v", name, i, mm[i].Value, dd[i].Value)
			}
		}
	}
}

func TestDeriveKeyAndExplain(t *testing.T) {
	s := weblogSchema()
	q := weblogQuery(t, s)
	key, err := casm.DeriveKey(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := key.Format(s); got != "<keyword:word, time:hour(-1,0)>" {
		t.Errorf("minimal key = %s", got)
	}
	out, err := casm.Explain(q, 1_000_000, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"M4", "minimal feasible key", "plan:", "cand["} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}

func TestBuilderErrorsStick(t *testing.T) {
	s := weblogSchema()
	if _, err := casm.Build(s).
		Basic("a", casm.Agg(casm.Sum), "nope", casm.At("time", "minute")).
		Basic("b", casm.Agg(casm.Count), "").
		Done(); err == nil {
		t.Error("bad input attribute not reported")
	}
	if _, err := casm.Build(s).
		Basic("a", casm.Agg(casm.Count), "", casm.At("bogus", "minute")).
		Done(); err == nil {
		t.Error("bad grain attribute not reported")
	}
	if _, err := casm.Build(s).
		Basic("a", casm.Agg(casm.Count), "", casm.At("time", "minute")).
		Sliding("w", casm.Agg(casm.Sum), "a", casm.Window("ghost", -1, 0), casm.At("time", "minute")).
		Done(); err == nil {
		t.Error("bad window attribute not reported")
	}
	if _, err := casm.Build(s).Done(); err == nil {
		t.Error("empty query validated")
	}
}

func TestQuantileAggPublic(t *testing.T) {
	s := weblogSchema()
	q, err := casm.Build(s).
		Basic("p90", casm.QuantileAgg(0.9), "pages", casm.At("keyword", "group")).
		Done()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := casm.NewEngine(casm.Config{NumReducers: 2, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(q, casm.MemoryDataset(s, genRecords(1000), 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Measures["p90"]) == 0 {
		t.Error("no quantile results")
	}
}

func TestMappedAttributeAndCQLPublicAPI(t *testing.T) {
	schema := casm.NewSchema(
		casm.MustMappedAttribute("prod", 6,
			casm.MappedLevel{Name: "cat", Assign: []int64{0, 0, 1, 1, 2, 2}},
		),
		casm.MustAttribute("amt", casm.Numeric, 100, casm.Level{Name: "v", Span: 1}),
		casm.TimeAttribute("time", 2),
	)
	if _, err := casm.NewMappedAttribute("bad", 2,
		casm.MappedLevel{Name: "g", Assign: []int64{0}}); err == nil {
		t.Error("short assign accepted")
	}
	src := `
MEASURE rev = SUM(amt) AT (prod:cat, time:day);
MEASURE pts = DISTINCT(amt) AT (prod:cat, time:day);
MEASURE tot = ROLLUP SUM(rev) AT (time:day);
MEASURE back = INHERIT(tot) AT (prod:cat, time:day);
`
	q, err := casm.ParseQuery(schema, src)
	if err != nil {
		t.Fatal(err)
	}
	text := casm.FormatQuery(q)
	if !strings.Contains(text, "DISTINCT(amt)") || !strings.Contains(text, "INHERIT(tot)") {
		t.Errorf("FormatQuery output:\n%s", text)
	}
	q2, err := casm.ParseQuery(schema, text)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	eng, err := casm.NewEngine(casm.Config{
		NumReducers: 3,
		TempDir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	records := make([]casm.Record, 1000)
	for i := range records {
		records[i] = casm.Record{int64(i % 6), int64(i % 100), int64(i*97) % (2 * 86400)}
	}
	res, err := eng.Run(q2, casm.MemoryDataset(schema, records, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"rev", "pts", "tot", "back"} {
		if len(res.Measures[m]) == 0 {
			t.Errorf("measure %s empty", m)
		}
	}
}

func TestBuilderRollupInheritAndCluster(t *testing.T) {
	s := weblogSchema()
	q, err := casm.Build(s).
		Basic("base", casm.Agg(casm.Sum), "pages", casm.At("keyword", "word"), casm.At("time", "hour")).
		Rollup("daily", casm.Agg(casm.Max), "base", casm.At("keyword", "word"), casm.At("time", "day")).
		Inherit("back", "daily", casm.At("keyword", "word"), casm.At("time", "hour")).
		Self("norm", casm.Ratio(), []string{"base", "back"}, casm.At("keyword", "word"), casm.At("time", "hour")).
		Done()
	if err != nil {
		t.Fatal(err)
	}
	cl := casm.DefaultCluster()
	if cl.Slots() != 200 {
		t.Errorf("cluster slots = %d", cl.Slots())
	}
	eng, err := casm.NewEngine(casm.Config{NumReducers: 2, Cluster: cl, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(q, casm.MemoryDataset(s, genRecords(800), 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Measures["norm"]) == 0 {
		t.Error("no norm results")
	}
	// Every norm value is base/max(base over day) ∈ [0, 1] (0 when a
	// group's page sum is 0).
	for _, r := range res.Measures["norm"] {
		if r.Value < 0 || r.Value > 1+1e-9 {
			t.Fatalf("norm = %v outside [0,1]", r.Value)
		}
	}
}

func TestExplainOnMappedSchemaErrors(t *testing.T) {
	s := weblogSchema()
	if _, err := casm.ParseQuery(s, "MEASURE x = SUM(pages) AT"); err == nil {
		t.Error("truncated CQL accepted")
	}
	q := weblogQuery(t, s)
	if _, err := casm.Explain(q, 0, 4); err == nil {
		t.Error("zero records accepted by Explain")
	}
}
