package workload

import (
	"fmt"
	"testing"

	"github.com/casm-project/casm/internal/blockstore"
	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/distkey"
	"github.com/casm-project/casm/internal/recio"
	"github.com/casm-project/casm/internal/workflow"
)

func TestSchemaShape(t *testing.T) {
	s := NewSuite().Schema
	if s.NumAttrs() != 6 {
		t.Fatalf("attrs = %d", s.NumAttrs())
	}
	a1, _ := s.AttrIndex("a1")
	if got := s.Attr(a1).Card(); got != 256 {
		t.Errorf("a1 card = %d", got)
	}
	if got := s.Attr(a1).NumLevels(); got != 5 { // value,low,mid,high,ALL
		t.Errorf("a1 levels = %d", got)
	}
	hi, _ := s.Attr(a1).LevelIndex("high")
	if got := s.Attr(a1).CardAt(hi); got != 4 {
		t.Errorf("a1 high card = %d", got)
	}
	t1, _ := s.AttrIndex("t1")
	if got := s.Attr(t1).Card(); got != 20*86400 {
		t.Errorf("t1 card = %d", got)
	}
}

func TestGenerateDistributions(t *testing.T) {
	su := NewSuite()
	uni := su.Generate(5000, Uniform, 1)
	skew := su.Generate(5000, SkewedTime, 1)
	if len(uni) != 5000 || len(skew) != 5000 {
		t.Fatal("wrong sizes")
	}
	for _, r := range append(uni, skew...) {
		if err := su.Schema.Validate(r); err != nil {
			t.Fatalf("invalid record: %v", err)
		}
	}
	t1, _ := su.Schema.AttrIndex("t1")
	lateUni, lateSkew := 0, 0
	for i := range uni {
		if uni[i][t1] >= SkewDays*86400 {
			lateUni++
		}
		if skew[i][t1] >= SkewDays*86400 {
			lateSkew++
		}
	}
	if lateSkew != 0 {
		t.Errorf("skewed data has %d records after day %d", lateSkew, SkewDays)
	}
	if lateUni < 3000 { // expect ~75%
		t.Errorf("uniform data suspiciously early: %d/5000 late", lateUni)
	}
	// Determinism.
	again := su.Generate(5000, Uniform, 1)
	for i := range uni {
		for j := range uni[i] {
			if uni[i][j] != again[i][j] {
				t.Fatal("generation not deterministic")
			}
		}
	}
}

func TestAllQueriesValidate(t *testing.T) {
	su := NewSuite()
	for n := 1; n <= 6; n++ {
		w, err := su.Query(n)
		if err != nil {
			t.Fatalf("Q%d: %v", n, err)
		}
		if err := w.Validate(); err != nil {
			t.Errorf("Q%d invalid: %v", n, err)
		}
		if _, _, err := distkey.Derive(w); err != nil {
			t.Errorf("Q%d key derivation: %v", n, err)
		}
	}
	if _, err := su.Query(7); err == nil {
		t.Error("Q7 accepted")
	}
	for i := 0; i <= 2; i++ {
		w, err := su.DS(i)
		if err != nil {
			t.Fatalf("DS%d: %v", i, err)
		}
		if err := w.Validate(); err != nil {
			t.Errorf("DS%d invalid: %v", i, err)
		}
	}
	if _, err := su.DS(3); err == nil {
		t.Error("DS3 accepted")
	}
}

func TestQueryShapes(t *testing.T) {
	su := NewSuite()
	if su.Q1().HasSibling() || su.Q2().HasSibling() || su.Q3().HasSibling() || su.Q4().HasSibling() {
		t.Error("Q1-Q4 must not contain sibling relations")
	}
	if !su.Q5().HasSibling() || !su.Q6().HasSibling() {
		t.Error("Q5/Q6 must contain sibling relations")
	}
	if got := len(su.Q3().Measures()); got != 5 {
		t.Errorf("Q3 has %d measures, want 5", got)
	}
	// Q6 exercises all four composite relationships.
	kinds := map[workflow.Kind]bool{}
	for _, m := range su.Q6().Measures() {
		kinds[m.Kind] = true
	}
	for _, k := range []workflow.Kind{workflow.Basic, workflow.Self, workflow.Rollup, workflow.Inherit, workflow.Sliding} {
		if !kinds[k] {
			t.Errorf("Q6 missing relationship %v", k)
		}
	}
	// Q5/Q6 minimal keys must be overlapping.
	for _, q := range []int{5, 6} {
		w, _ := su.Query(q)
		key, _, err := distkey.Derive(w)
		if err != nil {
			t.Fatal(err)
		}
		if !key.IsOverlapping() {
			t.Errorf("Q%d minimal key not overlapping: %s", q, key.Format(su.Schema))
		}
	}
}

func TestWriteStoreRoundTrip(t *testing.T) {
	su := NewSuite()
	records := su.Generate(2000, Uniform, 3)
	st, err := blockstore.Open(blockstore.Config{Dir: t.TempDir(), BlockSize: 4096, Replication: 2, NumNodes: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := WriteStore(st, "data", su.Schema, records); err != nil {
		t.Fatal(err)
	}
	info, err := st.FileInfo("data")
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != int64(len(records)) {
		t.Fatalf("store holds %d records, want %d", info.Records, len(records))
	}
	if info.SchemaDigest != workflow.SchemaDigest(su.Schema) {
		t.Fatalf("schema digest %q not recorded", info.SchemaDigest)
	}
	arity := su.Schema.NumAttrs()
	var back int
	blocks, err := st.Blocks("data")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		data, err := st.ReadBlock("data", b.Index)
		if err != nil {
			t.Fatal(err)
		}
		fr := recio.NewFrameReader(data)
		for {
			payload, ok, err := fr.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if err := recio.DecodeRecordInto(payload, make(cube.Record, arity)); err != nil {
				t.Fatal(err)
			}
			back++
		}
	}
	if back != len(records) {
		t.Fatalf("got %d records back, want %d", back, len(records))
	}
}

func TestGenerateOptsZipf(t *testing.T) {
	su := NewSuite()
	recs, err := su.GenerateOpts(GenOpts{N: 10000, Seed: 7, Zipf: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := su.Schema.Validate(r); err != nil {
			t.Fatalf("invalid record: %v", err)
		}
	}
	// Zipf with exponent 2 concentrates mass heavily: the single hottest
	// a1 value must dwarf a uniform share (10000/256 ≈ 39).
	freq := map[int64]int{}
	for _, r := range recs {
		freq[r[0]]++
	}
	max := 0
	for _, c := range freq {
		if c > max {
			max = c
		}
	}
	if max < 1000 {
		t.Errorf("hottest a1 value has %d/10000 records; zipf(2) should concentrate far more", max)
	}
	// Determinism.
	again, _ := su.GenerateOpts(GenOpts{N: 10000, Seed: 7, Zipf: 2})
	for i := range recs {
		for j := range recs[i] {
			if recs[i][j] != again[i][j] {
				t.Fatal("zipf generation not deterministic")
			}
		}
	}
	// Invalid exponents are rejected, not silently accepted.
	if _, err := su.GenerateOpts(GenOpts{N: 10, Zipf: 0.5}); err == nil {
		t.Error("zipf 0.5 accepted")
	}
	if _, err := su.GenerateOpts(GenOpts{N: 10, Zipf: 1}); err == nil {
		t.Error("zipf 1 accepted")
	}
}

func TestGenerateOptsLayouts(t *testing.T) {
	su := NewSuite()
	opts := GenOpts{N: 5000, Seed: 3, Zipf: 1.5}

	clustered, err := su.GenerateOpts(GenOpts{N: opts.N, Seed: opts.Seed, Zipf: opts.Zipf, Layout: LayoutClustered})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(clustered); i++ {
		if clustered[i][0] < clustered[i-1][0] {
			t.Fatal("clustered layout not sorted by a1")
		}
	}

	adv, err := su.GenerateOpts(GenOpts{N: opts.N, Seed: opts.Seed, Zipf: opts.Zipf, Layout: LayoutAdversarial})
	if err != nil {
		t.Fatal(err)
	}
	// Hottest cluster last: the final record's a1 value must be the most
	// frequent one, and frequencies must be non-decreasing along the file.
	freq := map[int64]int{}
	for _, r := range adv {
		freq[r[0]]++
	}
	for i := 1; i < len(adv); i++ {
		if freq[adv[i][0]] < freq[adv[i-1][0]] {
			t.Fatal("adversarial layout not ordered by ascending a1 frequency")
		}
	}
	best := int64(-1)
	for v, c := range freq {
		if best < 0 || c > freq[best] {
			best = v
		}
	}
	if adv[len(adv)-1][0] != best {
		t.Errorf("last record's a1 = %d, want hottest value %d", adv[len(adv)-1][0], best)
	}

	// Layouts permute, never alter, the record multiset.
	shuffled, _ := su.GenerateOpts(GenOpts{N: opts.N, Seed: opts.Seed, Zipf: opts.Zipf})
	count := func(recs []cube.Record) map[string]int {
		m := map[string]int{}
		for _, r := range recs {
			m[fmt.Sprint([]int64(r))]++
		}
		return m
	}
	want := count(shuffled)
	for name, got := range map[string]map[string]int{"clustered": count(clustered), "adversarial": count(adv)} {
		if len(got) != len(want) {
			t.Fatalf("%s layout changed the record multiset", name)
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("%s layout changed the record multiset at %s", name, k)
			}
		}
	}
}

func TestParseLayout(t *testing.T) {
	for s, want := range map[string]Layout{"shuffled": LayoutShuffled, "": LayoutShuffled, "clustered": LayoutClustered, "adversarial": LayoutAdversarial} {
		got, err := ParseLayout(s)
		if err != nil || got != want {
			t.Errorf("ParseLayout(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseLayout("sorted"); err == nil {
		t.Error("bogus layout accepted")
	}
}
