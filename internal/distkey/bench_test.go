package distkey

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/casm-project/casm/internal/cube"
)

// blocksForCases are the key shapes the mapper benchmark sweeps: the
// non-overlapping fast path, a wide overlapping annotation, and the same
// annotation tamed by clustering.
var blocksForCases = []struct {
	name string
	ann  Ann
	cf   int64
}{
	{"plain", Ann{}, 1},
	{"overlap_d9_cf1", Ann{Low: -9, High: 0}, 1},
	{"overlap_d9_cf10", Ann{Low: -9, High: 0}, 10},
}

// benchRecords builds the benchmark's record stream. Clustered order
// (ascending along t, how a sorted fact table arrives) exercises the
// session's last-block fast path; shuffled order falls back to the intern
// map.
func benchRecords(b *testing.B, clustered bool) []cube.Record {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	records := make([]cube.Record, 10_000)
	for i := range records {
		records[i] = cube.Record{rng.Int63n(100), rng.Int63n(4 * 86400)}
	}
	if clustered {
		slices.SortFunc(records, func(a, c cube.Record) int {
			if a[1] != c[1] {
				return int(a[1] - c[1])
			}
			return int(a[0] - c[0])
		})
	}
	return records
}

func benchMapper(b *testing.B, s *cube.Schema, ann Ann, cf int64) *BlockMapper {
	b.Helper()
	ti, _ := s.AttrIndex("t")
	key := FromGrain(s.MustGrain(cube.GrainSpec{Attr: "k", Level: "group"}, cube.GrainSpec{Attr: "t", Level: "hour"}))
	key.Anns[ti] = ann
	bm, err := NewBlockMapper(s, key, cf)
	if err != nil {
		b.Fatal(err)
	}
	return bm
}

// BenchmarkBlocksFor measures the mapper's key-generation hot path: one
// Session held across the record stream, the shape core's map tasks use.
// Run with -benchmem; the overlapping variants are the ones the interned
// session path is meant to flatten.
func BenchmarkBlocksFor(b *testing.B) {
	s := blockSchema(b)
	for _, c := range blocksForCases {
		for _, order := range []string{"clustered", "shuffled"} {
			b.Run(c.name+"/"+order, func(b *testing.B) {
				bm := benchMapper(b, s, c.ann, c.cf)
				records := benchRecords(b, order == "clustered")
				ss := bm.NewSession()
				var emitted int
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, rec := range records {
						emitted += len(ss.Blocks(rec))
					}
				}
				b.ReportMetric(float64(emitted)/float64(b.N*len(records)), "pairs/record")
			})
		}
	}
}

// BenchmarkBlocksForPerCall measures a fresh Session per record, the
// shape this package's session refactor replaced — kept as the
// comparison baseline.
func BenchmarkBlocksForPerCall(b *testing.B) {
	s := blockSchema(b)
	for _, c := range blocksForCases {
		b.Run(c.name, func(b *testing.B) {
			bm := benchMapper(b, s, c.ann, c.cf)
			records := benchRecords(b, false)
			var emitted int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, rec := range records {
					emitted += len(bm.NewSession().Blocks(rec))
				}
			}
			b.ReportMetric(float64(emitted)/float64(b.N*len(records)), "pairs/record")
		})
	}
}

// BenchmarkDerive measures minimal-key derivation on a weblog-style
// workflow.
func BenchmarkDerive(b *testing.B) {
	w := weblogWorkflow(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Derive(w); err != nil {
			b.Fatal(err)
		}
	}
}
