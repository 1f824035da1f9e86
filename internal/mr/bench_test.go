package mr

import (
	"fmt"
	"strconv"
	"testing"

	"github.com/casm-project/casm/internal/transport"
)

// BenchmarkShuffleJob measures framework throughput (map + shuffle +
// group + reduce) on a grouping job.
func BenchmarkShuffleJob(b *testing.B) {
	records := make([][]byte, 100_000)
	for i := range records {
		records[i] = []byte(fmt.Sprintf("g%d %d", i%997, i))
	}
	job := func(dir string) Job[transport.Pair] {
		return Job[transport.Pair]{
			Input: indexInput(len(records), 8),
			Map: perRow(func(ctx *MapCtx, row []int64) error {
				rec := records[row[0]]
				for j := 0; j < len(rec); j++ {
					if rec[j] == ' ' {
						// Zero-copy emit: the records are stable for the
						// job's life, so key and value alias them directly.
						return ctx.Emit(rec[:j], rec[j+1:])
					}
				}
				return nil
			}),
			Reduce: func(ctx *ReduceCtx[transport.Pair], key []byte, values *GroupIter) error {
				n := 0
				for {
					_, ok, err := values.Next()
					if err != nil {
						return err
					}
					if !ok {
						break
					}
					n++
				}
				emitPair(ctx, key, []byte(strconv.Itoa(n)))
				return nil
			},
			Config: Config{NumReducers: 4, TempDir: dir},
		}
	}
	dir := b.TempDir()
	for i := 0; i < b.N; i++ {
		res, err := Run(job(dir))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Output) != 997 {
			b.Fatalf("groups = %d", len(res.Output))
		}
	}
	b.ReportMetric(float64(len(records)*b.N)/b.Elapsed().Seconds(), "records/s")
}
