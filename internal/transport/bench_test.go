package transport

import (
	"fmt"
	"sync"
	"testing"
)

// BenchmarkShuffleSubstrate isolates the transport cost from map/reduce
// work: pre-built pairs are pushed through a BatchWriter at batch size 1
// (pair-at-a-time framing) and at the default batch size, so the delta is
// purely the per-batch channel overhead that batching amortizes.
func BenchmarkShuffleSubstrate(b *testing.B) {
	const reducers = 4
	pairs := make([]Pair, 100_000)
	for i := range pairs {
		pairs[i] = pairS(fmt.Sprintf("g%d", i%997), []byte(fmt.Sprintf("%d", i)))
	}
	for _, size := range []int{1, 256} {
		// The "channel" name level is kept only so test IDs stay stable.
		b.Run(fmt.Sprintf("channel/batch=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr, err := NewChannel(reducers, 64)
				if err != nil {
					b.Fatal(err)
				}
				var wg sync.WaitGroup
				var got int64
				var mu sync.Mutex
				for r := 0; r < reducers; r++ {
					r := r
					wg.Add(1)
					go func() {
						defer wg.Done()
						n := int64(0)
						for ps := range tr.Receive(r) {
							n += int64(len(ps))
						}
						mu.Lock()
						got += n
						mu.Unlock()
					}()
				}
				bw := NewBatchWriter(ctx, tr, reducers, size)
				for j, p := range pairs {
					if err := bw.Send(j%reducers, p); err != nil {
						b.Fatal(err)
					}
				}
				if err := bw.Flush(); err != nil {
					b.Fatal(err)
				}
				if err := tr.CloseSend(ctx); err != nil {
					b.Fatal(err)
				}
				wg.Wait()
				if got != int64(len(pairs)) {
					b.Fatalf("delivered %d pairs", got)
				}
				tr.Close()
			}
			b.ReportMetric(float64(len(pairs)*b.N)/b.Elapsed().Seconds(), "pairs/s")
		})
	}
}
