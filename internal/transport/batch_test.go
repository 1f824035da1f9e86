package transport

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// collectAll drains every reducer channel concurrently and returns the
// multiset of delivered pairs per reducer, formatted "key=value".
func collectAll(tr Transport, reducers int) [][]string {
	received := make([][]string, reducers)
	var wg sync.WaitGroup
	for r := 0; r < reducers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ps := range tr.Receive(r) {
				for _, p := range ps {
					received[r] = append(received[r], string(p.Key)+"="+string(p.Value))
				}
			}
		}()
	}
	wg.Wait()
	for r := range received {
		sort.Strings(received[r])
	}
	return received
}

// TestBatchedEqualsPerPair is the batching equivalence property: routing a
// pair stream through a BatchWriter (any batch size) must deliver exactly
// the same multiset of pairs to each reducer as sending pair-at-a-time.
func TestBatchedEqualsPerPair(t *testing.T) {
	const reducers, senders, pairsPerSender = 3, 4, 400

	// Deterministic pair stream per sender.
	pairStream := func(s int) []Pair {
		rng := rand.New(rand.NewSource(int64(100 + s)))
		ps := make([]Pair, pairsPerSender)
		for i := range ps {
			ps[i] = pairS(fmt.Sprintf("k%d", rng.Intn(50)), []byte(fmt.Sprintf("s%d-i%d", s, i)))
		}
		return ps
	}
	route := func(p Pair) int { return int(p.Key[1]-'0') % reducers }

	run := func(t *testing.T, batchSize int) [][]string {
		t.Helper()
		tr, err := NewChannel(reducers, 8)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		var recvResult [][]string
		var recvWG sync.WaitGroup
		recvWG.Add(1)
		go func() {
			defer recvWG.Done()
			recvResult = collectAll(tr, reducers)
		}()
		var sendWG sync.WaitGroup
		for s := 0; s < senders; s++ {
			s := s
			sendWG.Add(1)
			go func() {
				defer sendWG.Done()
				bw := NewBatchWriter(ctx, tr, reducers, batchSize)
				for _, p := range pairStream(s) {
					if err := bw.Send(route(p), p); err != nil {
						t.Errorf("send: %v", err)
						return
					}
				}
				if err := bw.Flush(); err != nil {
					t.Errorf("flush: %v", err)
				}
			}()
		}
		sendWG.Wait()
		if err := tr.CloseSend(ctx); err != nil {
			t.Fatal(err)
		}
		recvWG.Wait()
		return recvResult
	}

	// The "channel" name level is kept only so test IDs stay stable.
	t.Run("channel", func(t *testing.T) {
		baseline := run(t, 1) // per-pair: BatchWriter passthrough
		for _, size := range []int{2, 3, 16, 256, 1024} {
			got := run(t, size)
			for r := 0; r < reducers; r++ {
				if len(got[r]) != len(baseline[r]) {
					t.Fatalf("size %d reducer %d: %d pairs, want %d",
						size, r, len(got[r]), len(baseline[r]))
				}
				for i := range got[r] {
					if got[r][i] != baseline[r][i] {
						t.Fatalf("size %d reducer %d pair %d: %q != %q",
							size, r, i, got[r][i], baseline[r][i])
					}
				}
			}
		}
	})
}

func TestSendBatchEmptyIsNoOp(t *testing.T) {
	tr, err := NewChannel(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	done := make(chan int)
	go func() {
		n := 0
		for ps := range tr.Receive(0) {
			n += len(ps)
		}
		done <- n
	}()
	if err := tr.SendBatch(ctx, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := tr.SendBatch(ctx, 0, []Pair{}); err != nil {
		t.Fatal(err)
	}
	if err := tr.SendBatch(ctx, 0, []Pair{pairS("a", []byte("b"))}); err != nil {
		t.Fatal(err)
	}
	if err := tr.CloseSend(ctx); err != nil {
		t.Fatal(err)
	}
	if n := <-done; n != 1 {
		t.Errorf("delivered %d pairs, want 1", n)
	}
	if tr.BatchesSent() != 1 {
		t.Errorf("BatchesSent = %d, want 1", tr.BatchesSent())
	}
}

func TestBatchWriterCounts(t *testing.T) {
	tr, err := NewChannel(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range tr.Receive(r) {
			}
		}()
	}
	bw := NewBatchWriter(ctx, tr, 2, 4)
	for i := 0; i < 10; i++ { // reducer 0: 10 pairs -> 2 full + 1 partial
		if err := bw.Send(0, Pair{Key: []byte("k"), Value: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Send(1, pairS("k", nil)); err != nil { // reducer 1: 1 partial
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := bw.Batches(); got != 4 {
		t.Errorf("Batches = %d, want 4 (2 full + 2 residual)", got)
	}
	if err := tr.CloseSend(ctx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if tr.BatchesSent() != 4 {
		t.Errorf("transport BatchesSent = %d, want 4", tr.BatchesSent())
	}
}
