package transport

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// ctx is the do-nothing context threaded through test sends; cancellation
// behavior gets its own tests.
var ctx = context.Background()

// pairS builds a Pair from a string key; test convenience only (the
// exported PairS shim is deprecated and has no internal callers).
func pairS(key string, value []byte) Pair {
	return Pair{Key: []byte(key), Value: value}
}

// exercise sends pairs from several concurrent "mappers" and verifies each
// reducer receives exactly the pairs addressed to it.
func exercise(t *testing.T, reducers, mappers, pairsPerMapper int) {
	t.Helper()
	tr, err := NewChannel(reducers, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var received [][]string
	collected := make(chan struct{})
	go func() { received = collectAll(tr, reducers); close(collected) }()
	var sendWG sync.WaitGroup
	sent := make([][][]string, mappers) // mapper -> reducer -> payload strings
	for m := range sent {
		sent[m] = make([][]string, reducers)
		sendWG.Add(1)
		go func() {
			defer sendWG.Done()
			rng := rand.New(rand.NewSource(int64(m)))
			for i := 0; i < pairsPerMapper; i++ {
				r, p := rng.Intn(reducers), pairS(fmt.Sprintf("k%d", rng.Intn(10)), []byte(fmt.Sprintf("m%d-i%d", m, i)))
				if err := tr.SendBatch(ctx, r, []Pair{p}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
				sent[m][r] = append(sent[m][r], string(p.Key)+"="+string(p.Value))
			}
		}()
	}
	sendWG.Wait()
	if err := tr.CloseSend(ctx); err != nil {
		t.Fatal(err)
	}
	<-collected

	total := 0
	for r, got := range received {
		var want []string
		for m := range sent {
			want = append(want, sent[m][r]...)
		}
		sort.Strings(want)
		if !slices.Equal(got, want) {
			t.Fatalf("reducer %d: got %d pairs, want %d, or their payloads differ", r, len(got), len(want))
		}
		total += len(got)
	}
	if total != mappers*pairsPerMapper {
		t.Fatalf("total pairs %d, want %d", total, mappers*pairsPerMapper)
	}
	if tr.BytesSent() <= 0 {
		t.Error("BytesSent not accounted")
	}
}

func TestChannelTransport(t *testing.T) {
	exercise(t, 4, 8, 500)
}

func TestSendAfterCloseFails(t *testing.T) {
	// The "channel" name level is kept only so test IDs stay stable.
	t.Run("channel", func(t *testing.T) {
		tr, err := NewChannel(2, 4)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		go collectAll(tr, 2)
		if err := tr.SendBatch(ctx, 0, []Pair{pairS("a", []byte("b"))}); err != nil {
			t.Fatal(err)
		}
		if err := tr.CloseSend(ctx); err != nil {
			t.Fatal(err)
		}
		if err := tr.SendBatch(ctx, 0, []Pair{pairS("a", nil)}); err == nil {
			t.Error("send after CloseSend succeeded")
		}
		if err := tr.CloseSend(ctx); err == nil {
			t.Error("double CloseSend succeeded")
		}
	})
}

func TestSendValidation(t *testing.T) {
	tr, err := NewChannel(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SendBatch(ctx, -1, []Pair{{}}); err == nil {
		t.Error("negative reducer accepted")
	}
	if err := tr.SendBatch(ctx, 2, []Pair{{}}); err == nil {
		t.Error("out-of-range reducer accepted")
	}
	if _, err := NewChannel(0, 4); err == nil {
		t.Error("zero reducers accepted")
	}
}

func TestPairSize(t *testing.T) {
	p := pairS("abc", []byte("defg"))
	if p.Size() != 7 {
		t.Errorf("size = %d", p.Size())
	}
}

func TestChannelBytesSentExact(t *testing.T) {
	tr, _ := NewChannel(1, 8)
	go collectAll(tr, 1)
	tr.SendBatch(ctx, 0, []Pair{pairS("ab", []byte("cd"))})
	tr.SendBatch(ctx, 0, []Pair{pairS("x", nil)})
	if got := tr.BytesSent(); got != 5 {
		t.Errorf("BytesSent = %d, want 5", got)
	}
	tr.CloseSend(ctx)
}
