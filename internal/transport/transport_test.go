package transport

import (
	"context"
	"fmt"
	"math/rand"
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
func exercise(t *testing.T, factory Factory, reducers, mappers, pairsPerMapper int) {
	t.Helper()
	tr, err := factory(reducers)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	type addressed struct {
		r int
		p Pair
	}
	var mu sync.Mutex
	sent := make(map[int][]string) // reducer -> sorted payload strings

	var recvWG sync.WaitGroup
	received := make([][]string, reducers)
	for r := 0; r < reducers; r++ {
		r := r
		recvWG.Add(1)
		go func() {
			defer recvWG.Done()
			for ps := range tr.Receive(r) {
				for _, p := range ps {
					received[r] = append(received[r], string(p.Key)+"="+string(p.Value))
				}
			}
		}()
	}

	var sendWG sync.WaitGroup
	for m := 0; m < mappers; m++ {
		m := m
		sendWG.Add(1)
		go func() {
			defer sendWG.Done()
			rng := rand.New(rand.NewSource(int64(m)))
			for i := 0; i < pairsPerMapper; i++ {
				a := addressed{
					r: rng.Intn(reducers),
					p: pairS(fmt.Sprintf("k%d", rng.Intn(10)), []byte(fmt.Sprintf("m%d-i%d", m, i))),
				}
				if err := tr.Send(ctx, a.r, a.p); err != nil {
					t.Errorf("send: %v", err)
					return
				}
				mu.Lock()
				sent[a.r] = append(sent[a.r], string(a.p.Key)+"="+string(a.p.Value))
				mu.Unlock()
			}
		}()
	}
	sendWG.Wait()
	if err := tr.CloseSend(ctx); err != nil {
		t.Fatal(err)
	}
	recvWG.Wait()

	total := int64(0)
	for r := 0; r < reducers; r++ {
		got := append([]string(nil), received[r]...)
		want := append([]string(nil), sent[r]...)
		sort.Strings(got)
		sort.Strings(want)
		if len(got) != len(want) {
			t.Fatalf("reducer %d: got %d pairs, want %d", r, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("reducer %d: pair %d = %q, want %q", r, i, got[i], want[i])
			}
		}
		total += int64(len(got))
	}
	if total != int64(mappers*pairsPerMapper) {
		t.Fatalf("total pairs %d, want %d", total, mappers*pairsPerMapper)
	}
	if tr.BytesSent() <= 0 {
		t.Error("BytesSent not accounted")
	}
}

func TestChannelTransport(t *testing.T) {
	exercise(t, ChannelFactory(16), 4, 8, 500)
}

func TestSendAfterCloseFails(t *testing.T) {
	// The "channel" name level is kept only so test IDs stay stable.
	t.Run("channel", func(t *testing.T) {
		tr, err := NewChannel(2, 4)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		go func() {
			for range tr.Receive(0) {
			}
		}()
		go func() {
			for range tr.Receive(1) {
			}
		}()
		if err := tr.Send(ctx, 0, pairS("a", []byte("b"))); err != nil {
			t.Fatal(err)
		}
		if err := tr.CloseSend(ctx); err != nil {
			t.Fatal(err)
		}
		if err := tr.Send(ctx, 0, pairS("a", nil)); err == nil {
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
	if err := tr.Send(ctx, -1, Pair{}); err == nil {
		t.Error("negative reducer accepted")
	}
	if err := tr.Send(ctx, 2, Pair{}); err == nil {
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
	go func() {
		for range tr.Receive(0) {
		}
	}()
	tr.Send(ctx, 0, pairS("ab", []byte("cd")))
	tr.Send(ctx, 0, pairS("x", nil))
	if got := tr.BytesSent(); got != 5 {
		t.Errorf("BytesSent = %d, want 5", got)
	}
	tr.CloseSend(ctx)
}
