package transport

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestChannelSendUnblocksOnCancel parks a sender on a full channel and
// verifies cancellation unblocks it with ctx.Err() — the guarantee mr's
// teardown relies on when collectors stop draining.
func TestChannelSendUnblocksOnCancel(t *testing.T) {
	tr, err := NewChannel(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cctx, cancel := context.WithCancel(context.Background())
	// Fill the single-batch buffer; nobody is receiving.
	if err := tr.SendBatch(cctx, 0, []Pair{pairS("a", nil)}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- tr.SendBatch(cctx, 0, []Pair{pairS("b", nil)}) }()
	select {
	case err := <-done:
		t.Fatalf("send returned %v before cancel on a full buffer", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("send did not unblock on cancel")
	}
}

// TestSendOnCancelledContextFails covers the between-batches check.
func TestSendOnCancelledContextFails(t *testing.T) {
	// The "channel" name level is kept only so test IDs stay stable.
	t.Run("channel", func(t *testing.T) {
		tr, err := NewChannel(1, 4)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		cctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := tr.SendBatch(cctx, 0, []Pair{pairS("a", nil)}); !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		if got := tr.BytesSent(); got != 0 {
			t.Fatalf("cancelled send accounted %d bytes", got)
		}
		// Teardown still runs on a dead context: receivers terminate.
		if err := tr.CloseSend(cctx); err != nil {
			t.Fatal(err)
		}
		for range tr.Receive(0) {
		}
	})
}
