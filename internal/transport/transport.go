// Package transport moves shuffled key/value pairs from mappers to
// reducers ("the result pairs are shuffled and dispatched to reducers")
// over in-memory channels, the engine's one shuffle transport. Transport
// stays an interface so the substrate's tests can substitute a fake with a
// different stream lifecycle.
//
// A Transport instance serves one job execution: mappers call SendBatch
// concurrently, then the driver calls CloseSend exactly once;
// each reducer drains its Receive channel until it is closed.
//
// Sends are context-aware: a sender blocked on reducer backpressure
// unblocks with ctx.Err() as soon as its context is cancelled, so a
// cancelled job's map tasks never deadlock against collectors that have
// stopped consuming. CloseSend also takes the context, but performs its
// channel-closing side even when the context is already cancelled —
// teardown must always run so receivers terminate.
//
// Delivery is batch-framed end to end: one []Pair slice moves per channel
// operation, so the synchronization cost drops by the batch factor.
// Senders that emit pair-at-a-time use a BatchWriter to accumulate
// per-reducer batches.
//
// Ownership: a batch slice passed to SendBatch is handed off to the
// transport and surfaces unchanged at the receiver — the caller must not
// reuse or mutate it, nor the Key/Value bytes it references, for the life
// of the job. Symmetrically, the bytes a receiver sees stay valid and
// unmodified for the life of the job, so reducer-side collectors may
// retain received Key/Value slices without copying. The slice itself the
// receiver gives back with RecycleBatch once it has taken the pairs out,
// for a BatchWriter's next batch, in this job or the next (pool.go).
package transport

import (
	"context"
	"fmt"
	"sync/atomic"
)

// Pair is one shuffled key/value pair. Key is the distribution block key
// and Value an opaque payload (a serialized record or partial aggregate);
// both are raw byte slices so the record data plane never round-trips
// through string allocations (see the package comment for ownership).
type Pair struct {
	Key   []byte
	Value []byte
}

// Size returns the pair's payload size in bytes, the unit of the cost
// model's transfer term.
func (p Pair) Size() int64 { return int64(len(p.Key) + len(p.Value)) }

// Transport delivers pairs to numbered reducers.
type Transport interface {
	// SendBatch delivers a batch of pairs to reducer r in one framed
	// operation. The transport takes ownership of ps (see the package
	// comment), and gives it back to its free list when it fails to
	// deliver it. Empty batches are a no-op. Safe for concurrent use; it
	// fails after CloseSend. A sender blocked on backpressure unblocks
	// with ctx.Err() when ctx is cancelled.
	SendBatch(ctx context.Context, r int, ps []Pair) error
	// CloseSend signals that no more pairs will be sent. Receive channels
	// close once their in-flight batches are drained. It always performs
	// teardown (closing the receive side); a cancelled ctx only lets the
	// implementation skip non-essential flushing of buffered data.
	CloseSend(ctx context.Context) error
	// Receive returns reducer r's input channel of batches. Each batch
	// holds at least one pair.
	Receive(r int) <-chan []Pair
	// BytesSent reports the total payload bytes sent so far.
	BytesSent() int64
	// BatchesSent reports the number of framed batch deliveries so far.
	BatchesSent() int64
	// Close releases resources. Call after all receivers are drained.
	Close() error
}

// channelTransport is the in-memory implementation.
type channelTransport struct {
	chans   []chan []Pair
	bytes   atomic.Int64
	batches atomic.Int64
	closed  atomic.Bool
}

// NewChannel returns an in-memory transport with the given per-reducer
// buffer in batches (a buffer < 1 defaults to 16: a collector busy with a
// spill does not stall the senders at once, and a job keeps at most a few
// thousand pairs per reducer in flight, which is what the batch free lists
// keep between jobs).
func NewChannel(numReducers, buffer int) (Transport, error) {
	if numReducers < 1 {
		return nil, fmt.Errorf("transport: reducer count %d < 1", numReducers)
	}
	if buffer < 1 {
		buffer = 16
	}
	t := &channelTransport{chans: make([]chan []Pair, numReducers)}
	for i := range t.chans {
		t.chans[i] = make(chan []Pair, buffer)
	}
	return t, nil
}

func (t *channelTransport) SendBatch(ctx context.Context, r int, ps []Pair) (err error) {
	if len(ps) == 0 {
		return nil
	}
	defer func() {
		if err != nil {
			RecycleBatch(ps) // undelivered
		}
	}()
	if t.closed.Load() {
		return fmt.Errorf("transport: send after CloseSend")
	}
	if r < 0 || r >= len(t.chans) {
		return fmt.Errorf("transport: reducer %d out of range [0,%d)", r, len(t.chans))
	}
	// Cancellation check before committing the counters: a cancelled
	// sender reports nothing delivered.
	if err := ctx.Err(); err != nil {
		return err
	}
	var bytes int64
	for i := range ps {
		bytes += ps[i].Size()
	}
	select {
	case t.chans[r] <- ps:
	case <-ctx.Done():
		// Blocked on backpressure when the job died: unblock without
		// delivering (the receiver may have stopped draining for good).
		return ctx.Err()
	}
	t.bytes.Add(bytes)
	t.batches.Add(1)
	return nil
}

func (t *channelTransport) CloseSend(ctx context.Context) error {
	if t.closed.Swap(true) {
		return fmt.Errorf("transport: CloseSend called twice")
	}
	// Closing the channels is teardown, not delivery: it runs even when
	// ctx is already cancelled, so receivers always terminate.
	for _, c := range t.chans {
		close(c)
	}
	return nil
}

func (t *channelTransport) Receive(r int) <-chan []Pair { return t.chans[r] }
func (t *channelTransport) BytesSent() int64            { return t.bytes.Load() }
func (t *channelTransport) BatchesSent() int64          { return t.batches.Load() }
func (t *channelTransport) Close() error                { return nil }
