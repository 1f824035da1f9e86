package transport

import "context"

// BatchWriter accumulates pairs into per-reducer batches for one sender
// (one map task) and ships each batch with a single SendBatch call when it
// reaches batchSize. It is NOT safe for concurrent use — each sending
// goroutine owns its own BatchWriter; the underlying transport handles the
// cross-sender concurrency.
//
// Ownership follows SendBatch: buffered pairs (and the bytes their Keys
// and Values reference) are handed off at flush time, so callers must
// treat every pair given to Send as owned by the transport from that
// point on.
type BatchWriter struct {
	ctx     context.Context
	tr      Transport
	size    int
	bufs    [][]Pair
	batches int64
}

// NewBatchWriter returns a writer shipping batches of batchSize pairs to
// tr under ctx: every flush is a context-aware SendBatch, so a sender
// blocked on backpressure unblocks when ctx is cancelled. The writer is
// owned by one sending task, whose lifetime the context spans — storing
// it here keeps the per-pair Send signature alloc-free. batchSize is
// clamped to [1, DefaultBatchPairs]; 1 ships every pair as a one-pair
// batch.
func NewBatchWriter(ctx context.Context, tr Transport, numReducers, batchSize int) *BatchWriter {
	if ctx == nil {
		ctx = context.Background()
	}
	return &BatchWriter{ctx: ctx, tr: tr, size: min(max(batchSize, 1), DefaultBatchPairs), bufs: make([][]Pair, numReducers)}
}

// Send buffers one pair for reducer r, flushing that reducer's batch if it
// is full. A reducer's batch grows until it is; its next is whole.
func (w *BatchWriter) Send(r int, p Pair) error {
	b := w.bufs[r]
	if len(b) == cap(b) {
		nb := append(getBatch(min(max(2*cap(b), 1), w.size)), b...)
		RecycleBatch(b)
		b = nb
	}
	if b = append(b, p); len(b) < w.size {
		w.bufs[r] = b
		return nil
	}
	w.bufs[r] = getBatch(w.size)
	w.batches++
	return w.tr.SendBatch(w.ctx, r, b)
}

// Flush ships every non-empty buffered batch. Call once at the end of the
// sender's emit stream, before the driver's CloseSend.
func (w *BatchWriter) Flush() error {
	for r, b := range w.bufs {
		if w.bufs[r] = nil; len(b) == 0 {
			RecycleBatch(b)
			continue
		}
		w.batches++
		if err := w.tr.SendBatch(w.ctx, r, b); err != nil {
			return err
		}
	}
	return nil
}

// Close gives back the batches not shipped: the sender's cleanup on every
// path, after Flush or in place of it.
func (w *BatchWriter) Close() {
	for r, b := range w.bufs {
		RecycleBatch(b)
		w.bufs[r] = nil
	}
}

// Batches reports how many batches this writer has shipped.
func (w *BatchWriter) Batches() int64 { return w.batches }
