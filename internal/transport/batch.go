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
// it here keeps the per-pair Send signature alloc-free. A batchSize < 2
// ships every pair as a one-pair batch.
func NewBatchWriter(ctx context.Context, tr Transport, numReducers, batchSize int) *BatchWriter {
	if batchSize < 1 {
		batchSize = 1
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return &BatchWriter{ctx: ctx, tr: tr, size: batchSize, bufs: make([][]Pair, numReducers)}
}

// Send buffers one pair for reducer r, flushing that reducer's batch if it
// is full.
func (w *BatchWriter) Send(r int, p Pair) error {
	if w.bufs[r] == nil {
		w.bufs[r] = GetBatch(w.size)
	}
	w.bufs[r] = append(w.bufs[r], p)
	if len(w.bufs[r]) >= w.size {
		return w.flushReducer(r)
	}
	return nil
}

func (w *BatchWriter) flushReducer(r int) error {
	ps := w.bufs[r]
	w.bufs[r] = nil // the transport owns ps now; next batch gets a fresh buffer
	if len(ps) == 0 {
		return nil
	}
	w.batches++
	return w.tr.SendBatch(w.ctx, r, ps)
}

// Flush ships every non-empty buffered batch. Call once at the end of the
// sender's emit stream, before the driver's CloseSend.
func (w *BatchWriter) Flush() error {
	for r := range w.bufs {
		if err := w.flushReducer(r); err != nil {
			return err
		}
	}
	return nil
}

// Batches reports how many batches this writer has shipped.
func (w *BatchWriter) Batches() int64 { return w.batches }
