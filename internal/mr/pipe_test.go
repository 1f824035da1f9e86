package mr

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/casm-project/casm/internal/exec"
	"github.com/casm-project/casm/internal/transport"
)

// TestPipeStreamsMatchRun pins the streaming plane's equivalence with the
// materialized one (same job, same pairs) and the Pipe's Iter contract:
// Next latches ok=false after exhaustion, Close after exhaustion is a
// no-op, and double Close is idempotent.
func TestPipeStreamsMatchRun(t *testing.T) {
	cfg := Config{NumReducers: 3, SortMemoryItems: 2, GroupBy: fullKey, TempDir: t.TempDir()}
	res, err := Run(sumJob(3000, cfg))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(res.Output))
	for i, p := range res.Output {
		want[i] = string(p.Key) + "=" + string(p.Value)
	}
	sort.Strings(want)

	cfg.TempDir = t.TempDir()
	pipe, err := RunPipe(context.Background(), sumJob(3000, cfg))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for {
		p, ok, err := pipe.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, string(p.Key)+"="+string(p.Value))
	}
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("streamed output diverges from materialized: %d vs %d pairs", len(got), len(want))
	}

	// Exhaustion latches: every further Next is ok=false with no error.
	for i := 0; i < 3; i++ {
		if _, ok, err := pipe.Next(); ok || err != nil {
			t.Fatalf("Next after exhaustion: ok=%v err=%v", ok, err)
		}
	}
	if pipe.Stats().TotalOutputRecords() != int64(len(got)) {
		t.Fatalf("stats output count %d != streamed %d", pipe.Stats().TotalOutputRecords(), len(got))
	}
	if err := pipe.Close(); err != nil {
		t.Fatalf("Close after exhaustion: %v", err)
	}
	if err := pipe.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
	if _, ok, err := pipe.Next(); ok || err != nil {
		t.Fatalf("Next after Close: ok=%v err=%v", ok, err)
	}
}

// TestPipeCloseMidStreamReleasesSpillState extends the cancellation FD
// matrix to the streaming consumer's early exit: abandoning a Pipe — both
// before any output arrived (job mid-map) and after consuming one batch
// (sibling reducers mid-collect, spill runs on disk) — must tear the job
// down like a context cancel: Close returns nil (deliberate abandonment
// is not an error), the spill dir is empty, no descriptor into it stays
// open, and the process returns to its goroutine baseline.
func TestPipeCloseMidStreamReleasesSpillState(t *testing.T) {
	if _, err := Run(sumJob(500, Config{NumReducers: 2, TempDir: t.TempDir()})); err != nil {
		t.Fatal(err) // warm the shared executor before baselining
	}
	baseline := settleGoroutines(t)

	for _, point := range []string{"immediate", "after-first-batch"} {
		// The "channel" name level is kept only so test IDs stay stable.
		t.Run("channel/"+point, func(t *testing.T) {
			dir := t.TempDir()
			pipe, err := RunPipe(context.Background(), sumJob(6000, Config{
				NumReducers:     3,
				Transport:       transport.ChannelFactory(4), // small buffer: senders sit on backpressure
				SortMemoryItems: 2,                           // spill every third pair
				GroupBy:         fullKey,
				TempDir:         dir,
			}))
			if err != nil {
				t.Fatal(err)
			}
			if point == "after-first-batch" {
				if _, _, ok, err := pipe.NextBatch(); !ok || err != nil {
					t.Fatalf("first batch: ok=%v err=%v", ok, err)
				}
			}
			if err := pipe.Close(); err != nil {
				t.Fatalf("mid-stream Close: %v", err)
			}
			if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
				t.Fatalf("spill dir not empty after Close: %v entries, err=%v", len(ents), err)
			}
			if fds := openFDsInDir(t, dir); len(fds) != 0 {
				t.Fatalf("spill descriptors leaked: %v", fds)
			}
			if _, _, ok, err := pipe.NextBatch(); ok || !errors.Is(err, ErrClosed) {
				t.Fatalf("NextBatch after Close: ok=%v err=%v, want ErrClosed", ok, err)
			}
			// Close stays idempotent after the abandoned read.
			if err := pipe.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
		})
	}
	waitForGoroutines(t, baseline)
}

// earlyCloseTransport is the pipelining probe: a shuffle transport for a
// single reducer whose receive stream ends at the FIRST batch (later
// sends are dropped). It makes "this reducer's senders are done" happen
// while map tasks still run, so the per-reducer readiness path — collect
// completes → reduce runs → output flows — is observable mid-map without
// waiting for the global CloseSend barrier.
type earlyCloseTransport struct {
	ch        chan []transport.Pair
	delivered atomic.Bool
	mu        sync.Mutex
	bytes     atomic.Int64
	batches   atomic.Int64
}

func newEarlyCloseTransport(numReducers int) (transport.Transport, error) {
	if numReducers != 1 {
		return nil, fmt.Errorf("earlyCloseTransport: single reducer only, got %d", numReducers)
	}
	return &earlyCloseTransport{ch: make(chan []transport.Pair, 1)}, nil
}

func (e *earlyCloseTransport) Send(ctx context.Context, r int, p transport.Pair) error {
	return e.SendBatch(ctx, r, []transport.Pair{p})
}

func (e *earlyCloseTransport) SendBatch(ctx context.Context, r int, ps []transport.Pair) error {
	if len(ps) == 0 {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.delivered.Load() {
		return nil // stream over: drop (the probe only needs one batch through)
	}
	for _, p := range ps {
		e.bytes.Add(p.Size())
	}
	e.batches.Add(1)
	e.ch <- ps
	close(e.ch)
	e.delivered.Store(true)
	return nil
}

func (e *earlyCloseTransport) CloseSend(ctx context.Context) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.delivered.Load() {
		close(e.ch)
		e.delivered.Store(true)
	}
	return nil
}

func (e *earlyCloseTransport) Receive(r int) <-chan []transport.Pair { return e.ch }
func (e *earlyCloseTransport) BytesSent() int64                      { return e.bytes.Load() }
func (e *earlyCloseTransport) BatchesSent() int64                    { return e.batches.Load() }
func (e *earlyCloseTransport) Close() error                          { return nil }

// TestPipelinedFirstOutputBeforeMapDone is the pipelining acceptance
// test: on a 1M-record job whose single reducer's stream ends early (see
// earlyCloseTransport), the first output batch must reach the consumer
// BEFORE the map phase completes — stage-timestamp overlap, stats.
// FirstOutput < stats.MapDone — proving the collect→reduce barrier is
// gone. A map-side gate makes the ordering deterministic instead of
// lucky: one map task blocks mid-phase until the consumer has actually
// observed output, so a regression to barrier scheduling deadlocks the
// gate (30s timeout) rather than flaking.
func TestPipelinedFirstOutputBeforeMapDone(t *testing.T) {
	const n = 1_000_000
	// A dedicated multi-worker pool: the gated map task parks on a pooled
	// worker, so the reduce task needs another worker to run concurrently
	// (the process-default pool has GOMAXPROCS workers — possibly one).
	ex := exec.New(4)
	defer ex.Close()

	rec := []byte("1")
	records := make([][]byte, n)
	for i := range records {
		records[i] = rec
	}
	key := []byte("g")

	outputSeen := make(chan struct{})
	var mapped atomic.Int64
	job := Job{
		Name:  "pipelined",
		Input: NewMemoryInput(records, 16),
		Map: func(ctx *MapCtx, record []byte) error {
			if mapped.Add(1) == n/2 {
				select {
				case <-outputSeen:
				case <-time.After(30 * time.Second):
					return fmt.Errorf("map gate timeout: no output reached the consumer while the map phase was still running")
				}
			}
			return ctx.Emit(key, record)
		},
		Reduce: func(ctx *ReduceCtx, key []byte, values *GroupIter) error {
			total := 0
			for {
				_, ok, err := values.Next()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				total++
			}
			ctx.Emit(key, []byte(strconv.Itoa(total)))
			return nil
		},
		Config: Config{
			NumReducers:       1,
			Executor:          ex,
			MapParallelism:    1, // one map task at a time: the gate parks exactly one worker
			ShuffleBatchPairs: 1, // the very first emit flushes a batch to the reducer
			Transport:         newEarlyCloseTransport,
			TempDir:           t.TempDir(),
		},
	}

	pipe, err := RunPipe(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for {
		_, pairs, ok, err := pipe.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if rows == 0 {
			close(outputSeen) // release the map gate: output observed mid-map
		}
		rows += len(pairs)
		transport.RecycleBatch(pairs)
	}
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}
	if rows == 0 {
		t.Fatal("no output rows streamed")
	}
	st := pipe.Stats()
	if st.FirstOutput <= 0 {
		t.Fatalf("FirstOutput not stamped: %v", st.FirstOutput)
	}
	if st.MapDone <= 0 {
		t.Fatalf("MapDone not stamped: %v", st.MapDone)
	}
	if st.FirstOutput >= st.MapDone {
		t.Fatalf("no pipelining overlap: first output at %v, map done at %v", st.FirstOutput, st.MapDone)
	}
	t.Logf("first output %v, map done %v (overlap %v)", st.FirstOutput, st.MapDone, st.MapDone-st.FirstOutput)
}
