// Package sortx provides an external merge sort: items are buffered in
// memory up to a budget, spilled as sorted runs appended to one file per
// sorter, and merged with a k-way heap. The MapReduce reducers use it to
// group shuffled key/value pairs ("reducers collect pairs and use external
// sorting to group pairs with the same key value"), and its spill counters
// feed the cost model's out-of-core sorting term.
//
// The spill and merge paths are allocation-lean: run generation encodes
// every item into one reused scratch buffer (the append-style EncodeTo),
// and the k-way merge decodes from per-run reused read buffers. Decoded
// items may therefore alias transient buffers — see Iterator.Next for the
// ownership contract.
package sortx

import (
	"bufio"
	"container/heap"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"
)

// Codec serializes items for spill files.
type Codec[T any] interface {
	// EncodeTo appends the item's encoding to dst and returns the
	// extended slice (which may have been reallocated). The sorter reuses
	// dst across items, so encoders must not retain it.
	EncodeTo(dst []byte, item T) ([]byte, error)
	// Decode parses one item from data. The decoded item MAY alias data;
	// the sorter guarantees data stays valid until the next item is read
	// from the same run, which matches Iterator.Next's contract.
	Decode(data []byte) (T, error)
}

// Stats reports what the sorter did, for cost accounting.
type Stats struct {
	Items        int64 // total items added
	Runs         int   // spilled runs (0 when fully in-memory)
	SpilledItems int64 // items written to disk
	SpilledBytes int64 // bytes written to disk (read back once more on merge)
}

// Sorter accumulates items and then yields them in sorted order. It is
// single-goroutine: Add all items, then Iterate once.
type Sorter[T any] struct {
	cmp       func(a, b T) int
	codec     Codec[T]
	dir       string
	memBudget int

	// Cancellation state (NewContext): cancel is the cached Done channel
	// — polling a cached closed-channel select is lock-free, unlike
	// ctx.Err(), which takes the context's mutex and would contend when
	// many reduce tasks share one job context.
	ctx    context.Context
	cancel <-chan struct{}

	buf     []T
	scratch []byte        // reused per-item encode buffer for spills
	file    *os.File      // the sorter's one unlinked run file, made on the first spill
	w       *bufio.Writer // appends runs to file
	runs    []span        // each run's place in file, in spill order
	stats   Stats
	done    bool
}

// span is one run: length bytes of the run file from offset on.
type span struct{ offset, length int64 }

// New returns a sorter ordering items by cmp (negative when a < b, as in
// slices.SortStableFunc), spilling to a temp file in dir (or the OS default
// when dir is empty) whenever more than memBudget items are buffered. A
// memBudget < 1 keeps everything in memory.
func New[T any](cmp func(a, b T) int, codec Codec[T], dir string, memBudget int) *Sorter[T] {
	return &Sorter[T]{cmp: cmp, codec: codec, dir: dir, memBudget: memBudget}
}

// NewContext is New with a cancellation context: the spill and merge
// loops poll ctx and abort with ctx.Err() once it is cancelled, so a
// cancelled job never finishes writing or merging multi-megabyte runs it
// is about to throw away.
func NewContext[T any](ctx context.Context, cmp func(a, b T) int, codec Codec[T], dir string, memBudget int) *Sorter[T] {
	s := New(cmp, codec, dir, memBudget)
	if ctx != nil {
		s.ctx = ctx
		s.cancel = ctx.Done()
	}
	return s
}

// canceled reports the context's error once it is cancelled (nil for
// sorters built without a context). The poll interval below bounds how
// much spill/merge work happens between checks.
const cancelCheckInterval = 1024

func (s *Sorter[T]) canceled() error {
	if s.cancel == nil {
		return nil
	}
	select {
	case <-s.cancel:
		return s.ctx.Err()
	default:
		return nil
	}
}

// Stats returns the sorter's counters.
func (s *Sorter[T]) Stats() Stats { return s.stats }

// Add offers one item. It may spill the in-memory buffer as a run.
func (s *Sorter[T]) Add(item T) error {
	if s.done {
		return fmt.Errorf("sortx: Add after Iterate")
	}
	s.buf = append(s.buf, item)
	s.stats.Items++
	if s.memBudget > 0 && len(s.buf) >= s.memBudget {
		return s.spill()
	}
	return nil
}

func (s *Sorter[T]) spill() error {
	if len(s.buf) == 0 {
		return nil
	}
	if err := s.canceled(); err != nil {
		return err
	}
	slices.SortStableFunc(s.buf, s.cmp)
	if _, err := s.writeRun(sliceSource(s.buf)); err != nil {
		return err
	}
	s.buf = s.buf[:0]
	return nil
}

// sliceSource yields items in order: the pull form SpillSorted and
// IterateSorted take.
func sliceSource[T any](items []T) func() (T, bool) {
	i := 0
	return func() (item T, ok bool) {
		if i >= len(items) {
			return item, false
		}
		i++
		return items[i-1], true
	}
}

// SpillSorted writes the items next yields as one run. They must already
// be in cmp order: the run, and every counter, is what Add-ing them to an
// empty buffer and spilling it would have produced, without the buffer and
// without the sort.
func (s *Sorter[T]) SpillSorted(next func() (T, bool)) error {
	if s.done {
		return fmt.Errorf("sortx: SpillSorted after Iterate")
	}
	if err := s.canceled(); err != nil {
		return err
	}
	n, err := s.writeRun(next)
	s.stats.Items += n
	return err
}

// writeRun appends the sorted items next yields to the run file as one
// run and returns how many there were (0 with an error: the run does not
// count).
func (s *Sorter[T]) writeRun(next func() (T, bool)) (int64, error) {
	if s.file == nil {
		f, err := os.CreateTemp(s.dir, "sortx-run-*.bin")
		if err != nil {
			return 0, fmt.Errorf("sortx: create run file: %w", err)
		}
		// The file is unlinked immediately so runs never outlive the
		// process even on a crash; its disk space is reclaimed when the
		// descriptor closes (happy path: the iterator's Close; teardown:
		// Sorter.Close).
		os.Remove(f.Name())
		s.file, s.w = f, bufio.NewWriterSize(f, 1<<16)
	}
	// The writer is empty between runs, so the file offset is where this
	// run starts, past whatever bytes a failed run left behind.
	offset, err := s.file.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, fmt.Errorf("sortx: write run: %w", err)
	}
	fail := func(err error) (int64, error) {
		s.w.Reset(s.file)
		return 0, err
	}
	var lenBuf [binary.MaxVarintLen64]byte
	var items, length int64
	for it, ok := next(); ok; it, ok = next() {
		if items%cancelCheckInterval == 0 && items > 0 {
			if err := s.canceled(); err != nil {
				return fail(err)
			}
		}
		items++
		data, err := s.codec.EncodeTo(s.scratch[:0], it)
		if err != nil {
			return fail(fmt.Errorf("sortx: encode: %w", err))
		}
		s.scratch = data
		n := binary.PutUvarint(lenBuf[:], uint64(len(data)))
		s.w.Write(lenBuf[:n])
		s.w.Write(data) // a write error sticks: Flush reports it
		length += int64(n + len(data))
	}
	if err := s.w.Flush(); err != nil {
		return fail(fmt.Errorf("sortx: write run: %w", err))
	}
	s.stats.Runs++
	s.stats.SpilledItems += items
	s.stats.SpilledBytes += length
	s.runs = append(s.runs, span{offset, length})
	return items, nil
}

// Iterator yields sorted items. Close releases the run file; it is safe to
// call multiple times.
type Iterator[T any] struct {
	next  func() (T, bool, error)
	close func()
}

// Next returns the next item in order; ok is false at the end.
//
// Ownership: the returned item is only guaranteed valid until the
// following Next call — items read back from spill runs may alias a
// reused read buffer. Callers that retain an item across Next must copy
// whatever it references.
func (it *Iterator[T]) Next() (item T, ok bool, err error) { return it.next() }

// Close releases resources.
func (it *Iterator[T]) Close() {
	if it.close != nil {
		it.close()
		it.close = nil
	}
}

// Iterate finalizes the sorter and returns an iterator over all items in
// sorted order. The sorter cannot be reused afterwards.
func (s *Sorter[T]) Iterate() (*Iterator[T], error) {
	if !s.done && s.canceled() == nil { // merge refuses the others
		slices.SortStableFunc(s.buf, s.cmp)
	}
	return s.merge(sliceSource(s.buf))
}

// IterateSorted is Iterate for a sorter fed through SpillSorted: the n
// items residue yields — already in cmp order — are the in-memory
// remainder Iterate would have found in the buffer, merged with the runs
// from where they are rather than spilled as one more.
func (s *Sorter[T]) IterateSorted(n int, residue func() (T, bool)) (*Iterator[T], error) {
	it, err := s.merge(residue)
	if err == nil {
		s.stats.Items += int64(n)
	}
	return it, err
}

// merge finalizes the sorter over its runs plus one sorted in-memory
// source.
func (s *Sorter[T]) merge(mem func() (T, bool)) (*Iterator[T], error) {
	if s.done {
		return nil, fmt.Errorf("sortx: Iterate called twice")
	}
	s.done = true
	if err := s.canceled(); err != nil {
		s.closeRuns()
		return nil, err
	}
	if len(s.runs) == 0 {
		return &Iterator[T]{
			next: func() (T, bool, error) {
				item, ok := mem()
				return item, ok, nil
			},
			close: func() {},
		}, nil
	}
	// Merge the spilled runs plus the in-memory source, last.
	var sources []*runReader[T]
	for _, r := range s.runs {
		sr := io.NewSectionReader(s.file, r.offset, r.length)
		sources = append(sources, &runReader[T]{r: bufio.NewReaderSize(sr, int(min(r.length, 1<<16))), codec: s.codec})
	}
	sources = append(sources, &runReader[T]{mem: mem})
	h := &mergeHeap[T]{cmp: s.cmp}
	for i, src := range sources {
		item, ok, err := src.next()
		if err != nil {
			s.closeRuns()
			return nil, err
		}
		if ok {
			h.entries = append(h.entries, mergeEntry[T]{item: item, src: i})
		}
	}
	heap.Init(h)
	// The heap top is refilled lazily, on the Next call AFTER its item was
	// handed out: refilling reads the source's next record into the reused
	// run buffer, which would corrupt an aliasing item that the caller is
	// still looking at.
	pending := -1
	sinceCheck := 0
	return &Iterator[T]{
		next: func() (T, bool, error) {
			var zero T
			// Merge-loop cancellation check, counter-strided so the per-
			// item cost stays one increment on the uncancelled path.
			if sinceCheck++; sinceCheck >= cancelCheckInterval {
				sinceCheck = 0
				if err := s.canceled(); err != nil {
					return zero, false, err
				}
			}
			if pending >= 0 {
				item, ok, err := sources[pending].next()
				if err != nil {
					return zero, false, err
				}
				if ok {
					h.entries[0] = mergeEntry[T]{item: item, src: pending}
					heap.Fix(h, 0)
				} else {
					heap.Pop(h)
				}
				pending = -1
			}
			if h.Len() == 0 {
				return zero, false, nil
			}
			top := h.entries[0]
			pending = top.src
			return top.item, true, nil
		},
		close: s.closeRuns,
	}, nil
}

func (s *Sorter[T]) closeRuns() {
	if s.file != nil {
		s.file.Close()
		s.file = nil
	}
	s.runs = nil
}

// Close releases the sorter's resources without iterating: buffered
// items are dropped and the run file's descriptor closed, reclaiming its
// (already unlinked) disk space. It is the error/cancel teardown hook —
// on the happy path the Iterator's Close releases the runs instead.
// Idempotent, and safe after Iterate (the run file is then owned by the
// iterator's close, which this call re-runs harmlessly).
func (s *Sorter[T]) Close() {
	s.closeRuns()
	s.buf = nil
	s.done = true
}

type runReader[T any] struct {
	r     *bufio.Reader
	mem   func() (T, bool) // the in-memory source, when r is nil
	codec Codec[T]
	buf   []byte
}

func (rr *runReader[T]) next() (T, bool, error) {
	var zero T
	if rr.r == nil {
		item, ok := rr.mem()
		return item, ok, nil
	}
	n, err := binary.ReadUvarint(rr.r)
	if err == io.EOF {
		return zero, false, nil
	}
	if err != nil {
		return zero, false, fmt.Errorf("sortx: read run: %w", err)
	}
	if cap(rr.buf) < int(n) {
		rr.buf = make([]byte, n)
	}
	rr.buf = rr.buf[:n]
	if _, err := io.ReadFull(rr.r, rr.buf); err != nil {
		return zero, false, fmt.Errorf("sortx: read run payload: %w", err)
	}
	item, err := rr.codec.Decode(rr.buf)
	if err != nil {
		return zero, false, fmt.Errorf("sortx: decode: %w", err)
	}
	return item, true, nil
}

type mergeEntry[T any] struct {
	item T
	src  int
}

type mergeHeap[T any] struct {
	entries []mergeEntry[T]
	cmp     func(a, b T) int
}

func (h *mergeHeap[T]) Len() int { return len(h.entries) }
func (h *mergeHeap[T]) Less(i, j int) bool {
	return h.cmp(h.entries[i].item, h.entries[j].item) < 0
}
func (h *mergeHeap[T]) Swap(i, j int) { h.entries[i], h.entries[j] = h.entries[j], h.entries[i] }
func (h *mergeHeap[T]) Push(x any)    { h.entries = append(h.entries, x.(mergeEntry[T])) }
func (h *mergeHeap[T]) Pop() any {
	n := len(h.entries)
	e := h.entries[n-1]
	h.entries = h.entries[:n-1]
	return e
}

// BytesCodec is a pass-through codec for []byte items.
type BytesCodec struct{}

// EncodeTo implements Codec.
func (BytesCodec) EncodeTo(dst, b []byte) ([]byte, error) { return append(dst, b...), nil }

// Decode implements Codec. The returned slice aliases the iterator's read
// buffer (valid until the next item, per Iterator.Next).
func (BytesCodec) Decode(b []byte) ([]byte, error) { return b, nil }
