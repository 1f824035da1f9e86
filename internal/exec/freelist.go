package exec

import (
	"sync"
	"sync/atomic"
)

// FreeList keeps spare buffers of one kind for the jobs of the process. A
// job takes a buffer with Get and, once its last reader is done, gives it
// back cleared, so that it pins no finished job's bytes, with Put; a
// borrower that hands a buffer on for good calls Forget, and its new owner
// may Give it back. Safe for concurrent use.
//
// The cap is measured, not set: the spares are a stack, each job's end
// (EndJob) ends an epoch, and at an epoch's end the list drops, bottom
// first, what no Get reached in any of the last len(lows) epochs. It keeps
// what was on loan at once at its recent high-water mark.
type FreeList[T any] struct {
	size  func(T) int // the bytes a buffer holds
	mu    sync.Mutex
	spare []spare[T]
	held  int    // bytes in spare
	low   int    // held's low-water mark this epoch
	lows  [4]int // the last epochs' low-water marks, 0 until seen
	loans int
	ended int64 // jobsEnded when the epoch began
	epoch int
}

type spare[T any] struct {
	x    T
	size int
}

var jobsEnded atomic.Int64

// EndJob ends the FreeLists' epoch; the job runtime calls it as a job ends.
func EndJob() { jobsEnded.Add(1) }

// lists holds every FreeList by name, for the test that checks every loan
// comes back after a fault.
var (
	listsMu sync.Mutex
	lists   = map[string]interface{ onLoan() int }{}
)

// NewFreeList returns the empty list name of buffers whose bytes size
// reports.
func NewFreeList[T any](name string, size func(T) int) *FreeList[T] {
	l := &FreeList[T]{size: size, ended: jobsEnded.Load()}
	listsMu.Lock()
	defer listsMu.Unlock()
	lists[name] = l
	return l
}

// Get lends the top spare; with none, ok=false and the loan covers the
// buffer the borrower makes.
func (l *FreeList[T]) Get() (x T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.catchUp()
	l.loans++
	n := len(l.spare) - 1
	if n < 0 {
		return x, false
	}
	s := l.spare[n]
	l.spare[n], l.spare = spare[T]{}, l.spare[:n]
	l.held -= s.size
	l.low = min(l.low, l.held)
	return s.x, true
}

// Put ends a loan and keeps x.
func (l *FreeList[T]) Put(x T) {
	l.Give(x)
	l.Forget()
}

// Forget ends a loan whose buffer was handed on.
func (l *FreeList[T]) Forget() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.loans--
}

// Give keeps x, on loan to no one.
func (l *FreeList[T]) Give(x T) {
	size := l.size(x)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.catchUp()
	l.spare = append(l.spare, spare[T]{x, size})
	l.held += size
}

// Resize returns s with length n, keeping its elements, the spares past
// its length included: it fits a buffer from a FreeList to a new borrower.
func Resize[T any](s []T, n int) []T {
	if n > cap(s) {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

func (l *FreeList[T]) catchUp() {
	if ended := jobsEnded.Load(); ended != l.ended {
		l.ended = ended
		l.lows[l.epoch%len(l.lows)], l.epoch = l.low, l.epoch+1
		unused, n, dropped := l.held, 0, 0
		for _, low := range l.lows {
			unused = min(unused, low)
		}
		for ; n < len(l.spare) && dropped+l.spare[n].size <= unused; n++ {
			dropped += l.spare[n].size
		}
		clear(l.spare[copy(l.spare, l.spare[n:]):])
		l.spare, l.held = l.spare[:len(l.spare)-n], l.held-dropped
		for i := range l.lows {
			l.lows[i] = max(l.lows[i]-dropped, 0)
		}
		l.low = l.held
	}
}

func (l *FreeList[T]) onLoan() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.loans
}
