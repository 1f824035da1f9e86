package groupx

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The hash collector's spill runs are group-framed. A run is a sequence of
// frames, one per group the flushed table held, in ascending key order:
//
//	uvarint(len key) key uvarint(n)   then n × (uvarint(len v) v)
//
// so a group's key is written once per run, not once per pair, and a
// merge streams a frame's values without decoding a key per pair. A frame
// holds at least one value, and keys strictly ascend within a run.
const (
	// fanIn bounds the runs one merge reads at once. Past it the oldest
	// runs are merged, fanIn at a time, into runs appended to the same
	// file, so a collector's merge buffers stay within fanIn × runBufSize
	// whatever its input (Hadoop's multi-pass merge at io.sort.factor).
	fanIn = 64
	// runBufSize is the run writer's buffer and the most a run cursor's
	// reader buffers; a shorter run gets a buffer of its own length.
	runBufSize = 1 << 16
	// cancelCheckStride is how many pairs a spill or a merge handles
	// between polls of the collector's context.
	cancelCheckStride = 1024
)

// errCorruptRun marks a run whose bytes are not a well-formed sequence of
// frames: a length or count that the run's remaining bytes cannot back, a
// frame cut short, an empty frame, or keys out of order.
var errCorruptRun = errors.New("groupx: corrupt spill run")

func corruptRun(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errCorruptRun}, args...)...)
}

// span is one run: length bytes of the run file from offset on.
type span struct{ offset, length int64 }

// cursor reads one group-framed run, a frame at a time. key and n describe
// the current frame: its group key and how many of its values are unread.
type cursor struct {
	r      *bufio.Reader
	left   int64 // bytes of the run not yet read
	src    int   // the run's place in spill order: ties between runs go to the older
	frames int   // frames read so far

	key   []byte // the current frame's key
	spare []byte // the previous frame's key buffer, reused for the next one
	n     uint64
	big   []byte // a value larger than r's buffer, copied out
}

// reset points the cursor at a run of length bytes read from r, reusing its
// reader when that reader's buffer is at least min(length, runBufSize).
func (c *cursor) reset(r io.Reader, length int64, src int) {
	size := int(min(length, runBufSize))
	if c.r == nil || c.r.Size() < size {
		c.r = bufio.NewReaderSize(r, size)
	} else {
		c.r.Reset(r)
	}
	c.left, c.src, c.frames, c.n = length, src, 0, 0
	c.key = c.key[:0]
}

// uvarint reads one uvarint of the run.
func (c *cursor) uvarint() (uint64, error) {
	var x uint64
	for i, s := 0, uint(0); i < binary.MaxVarintLen64; i, s = i+1, s+7 {
		if c.left == 0 {
			return 0, corruptRun("uvarint cut off at the end of the run")
		}
		b, err := c.r.ReadByte()
		if err != nil {
			return 0, c.readErr(err)
		}
		c.left--
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				break
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
	}
	return 0, corruptRun("uvarint overflows 64 bits")
}

// readErr reports a failed read of bytes the run's length promised: an
// EOF means the run file is shorter than its span.
func (c *cursor) readErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return corruptRun("run ends %d bytes early", c.left)
	}
	return fmt.Errorf("groupx: read run: %w", err)
}

// length reads a uvarint length and checks that the run's remaining bytes
// back it, before anything is sized from it.
func (c *cursor) length(what string) (int, error) {
	n, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(c.left) {
		return 0, corruptRun("%s of %d bytes overruns the run's %d remaining", what, n, c.left)
	}
	return int(n), nil
}

// nextFrame moves to the run's next frame; ok is false at the run's end.
// The current frame's values must all have been read.
func (c *cursor) nextFrame() (ok bool, err error) {
	if c.left == 0 {
		return false, nil
	}
	klen, err := c.length("key")
	if err != nil {
		return false, err
	}
	next := c.spare[:0]
	if cap(next) < klen {
		next = make([]byte, klen)
	}
	next = next[:klen]
	if _, err := io.ReadFull(c.r, next); err != nil {
		return false, c.readErr(err)
	}
	c.left -= int64(klen)
	if c.frames > 0 && bytes.Compare(next, c.key) <= 0 {
		return false, corruptRun("frame key %q after %q", next, c.key)
	}
	if c.n, err = c.uvarint(); err != nil {
		return false, err
	}
	// Every value takes at least its one-byte length.
	if c.n == 0 || c.n > uint64(c.left) {
		return false, corruptRun("frame of %d values in the run's %d remaining bytes", c.n, c.left)
	}
	c.key, c.spare = next, c.key
	c.frames++
	return true, nil
}

// value reads the current frame's next value. It aliases the reader's
// buffer, or the cursor's copy of a value larger than that buffer, and is
// valid until the cursor reads again.
func (c *cursor) value() ([]byte, error) {
	// Most values are buffered whole, their length with them: one Peek of
	// what is buffered and one Discard serve them.
	if buf, _ := c.r.Peek(c.r.Buffered()); len(buf) > 0 {
		if vlen, k := binary.Uvarint(buf); k > 0 && vlen <= uint64(len(buf)-k) && int64(k)+int64(vlen) <= c.left {
			end := k + int(vlen)
			c.r.Discard(end)
			c.n--
			c.left -= int64(end)
			return buf[k:end:end], nil
		}
	}
	vlen, err := c.length("value")
	if err != nil {
		return nil, err
	}
	c.n--
	c.left -= int64(vlen)
	if vlen <= c.r.Size() {
		v, err := c.r.Peek(vlen)
		if err != nil {
			return nil, c.readErr(err)
		}
		c.r.Discard(vlen) // the bytes stay in the buffer until the next read
		return v, nil
	}
	if cap(c.big) < vlen {
		c.big = make([]byte, vlen)
	}
	c.big = c.big[:vlen]
	if _, err := io.ReadFull(c.r, c.big); err != nil {
		return nil, c.readErr(err)
	}
	return c.big, nil
}

// before orders cursors by their current key, then by spill order.
func before(a, b *cursor) bool {
	if c := bytes.Compare(a.key, b.key); c != 0 {
		return c < 0
	}
	return a.src < b.src
}

// runHeap is a min-heap of cursors, each on a frame, under before. It is
// fixed once per frame, never per value.
type runHeap []*cursor

func (h *runHeap) push(c *cursor) {
	*h = append(*h, c)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !before(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *runHeap) pop() *cursor {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		l := 2*i + 1
		if l >= len(s) {
			break
		}
		if r := l + 1; r < len(s) && before(s[r], s[l]) {
			l = r
		}
		if !before(s[l], s[i]) {
			break
		}
		s[i], s[l] = s[l], s[i]
		i = l
	}
	*h = s
	return top
}

// popGroup appends to dst every cursor whose frame holds the heap's
// smallest key, oldest run first, and removes them from the heap.
func (h *runHeap) popGroup(dst []*cursor) []*cursor {
	first := h.pop()
	dst = append(dst, first)
	for len(*h) > 0 && bytes.Equal((*h)[0].key, first.key) {
		dst = append(dst, h.pop())
	}
	return dst
}
