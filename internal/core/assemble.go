package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/exec"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/transport"
	"github.com/casm-project/casm/internal/workflow"
)

// assembler builds Result.Measures from packed <coordinates, value> rows
// (appendMeasureRecord) for every producer of a Result: the single-query
// and shared-job drains, the manifest replay, the baseline, LoadResults.
// Rows stay encoded while they arrive; finish sorts each measure by its
// encoded coordinate bytes — the canonical order — and only then decodes,
// in sorted order, into exact-size storage. The sort never re-encodes,
// and nothing is allocated per record that the result does not keep.
type assembler struct {
	arity int
	slots []*asmSlot
}

// asmSlot is one measure's rows on their way into one Result.
type asmSlot struct {
	dst map[string][]MeasureRecord
	m   *workflow.Measure
	// keys is the slot's arena of encoded coordinate keys, copied out of
	// the payloads (whose buffers die with their batch); rows index it.
	keys []byte
	rows []asmRow
	recs []MeasureRecord
}

// asmRow is one undecoded row: 16 bytes, against a 56-byte MeasureRecord.
type asmRow struct {
	off, n uint32 // the key's place in asmSlot.keys
	v      float64
}

// slot registers a measure whose records finish stores in dst[m.Name]
// (an empty slice when no row is added).
func (a *assembler) slot(dst map[string][]MeasureRecord, m *workflow.Measure) *asmSlot {
	s := &asmSlot{dst: dst, m: m}
	a.slots = append(a.slots, s)
	return s
}

// drain consumes the job's output to its end and closes the pipe. Each
// distinct output key is resolved to its slot once and then probed by
// its raw bytes.
func (a *assembler) drain(pipe *mr.Pipe, resolve func(key []byte) (*asmSlot, error)) error {
	byKey := make(map[string]*asmSlot)
	for {
		_, pairs, ok, err := pipe.NextBatch()
		if err != nil {
			return err
		}
		if !ok {
			return pipe.Close()
		}
		for _, p := range pairs {
			s, ok := byKey[string(p.Key)]
			if !ok {
				if s, err = resolve(p.Key); err != nil {
					return err
				}
				byKey[string(p.Key)] = s
			}
			if err := s.add(p.Value); err != nil {
				return err
			}
		}
		transport.RecycleBatch(pairs)
	}
}

// add appends one packed row without retaining it. Its key is validated
// when finish decodes it.
func (s *asmSlot) add(payload []byte) error {
	key, v, err := splitMeasureRecord(payload)
	if err != nil {
		return err
	}
	if len(s.keys)+len(key) > math.MaxUint32 {
		return fmt.Errorf("core: measure %q: more than 4 GiB of region keys", s.m.Name)
	}
	s.rows = append(s.rows, asmRow{off: uint32(len(s.keys)), n: uint32(len(key)), v: v})
	s.keys = append(s.keys, key...)
	return nil
}

// finish sorts and decodes every slot and stores the records. Slots are
// independent, so each is one pooled task of ex (the default executor
// when nil): concurrent, and inside a shared executor's worker bound.
func (a *assembler) finish(ctx context.Context, ex *exec.Executor) error {
	if ex == nil {
		ex = exec.Default()
	}
	g := ex.NewGroup(ctx, exec.Options{})
	for _, s := range a.slots {
		g.Go("", nil, func(context.Context) error { return s.build(a.arity) })
	}
	if err := g.Wait(); err != nil {
		return err
	}
	for _, s := range a.slots {
		s.dst[s.m.Name] = s.recs
	}
	return nil
}

// build sorts the slot's rows into canonical order and decodes them. A
// measure holds each region once, so the order is total and independent
// of the order rows arrived in.
func (s *asmSlot) build(arity int) error {
	keys := s.keys
	slices.SortFunc(s.rows, func(a, b asmRow) int {
		return bytes.Compare(keys[a.off:a.off+a.n], keys[b.off:b.off+b.n])
	})
	s.recs = make([]MeasureRecord, len(s.rows))
	coords := make([]int64, len(s.rows)*arity)
	for i, r := range s.rows {
		c := coords[i*arity : (i+1)*arity : (i+1)*arity]
		if err := cube.DecodeCoordsInto(keys[r.off:r.off+r.n], c); err != nil {
			return err
		}
		s.recs[i] = MeasureRecord{Region: cube.Region{Grain: s.m.Grain, Coord: c}, Value: r.v}
	}
	s.keys, s.rows = nil, nil
	return nil
}

// --- payload codec ---

// appendMeasureRecord appends a packed <region coordinates, value> record
// to dst and returns the extended slice.
func appendMeasureRecord(dst []byte, coords []int64, v float64) []byte {
	dst = cube.AppendCoords(dst, coords)
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// splitMeasureRecord slices a packed record into its encoded coordinate
// key (aliasing b) and its value.
func splitMeasureRecord(b []byte) ([]byte, float64, error) {
	if len(b) < 8 {
		return nil, 0, fmt.Errorf("core: truncated measure record")
	}
	n := len(b) - 8
	return b[:n], math.Float64frombits(binary.LittleEndian.Uint64(b[n:])), nil
}
