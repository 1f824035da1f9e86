package mr

import (
	"encoding/binary"
	"fmt"

	"github.com/casm-project/casm/internal/blockstore"
	"github.com/casm-project/casm/internal/recio"
)

// --- in-memory input (tests, small jobs) ---

type memoryInput struct {
	splits []Split
}

type memorySplit struct {
	label   string
	records [][]byte
	bytes   int64
}

type memoryIter struct {
	records [][]byte
	i       int
}

// NewMemoryInput splits the given records into numSplits in-memory
// splits. Records alias the caller's slices.
func NewMemoryInput(records [][]byte, numSplits int) Input {
	if numSplits < 1 {
		numSplits = 1
	}
	if numSplits > len(records) && len(records) > 0 {
		numSplits = len(records)
	}
	in := &memoryInput{}
	if len(records) == 0 {
		in.splits = append(in.splits, &memorySplit{label: "mem-0"})
		return in
	}
	per := (len(records) + numSplits - 1) / numSplits
	for i := 0; i < len(records); i += per {
		end := i + per
		if end > len(records) {
			end = len(records)
		}
		sp := &memorySplit{label: fmt.Sprintf("mem-%d", i/per), records: records[i:end]}
		for _, r := range records[i:end] {
			sp.bytes += int64(len(r))
		}
		in.splits = append(in.splits, sp)
	}
	return in
}

func (in *memoryInput) Splits() ([]Split, error) { return in.splits, nil }

func (sp *memorySplit) Label() string    { return sp.label }
func (sp *memorySplit) SizeBytes() int64 { return sp.bytes }
func (sp *memorySplit) Open() (RecordIter, error) {
	return &memoryIter{records: sp.records}, nil
}

func (it *memoryIter) Next() ([]byte, bool, error) {
	if it.i >= len(it.records) {
		return nil, false, nil
	}
	r := it.records[it.i]
	it.i++
	return r, true, nil
}

// Close ends the stream; the records belong to the caller of
// NewMemoryInput, so there is nothing to release.
func (it *memoryIter) Close() error { it.records = nil; return nil }

// Morsels carves the split's records into contiguous runs of whole
// records, each targeting targetBytes (the tail may be smaller). Runs
// alias the parent's record slices.
func (sp *memorySplit) Morsels(targetBytes int) ([]Split, error) {
	if targetBytes < 1 {
		targetBytes = 1
	}
	var out []Split
	start := 0
	var runBytes int64
	for i, r := range sp.records {
		runBytes += int64(len(r))
		if runBytes >= int64(targetBytes) {
			out = append(out, &memorySplit{
				label:   fmt.Sprintf("%s/m%d", sp.label, len(out)),
				records: sp.records[start : i+1],
				bytes:   runBytes,
			})
			start, runBytes = i+1, 0
		}
	}
	if start < len(sp.records) {
		out = append(out, &memorySplit{
			label:   fmt.Sprintf("%s/m%d", sp.label, len(out)),
			records: sp.records[start:],
			bytes:   runBytes,
		})
	}
	return out, nil
}

// --- block-store input: one split per store block, frames decoded by recio ---

type storeInput struct {
	st   *blockstore.Store
	file string
}

type storeSplit struct {
	st   *blockstore.Store
	info blockstore.BlockInfo
}

type storeIter struct {
	fr *recio.FrameReader
}

// NewStoreInput reads a logical file from the block store, one split
// per block (records never straddle blocks by construction). Each split
// open is a checksum-verified read that decodes the columnar block back
// into the recio frame stream; replica failover happens inside the
// store, and a map task whose replicas are all gone fails and is
// re-executed by the mr retry machinery once a replica recovers.
func NewStoreInput(st *blockstore.Store, file string) Input {
	return &storeInput{st: st, file: file}
}

func (in *storeInput) Splits() ([]Split, error) {
	blocks, err := in.st.Blocks(in.file)
	if err != nil {
		return nil, err
	}
	out := make([]Split, len(blocks))
	for i, b := range blocks {
		out[i] = &storeSplit{st: in.st, info: b}
	}
	return out, nil
}

func (sp *storeSplit) Label() string {
	return fmt.Sprintf("%s[%d]", sp.info.File, sp.info.Index)
}
func (sp *storeSplit) SizeBytes() int64 { return int64(sp.info.Size) }
func (sp *storeSplit) Open() (RecordIter, error) {
	data, err := sp.st.ReadBlock(sp.info.File, sp.info.Index)
	if err != nil {
		return nil, err
	}
	return &storeIter{fr: recio.NewFrameReader(data)}, nil
}

// OpenRows reads the block like Open but decodes its columns straight
// into rows: no frame is built for the map function to parse again.
func (sp *storeSplit) OpenRows() (RowIter, error) {
	return sp.st.ReadBlockRows(sp.info.File, sp.info.Index)
}

func (it *storeIter) Next() ([]byte, bool, error) {
	if it.fr == nil { // closed
		return nil, false, nil
	}
	return it.fr.Next()
}

// Close drops the iterator's reference to the decoded block buffer.
func (it *storeIter) Close() error { it.fr = nil; return nil }

// Morsels carves the block into frame runs of ~targetBytes. The block
// is read (and decoded) once here and the runs alias that buffer, which
// means replica availability is checked at carve time rather than when
// a worker opens the morsel; a job in morsel mode fails at planning if
// the block is unreadable, instead of in a map task.
func (sp *storeSplit) Morsels(targetBytes int) ([]Split, error) {
	data, err := sp.st.ReadBlock(sp.info.File, sp.info.Index)
	if err != nil {
		return nil, err
	}
	runs, err := recio.SplitFrameRuns(data, targetBytes)
	if err != nil {
		return nil, err
	}
	out := make([]Split, len(runs))
	for i, run := range runs {
		out[i] = &frameRunSplit{label: fmt.Sprintf("%s/m%d", sp.Label(), i), data: run}
	}
	return out, nil
}

// frameRunSplit is one morsel of a store block: a contiguous run of
// whole frames aliasing the block's decoded buffer.
type frameRunSplit struct {
	label string
	data  []byte
}

func (sp *frameRunSplit) Label() string    { return sp.label }
func (sp *frameRunSplit) SizeBytes() int64 { return int64(len(sp.data)) }
func (sp *frameRunSplit) Open() (RecordIter, error) {
	return &storeIter{fr: recio.NewFrameReader(sp.data)}, nil
}

// OpenRows decodes the run's frames into rows, so that a morsel of a
// store block offers what the whole block does. The carve already paid
// for the frames; what this saves is every decode after this one.
func (sp *frameRunSplit) OpenRows() (RowIter, error) {
	return &frameRowIter{fr: recio.NewFrameReader(sp.data)}, nil
}

// frameRowIter yields each frame of a run as a decoded row, reusing one
// row buffer.
type frameRowIter struct {
	fr  *recio.FrameReader
	row []int64
}

func (it *frameRowIter) Next() ([]int64, bool, error) {
	if it.fr == nil { // closed
		return nil, false, nil
	}
	rec, ok, err := it.fr.Next()
	if !ok || err != nil {
		return nil, false, err
	}
	it.row = it.row[:0]
	for len(rec) > 0 {
		v, k := binary.Uvarint(rec)
		if k <= 0 {
			return nil, false, fmt.Errorf("mr: corrupt record in %d-byte frame", len(rec))
		}
		it.row = append(it.row, int64(v))
		rec = rec[k:]
	}
	return it.row, true, nil
}

func (it *frameRowIter) Close() error { it.fr = nil; return nil }
