package mr

import (
	"fmt"

	"github.com/casm-project/casm/internal/blockstore"
	"github.com/casm-project/casm/internal/recio"
)

// --- in-memory input: rows of one flat slab ---

type memoryInput struct {
	splits []Split
}

// memorySplit is a run of whole rows of the slab, aliased.
type memorySplit struct {
	label string
	rows  []int64
	arity int
	bytes int64
}

// memoryIter transposes its rows, up to memoryBatch at a time, into
// pooled column buffers.
type memoryIter struct {
	rows  []int64
	arity int
	b     *blockstore.Columns
}

// memoryBatch is how many rows a memory split transposes per Next: a store
// block's decoder batch, so both inputs hand the map function batches of
// one size.
const memoryBatch = 1024

// NewMemoryInput splits the records of rows — one flat slab, arity values
// per record, row-major — into numSplits in-memory splits. The splits
// alias rows, which must stay unmodified while the job runs. A split's
// SizeBytes is what its records occupy as recio records.
func NewMemoryInput(rows []int64, arity, numSplits int) Input {
	arity = max(arity, 1)
	n := len(rows) / arity
	numSplits = max(numSplits, 1)
	if numSplits > n && n > 0 {
		numSplits = n
	}
	in := &memoryInput{}
	if n == 0 {
		in.splits = append(in.splits, &memorySplit{label: "mem-0", arity: arity})
		return in
	}
	per := (n + numSplits - 1) / numSplits
	for i := 0; i < n; i += per {
		end := min(i+per, n)
		sp := &memorySplit{label: fmt.Sprintf("mem-%d", i/per), rows: rows[i*arity : end*arity], arity: arity}
		for r := sp.rows; len(r) > 0; r = r[arity:] {
			sp.bytes += recordBytes(r[:arity])
		}
		in.splits = append(in.splits, sp)
	}
	return in
}

// recordBytes is the size of row as a recio record: one uvarint per value.
func recordBytes(row []int64) int64 {
	var n int
	for _, v := range row {
		n += recio.UvarintLen(uint64(v))
	}
	return int64(n)
}

func (in *memoryInput) Splits() ([]Split, error) { return in.splits, nil }

func (sp *memorySplit) Label() string    { return sp.label }
func (sp *memorySplit) SizeBytes() int64 { return sp.bytes }
func (sp *memorySplit) Open() (Iter[Batch], error) {
	b := blockstore.NewColumns(sp.arity, min(len(sp.rows)/sp.arity, memoryBatch))
	return &memoryIter{rows: sp.rows, arity: sp.arity, b: b}, nil
}

func (it *memoryIter) Next() (Batch, bool, error) {
	n := min(len(it.rows)/it.arity, memoryBatch)
	if n == 0 {
		return Batch{}, false, nil
	}
	cols := it.b.Cols
	for c := range cols {
		col := cols[c][:n]
		for i, v := 0, c; i < n; i, v = i+1, v+it.arity {
			col[i] = it.rows[v]
		}
		cols[c] = col
	}
	it.rows = it.rows[n*it.arity:]
	return Batch{N: n, Cols: cols}, true, nil
}

// Close ends the stream and recycles its batch buffer; the slab belongs to
// the caller of NewMemoryInput.
func (it *memoryIter) Close() error {
	if it.b != nil {
		it.b.Release()
		it.rows, it.b = nil, nil
	}
	return nil
}

// Morsels carves the split into contiguous runs of whole rows, each
// closed once its records reach targetBytes (the tail may be smaller).
// Runs alias the parent's rows.
func (sp *memorySplit) Morsels(targetBytes int) ([]Split, error) {
	var out []Split
	cut := func(rows []int64, bytes int64) {
		out = append(out, &memorySplit{label: fmt.Sprintf("%s/m%d", sp.label, len(out)),
			rows: rows, arity: sp.arity, bytes: bytes})
	}
	start := 0
	var runBytes int64
	for i := 0; i < len(sp.rows); i += sp.arity {
		runBytes += recordBytes(sp.rows[i : i+sp.arity])
		if runBytes >= int64(max(targetBytes, 1)) {
			cut(sp.rows[start:i+sp.arity], runBytes)
			start, runBytes = i+sp.arity, 0
		}
	}
	if start < len(sp.rows) {
		cut(sp.rows[start:], runBytes)
	}
	return out, nil
}

// --- block-store input: one split per store block, read as rows ---

type storeInput struct {
	st   *blockstore.Store
	file string
}

type storeSplit struct {
	st   *blockstore.Store
	info blockstore.BlockInfo
}

// NewStoreInput reads a logical file from the block store, one split
// per block (records never straddle blocks by construction). Each split
// open is a checksum-verified read whose columns decode a batch at a time;
// replica failover happens inside the store. A split whose
// replicas are all gone fails to open, and the job fails with the store's
// error, labelled by task.
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
func (sp *storeSplit) Open() (Iter[Batch], error) {
	r, err := sp.st.ReadBlockRows(sp.info.File, sp.info.Index)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Morsels carves the block into runs of rows of ~targetBytes framed
// bytes. The block is read and verified once, here, and the runs keep its
// compressed payload plus a cursor each, so replica availability and the
// block's integrity are checked at carve time rather than when a worker
// opens a morsel: a job in morsel mode fails at planning if the block is
// unreadable, instead of in a map task.
func (sp *storeSplit) Morsels(targetBytes int) ([]Split, error) {
	runs, err := sp.st.ReadBlockRuns(sp.info.File, sp.info.Index, targetBytes)
	if err != nil {
		return nil, err
	}
	out := make([]Split, len(runs))
	for i, run := range runs {
		out[i] = &runSplit{label: fmt.Sprintf("%s/m%d", sp.Label(), i), run: run}
	}
	return out, nil
}

// runSplit is one morsel of a store block: a run of its rows, opened by
// resuming a RowReader from the cursor the carve recorded.
type runSplit struct {
	label string
	run   blockstore.RowRun
}

func (sp *runSplit) Label() string              { return sp.label }
func (sp *runSplit) SizeBytes() int64           { return int64(sp.run.Size()) }
func (sp *runSplit) Open() (Iter[Batch], error) { return sp.run.Open(), nil }
