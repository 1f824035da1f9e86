package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"

	"github.com/casm-project/casm/internal/blockstore"
	"github.com/casm-project/casm/internal/recio"
	"github.com/casm-project/casm/internal/workflow"
)

// SaveResults persists a result's measure records as a block store file,
// the way the paper's jobs write their output back to the distributed
// file system. Records are framed as
// uvarint(len(measure)) ‖ measure ‖ coords ‖ float64(value), sorted by
// (measure, region key), and carved into ≤blockSize blocks under
// ascending big-endian block keys, so files are deterministic.
func SaveResults(st *blockstore.Store, name string, res *Result, blockSize int) error {
	var rows [][]byte
	for m, records := range res.Measures {
		for _, r := range records {
			buf := make([]byte, 0, len(m)+2+len(r.Region.Coord)*3+8)
			buf = binary.AppendUvarint(buf, uint64(len(m)))
			buf = append(buf, m...)
			rows = append(rows, appendMeasureRecord(buf, r.Region.Coord, r.Value))
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		return string(rows[i]) < string(rows[j])
	})

	flush := func(idx int, block []byte) error {
		var key [4]byte
		binary.BigEndian.PutUint32(key[:], uint32(idx))
		return st.PutRaw(name, key[:], block)
	}
	var block []byte
	idx := 0
	for _, r := range rows {
		if len(block) > 0 && len(block)+len(r)+binary.MaxVarintLen64 > blockSize {
			if err := flush(idx, block); err != nil {
				return err
			}
			idx++
			block = nil
		}
		var err error
		block, err = recio.AppendFrame(block, r)
		if err != nil {
			return err
		}
	}
	if len(block) > 0 {
		if err := flush(idx, block); err != nil {
			return err
		}
	}
	return st.Flush()
}

// LoadResults reads a file written by SaveResults, resolving measure
// grains through the workflow.
func LoadResults(st *blockstore.Store, name string, w *workflow.Workflow) (map[string][]MeasureRecord, error) {
	blocks, err := st.Blocks(name)
	if err != nil {
		return nil, err
	}
	asm := assembler{arity: w.Schema().NumAttrs()}
	out := make(map[string][]MeasureRecord)
	slots := make(map[string]*asmSlot)
	for _, b := range blocks {
		data, err := st.ReadBlock(name, b.Index)
		if err != nil {
			return nil, err
		}
		fr := recio.NewFrameReader(data)
		for {
			payload, ok, err := fr.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			nameLen, n := binary.Uvarint(payload)
			if n <= 0 || uint64(len(payload[n:])) < nameLen {
				return nil, fmt.Errorf("core: corrupt result frame in %q", name)
			}
			end := n + int(nameLen)
			s, okS := slots[string(payload[n:end])]
			if !okS {
				mName := string(payload[n:end])
				m, okM := w.Measure(mName)
				if !okM {
					return nil, fmt.Errorf("core: result for unknown measure %q", mName)
				}
				s = asm.slot(out, m)
				slots[mName] = s
			}
			if err := s.add(payload[end:]); err != nil {
				return nil, err
			}
		}
	}
	if err := asm.finish(context.Background(), nil); err != nil {
		return nil, err
	}
	return out, nil
}
