package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/casm-project/casm/internal/blockstore"
	"github.com/casm-project/casm/internal/cql"
	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/distkey"
	"github.com/casm-project/casm/internal/groupx"
	"github.com/casm-project/casm/internal/localeval"
	"github.com/casm-project/casm/internal/optimizer"
	"github.com/casm-project/casm/internal/recio"
	"github.com/casm-project/casm/internal/transport"
	"github.com/casm-project/casm/internal/workflow"
)

// A kernel drives one layer's exported functions alone, on one goroutine,
// over the workload's own records, and reports time per unit of work.
// Together they are the real-time twin of the paper's Figure 4(d)
// breakdown: the per-unit price of each stage a record crosses.

const (
	kernelMaxRecords = 100_000 // records a kernel touches at most
	kernelReps       = 5       // repetitions; the median is reported
	smallKernelReps  = 200     // repetitions of the microsecond-scale kernels
	spillBudget      = 16384   // sortx.spill_ns_per_item's item budget when the workload sets none
	cacheKernelRows  = 1 << 10 // bytes per result-cache entry in its kernel
	cacheKernelKeys  = 2000
)

// pairCodec is the spill wire form of a shuffle pair, the same as mr's
// unexported codec: uvarint key length, key, value.
type pairCodec struct{}

func (pairCodec) EncodeTo(dst []byte, p transport.Pair) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(p.Key)))
	dst = append(dst, p.Key...)
	return append(dst, p.Value...), nil
}

func (pairCodec) Decode(b []byte) (transport.Pair, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || uint64(len(b)-k) < n {
		return transport.Pair{}, fmt.Errorf("corrupt spilled pair")
	}
	return transport.Pair{Key: b[k : k+int(n) : k+int(n)], Value: b[k+int(n):]}, nil
}

// timeReps runs f reps times and returns the median duration.
func timeReps(reps int, f func() error) (time.Duration, error) {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds)), nil
}

func perUnit(d time.Duration, units int, unit time.Duration) float64 {
	if units == 0 {
		return 0
	}
	return float64(d) / float64(unit) / float64(units)
}

// kernels fills m with every kernel metric of the instance. dir is a
// scratch directory under the temp root.
func kernels(inst *instance, dir string, m map[string]float64) error {
	recs := inst.records
	if len(recs) > kernelMaxRecords {
		recs = recs[:kernelMaxRecords]
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if inst.store != nil {
		if err := storeKernels(inst, recs, dir, m); err != nil {
			return err
		}
	}
	raw, err := recioKernels(recs, m)
	if err != nil {
		return err
	}
	var acc struct{ derive, keygen, blocks, parse, fp, plan, eval []float64 }
	var pairs []transport.Pair
	for qi, q := range inst.queries {
		schema := q.wf.Schema()
		d, err := timeReps(smallKernelReps, func() error { _, _, err := distkey.Derive(q.wf); return err })
		if err != nil {
			return err
		}
		acc.derive = append(acc.derive, perUnit(d, 1, time.Microsecond))
		if d, err = timeReps(smallKernelReps, func() error { _, err := cql.Parse(schema, q.text); return err }); err != nil {
			return err
		}
		acc.parse = append(acc.parse, perUnit(d, 1, time.Microsecond))
		if d, err = timeReps(smallKernelReps, func() error { _, err := workflow.Fingerprint(q.wf); return err }); err != nil {
			return err
		}
		acc.fp = append(acc.fp, perUnit(d, 1, time.Microsecond))
		ocfg := optimizer.Config{NumReducers: numReducers, TotalRecords: int64(len(inst.records))}
		var plan optimizer.Plan
		if d, err = timeReps(smallKernelReps, func() error { plan, err = optimizer.Optimize(q.wf, ocfg); return err }); err != nil {
			return err
		}
		acc.plan = append(acc.plan, perUnit(d, 1, time.Microsecond))

		// Key generation under the plan the engine would execute.
		bm, err := distkey.NewBlockMapper(schema, plan.Key, plan.ClusteringFactor)
		if err != nil {
			return err
		}
		var keys int
		d, _ = timeReps(kernelReps, func() error {
			keys = 0
			ss := bm.NewSession()
			for _, r := range recs {
				keys += len(ss.Blocks(r))
			}
			return nil
		})
		acc.keygen = append(acc.keygen, perUnit(d, len(recs), time.Nanosecond))
		acc.blocks = append(acc.blocks, float64(keys)/float64(len(recs)))

		// The pairs the first query's map side would shuffle feed the
		// transport and grouping kernels; the fullest block of each query
		// feeds the evaluator.
		ss := bm.NewSession()
		byBlock := make(map[string][]cube.Record)
		for i, r := range recs {
			for _, k := range ss.Blocks(r) {
				if qi == 0 {
					pairs = append(pairs, transport.Pair{Key: k, Value: raw[i]})
				}
				byBlock[string(k)] = append(byBlock[string(k)], r)
			}
		}
		var block []cube.Record
		for _, b := range byBlock {
			if len(b) > len(block) {
				block = b
			}
		}
		ev, err := localeval.New(q.wf)
		if err != nil {
			return err
		}
		es := ev.NewSession()
		if d, err = timeReps(kernelReps, func() error {
			for _, r := range block {
				es.AppendRecord(r)
			}
			_, _, err := es.EvaluateBlock(localeval.Options{})
			return err
		}); err != nil {
			return err
		}
		acc.eval = append(acc.eval, perUnit(d, len(block), time.Nanosecond))
	}
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	m["distkey.derive_us"] = mean(acc.derive)
	m["distkey.keygen_ns_per_record"] = mean(acc.keygen)
	m["distkey.blocks_per_record"] = mean(acc.blocks)
	m["cql.parse_us"] = mean(acc.parse)
	m["workflow.fingerprint_us"] = mean(acc.fp)
	m["optimizer.plan_us"] = mean(acc.plan)
	m["localeval.eval_ns_per_record"] = mean(acc.eval)
	return shuffleKernels(inst, pairs, dir, m)
}

// storeKernels times the block store's read and ingest paths and the
// result cache's Get and Put.
func storeKernels(inst *instance, recs []cube.Record, dir string, m map[string]float64) error {
	blocks, err := inst.store.Blocks(dataFile)
	if err != nil {
		return err
	}
	var records, bytes int
	d, err := timeReps(kernelReps, func() error {
		records, bytes = 0, 0
		for _, b := range blocks {
			data, err := inst.store.ReadBlock(dataFile, b.Index)
			if err != nil {
				return err
			}
			records += b.Records
			bytes += len(data)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["blockstore.scan_ns_per_record"] = perUnit(d, records, time.Nanosecond)
	m["blockstore.scan_mb_per_s"] = float64(bytes) / (1 << 20) / d.Seconds()

	scfg := inst.store.Config()
	scfg.Dir = filepath.Join(dir, "ingest")
	scratch, err := blockstore.Open(scfg)
	if err != nil {
		return err
	}
	defer scratch.Close()
	rep := 0
	if d, err = timeReps(kernelReps, func() error {
		rep++
		return scratch.WriteRecords(fmt.Sprintf("ingest%d", rep), len(recs[0]), "", recs)
	}); err != nil {
		return err
	}
	m["blockstore.ingest_ns_per_record"] = perUnit(d, len(recs), time.Nanosecond)

	rc, err := blockstore.NewResultCache(scratch, 0)
	if err != nil {
		return err
	}
	defer rc.Close()
	keys := make([][]byte, cacheKernelKeys)
	for i := range keys {
		keys[i] = blockstore.AppendEntryKeyPrefix(nil, "kernel", "fingerprint", int64(i))
	}
	t0 := time.Now()
	for _, k := range keys {
		rc.Put(k, make([]byte, cacheKernelRows))
	}
	m["blockstore.resultcache_put_us"] = perUnit(time.Since(t0), len(keys), time.Microsecond)
	t0 = time.Now()
	for _, k := range keys {
		if _, ok := rc.Get(k); !ok {
			return fmt.Errorf("result-cache kernel: entry missing")
		}
	}
	m["blockstore.resultcache_get_us"] = perUnit(time.Since(t0), len(keys), time.Microsecond)
	return nil
}

// recioKernels times record encode (AppendRecord + AppendFrame) and
// decode (FrameReader.Next + DecodeRecordInto), and returns the encoded
// records for the shuffle kernels.
func recioKernels(recs []cube.Record, m map[string]float64) ([][]byte, error) {
	var framed []byte
	d, err := timeReps(kernelReps, func() error {
		framed = framed[:0]
		var one []byte
		for _, r := range recs {
			one = recio.AppendRecord(one[:0], r)
			var err error
			if framed, err = recio.AppendFrame(framed, one); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["recio.encode_ns_per_record"] = perUnit(d, len(recs), time.Nanosecond)
	raw := make([][]byte, 0, len(recs))
	rec := make(cube.Record, len(recs[0]))
	if d, err = timeReps(kernelReps, func() error {
		raw = raw[:0]
		fr := recio.NewFrameReader(framed)
		for {
			payload, ok, err := fr.Next()
			if err != nil || !ok {
				return err
			}
			if err := recio.DecodeRecordInto(payload, rec); err != nil {
				return err
			}
			raw = append(raw, payload)
		}
	}); err != nil {
		return nil, err
	}
	m["recio.decode_ns_per_record"] = perUnit(d, len(recs), time.Nanosecond)
	return raw, nil
}

// shuffleKernels pushes the map side's pairs through the channel
// transport, the two in-memory grouping collectors and the spilling
// sorter.
func shuffleKernels(inst *instance, pairs []transport.Pair, dir string, m map[string]float64) error {
	ctx := context.Background()
	var bytes int64
	for _, p := range pairs {
		bytes += p.Size()
	}
	// One goroutine sends everything before it receives, so each
	// reducer's channel must hold all of its batches.
	const batchPairs = 256
	d, err := timeReps(kernelReps, func() error {
		tr, err := transport.NewChannel(numReducers, len(pairs)/batchPairs+2)
		if err != nil {
			return err
		}
		defer tr.Close()
		bw := transport.NewBatchWriter(ctx, tr, numReducers, batchPairs)
		for i, p := range pairs {
			if err := bw.Send(i%numReducers, p); err != nil {
				return err
			}
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		if err := tr.CloseSend(ctx); err != nil {
			return err
		}
		got := 0
		for r := 0; r < numReducers; r++ {
			for batch := range tr.Receive(r) {
				got += len(batch)
				transport.RecycleBatch(batch)
			}
		}
		if got != len(pairs) {
			return fmt.Errorf("transport kernel: sent %d pairs, received %d", len(pairs), got)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["transport.send_recv_ns_per_pair"] = perUnit(d, len(pairs), time.Nanosecond)
	m["transport.mb_per_s"] = float64(bytes) / (1 << 20) / d.Seconds()

	group := func(c groupx.Collector) error {
		defer c.Close()
		for _, p := range pairs {
			if err := c.Add(p); err != nil {
				return err
			}
		}
		it, err := c.Iterate()
		if err != nil {
			return err
		}
		defer it.Close()
		for {
			if _, ok, err := it.Next(); err != nil || !ok {
				return err
			}
		}
	}
	if d, err = timeReps(kernelReps, func() error { return group(groupx.NewHash(pairCodec{}, dir, 0)) }); err != nil {
		return err
	}
	m["groupx.hash_ns_per_pair"] = perUnit(d, len(pairs), time.Nanosecond)
	if d, err = timeReps(kernelReps, func() error { return group(groupx.NewSort(pairCodec{}, dir, 0)) }); err != nil {
		return err
	}
	m["groupx.sort_ns_per_pair"] = perUnit(d, len(pairs), time.Nanosecond)
	budget := inst.sortMemoryItems
	if budget == 0 {
		budget = spillBudget
	}
	if budget > len(pairs)/4 {
		budget = len(pairs)/4 + 1 // small inputs must still spill
	}
	if d, err = timeReps(kernelReps, func() error { return group(groupx.NewSort(pairCodec{}, dir, budget)) }); err != nil {
		return err
	}
	m["sortx.spill_ns_per_item"] = perUnit(d, len(pairs), time.Nanosecond)
	return nil
}
