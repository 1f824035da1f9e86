package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/casm-project/casm/internal/blockstore"
)

// metricValue is one reported metric in the driver's result format.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// pass is everything one (workload, trace) run produced: the result the
// driver reads plus what the report, the -out record and the determinism
// test want beside it.
type pass struct {
	result
	answers map[string]uint64 // per query kind: the exact part of its answer digest
	latency struct {          // client-observed operation latency, ms
		n                   int
		q1, median, q3, p90 float64
		perSecond           float64 // operations per second over the whole window
	}
}

const (
	setupRepeats = 5 // set-ups per run; setup_s is their median
	quickOps     = 3 // operations per client under -quick
)

// runPass sets the workload up (several times, for a steady setup_s),
// computes the reference answers, and measures: with trace off one
// untraced window for the end-to-end metrics; with trace on an untraced
// and a traced window of half the time each, then the layer kernels, for
// the per-layer metrics.
func runPass(ctx context.Context, e *env, name string, seconds float64, trace bool, spansPath string) (*pass, error) {
	sz := sizesFor(e.quick)
	repeats := setupRepeats
	if e.quick {
		repeats = 1
	}
	// Each set-up gets a directory of its own under the temp root, removed
	// when its instance is closed.
	var inst *instance
	var dir string
	closeInst := func() error {
		if inst == nil {
			return nil
		}
		cctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := errors.Join(inst.close(cctx), os.RemoveAll(dir))
		inst = nil
		return err
	}
	defer closeInst()
	var setups []float64
	for i := 0; i < repeats; i++ {
		if err := closeInst(); err != nil {
			return nil, err
		}
		var err error
		if dir, err = os.MkdirTemp(e.tmp, name+"-"); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if inst, err = setup(e, name, sz, dir); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		if err := inst.warmup(ctx); err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	head := 0
	if name == serveMixed {
		head = unaryLimit
	}
	for _, q := range inst.queries {
		if err := q.reference(inst.records, head); err != nil {
			return nil, err
		}
	}

	dur := time.Duration(seconds * float64(time.Second))
	ops := 0
	if e.quick {
		ops = quickOps
	}
	p := &pass{answers: map[string]uint64{}}
	p.Metrics = map[string]metricValue{}
	put := func(defs []metricDef, values map[string]float64) {
		for _, d := range defs {
			p.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
		}
	}
	var measured []opObs
	var windowSeconds float64
	if !trace {
		// Only the kernels need the records again; without them the heap
		// the window sees is the system's, not the generator's copy.
		inst.records = nil
		w := runWindow(ctx, inst, dur, ops, nil)
		measured, windowSeconds = w.ops, w.wall.Seconds()
		m := endToEndMetrics(&w)
		m["setup_s"] = median(setups)
		put(endToEnd(), m)
	} else {
		untraced := runWindow(ctx, inst, dur/2, ops, nil)
		var before blockstore.Stats
		if inst.store != nil {
			before = inst.store.Stats()
		}
		tr := newTracer()
		traced := runWindow(ctx, inst, dur/2, ops, tr)
		measured = append(untraced.ops, traced.ops...)
		windowSeconds = (untraced.wall + traced.wall).Seconds()
		m := map[string]float64{}
		if err := kernels(inst, filepath.Join(dir, "kernels"), m); err != nil {
			return nil, fmt.Errorf("%s: kernels: %w", name, err)
		}
		layerMetrics(inst, &untraced, &traced, tr, before, m)
		// Closing drains the service and flushes the result cache's
		// write-behind, so the store's size now includes what the run
		// materialized.
		store := inst.store
		if err := closeInst(); err != nil {
			return nil, err
		}
		if store != nil {
			if st := store.Stats(); st.RawBytes > 0 {
				m["blockstore.stored_bytes_per_user_byte"] = float64(st.StoredBytes) / float64(st.RawBytes)
			}
		}
		put(perLayer(), m)
		if spansPath != "" {
			if err := tr.writeTo(spansPath); err != nil {
				return nil, err
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	lat := collect(measured, nil, func(o *opObs) float64 { return ms(o.latency) })
	p.latency.n = len(lat)
	p.latency.q1, p.latency.median, p.latency.q3 = quantile(lat, 0.25), median(lat), quantile(lat, 0.75)
	p.latency.p90 = quantile(lat, 0.9)
	p.latency.perSecond = float64(len(lat)) / windowSeconds
	p.Attempted = len(measured)
	for i := range measured {
		o := &measured[i]
		if o.failed {
			if p.Failed == 0 {
				fmt.Fprintf(os.Stderr, "benchmark: %s: first failed operation (%s): %v\n", name, o.kind, failure(o))
			}
			p.Failed++
		} else if o.kind != classCold { // every cold query is a different query
			p.answers[o.kind] = o.digest
		}
	}
	p.Correct = p.Failed == 0 && p.Attempted > 0
	return p, nil
}

func failure(o *opObs) error {
	if o.err != nil {
		return o.err
	}
	return errors.New("answer differs from the reference")
}

// endToEndMetrics computes the gated metrics from the untraced window.
func endToEndMetrics(w *window) map[string]float64 {
	return map[string]float64{
		"queries_per_s":   float64(countCorrect(w.ops)) / w.wall.Seconds(),
		"op_p50_ms":       typicalLatency(w.ops),
		"alloc_mb_per_op": float64(w.allocBytes) / (1 << 20) / float64(len(w.ops)),
		"peak_heap_mb":    float64(w.peakHeap) / (1 << 20),
	}
}

func countCorrect(ops []opObs) int {
	n := 0
	for i := range ops {
		if !ops[i].failed {
			n++
		}
	}
	return n
}

// typicalLatency is op_p50_ms: the median latency of each query kind,
// averaged over the kinds weighted by how often each ran. The median of
// the pooled latencies is not used because a cycle of two queries of
// different cost has two clusters with the pooled median in the gap
// between them, where a single sample moves it from one to the other.
func typicalLatency(ops []opObs) float64 {
	byKind := map[string][]float64{}
	for i := range ops {
		byKind[ops[i].kind] = append(byKind[ops[i].kind], ms(ops[i].latency))
	}
	var sum float64
	for _, lat := range byKind {
		sum += median(lat) * float64(len(lat))
	}
	return sum / float64(len(ops))
}
