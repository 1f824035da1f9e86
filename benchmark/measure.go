package main

import (
	"context"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"github.com/casm-project/casm/internal/mr"
)

// opObs is what the benchmark observed of one operation, from outside:
// client-side times, the answer check, and whatever the call returned.
type opObs struct {
	kind    string // query name or request class
	start   time.Time
	latency time.Duration
	// parse/plan/run split the latency at the calls into cql and core;
	// firstRow is the time to the first streamed row (0 = not a stream).
	parse, plan, run time.Duration
	firstRow         time.Duration
	err              error // why the operation failed, when it did not merely mismatch
	failed           bool
	rejected         bool         // HTTP 429/503
	stats            *mr.JobStats // nil for HTTP operations
	rows             int64
	digest           uint64

	// HTTP operations only: the server's own timing fields and the
	// response size.
	queueMS, wallMS float64
	respBytes       int64
}

// window is one measured run of operations with the process-wide
// counters taken around it.
type window struct {
	ops        []opObs
	wall       time.Duration
	allocBytes uint64
	numGC      uint32
	gcCPU      float64 // share of the window's CPU time spent in the collector
	peakHeap   uint64  // max heap in use (objects + unused spans), sampled every 10 ms
}

const heapSampleEvery = 10 * time.Millisecond

// readMetrics reads the named runtime/metrics samples as floats.
func readMetrics(names ...string) []float64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// sampleHeap polls the heap in use until stop is closed and returns the
// maximum seen. runtime/metrics does not stop the world, unlike
// runtime.ReadMemStats, so the poll does not perturb the operations.
func sampleHeap(stop <-chan struct{}) uint64 {
	var peak uint64
	tick := time.NewTicker(heapSampleEvery)
	defer tick.Stop()
	for {
		v := readMetrics("/memory/classes/heap/objects:bytes", "/memory/classes/heap/unused:bytes")
		if h := uint64(v[0] + v[1]); h > peak {
			peak = h
		}
		select {
		case <-stop:
			return peak
		case <-tick.C:
		}
	}
}

// runWindow drives inst's clients in a closed loop: each client issues
// its next operation when the previous one has returned. It stops after
// opsPerClient operations per client when that is positive, otherwise
// when dur has passed — at a multiple of inst.cycle operations, so every
// query kind is measured equally often.
func runWindow(ctx context.Context, inst *instance, dur time.Duration, opsPerClient int, tr *tracer) window {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gcCPU := func() []float64 {
		return readMetrics("/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds")
	}
	cpu0 := gcCPU()
	stop := make(chan struct{})
	peak := make(chan uint64, 1)
	go func() { peak <- sampleHeap(stop) }()

	perClient := make([][]opObs, inst.clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < inst.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq := 0; ctx.Err() == nil; seq++ {
				if opsPerClient > 0 {
					if seq >= opsPerClient {
						return
					}
				} else if seq%inst.cycle == 0 && !time.Now().Before(deadline) {
					return
				}
				perClient[c] = append(perClient[c], inst.op(ctx, c, seq, tr))
			}
		}(c)
	}
	wg.Wait()
	w := window{wall: time.Since(start)}
	close(stop)
	w.peakHeap = <-peak
	cpu1 := gcCPU()
	runtime.ReadMemStats(&after)
	w.allocBytes = after.TotalAlloc - before.TotalAlloc
	w.numGC = after.NumGC - before.NumGC
	if total := cpu1[1] - cpu0[1]; total > 0 {
		w.gcCPU = (cpu1[0] - cpu0[0]) / total
	}
	for _, ops := range perClient {
		w.ops = append(w.ops, ops...)
	}
	return w
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs need not be sorted. Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// collect maps the operations that pass keep through f.
func collect(ops []opObs, keep func(*opObs) bool, f func(*opObs) float64) []float64 {
	var out []float64
	for i := range ops {
		if keep == nil || keep(&ops[i]) {
			out = append(out, f(&ops[i]))
		}
	}
	return out
}
