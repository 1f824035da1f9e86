// Package costmodel converts the measured per-task counters of a job
// execution into simulated wall-clock seconds for the paper's cluster
// (100 machines, 2 GHz Xeon, 4 GB RAM, two 7200 rpm disks, two task slots
// per machine, 800 MB per task). The benchmarks run real executions at
// laptop scale and report these simulated times, so the *shape* of every
// figure — linear scale-up, speed-up curves, the clustering-factor U,
// the stage breakdown — is produced by the same mechanisms as in the
// paper while the absolute scale matches the paper's hardware.
//
// Response time follows the paper's Section IV structure: the per-task
// cost is (1) fetching data in the mappers, (2) transferring key/record
// pairs, (3) reducer-side sorting and scanning; the job's response time is
// the makespan of scheduling task durations onto the cluster's slots, so
// it is governed by the heaviest reducer workload exactly as Formulas (2)
// and (4) model.
package costmodel

import (
	"fmt"
	"math"
	"sort"
)

// Machine holds the calibrated performance parameters of one cluster node.
type Machine struct {
	// DiskMBps is the sequential disk bandwidth (MB/s) for reads and run
	// spills. 7200 rpm-era disks sustain roughly 60 MB/s.
	DiskMBps float64
	// NetMBps is the effective per-task network bandwidth during the
	// shuffle (MB/s); all-to-all traffic keeps it well under line rate.
	NetMBps float64
	// MapSecPerRecord is the CPU cost of parsing one record and generating
	// its key/value pair(s).
	MapSecPerRecord float64
	// CombineSecPerRecord is the CPU cost of map-side early aggregation
	// per input record (hashing + partial-state update).
	CombineSecPerRecord float64
	// SortSecPerItem scales the n·log2(n) comparison-sort term.
	SortSecPerItem float64
	// EvalSecPerRecord is the local sort/scan evaluation cost per record.
	EvalSecPerRecord float64
	// TaskMemoryBytes bounds in-memory sorting; larger sorts pay the
	// out-of-core penalty (each spilled byte crosses the disk twice).
	TaskMemoryBytes int64
	// SlotsPerMachine is the number of concurrent tasks per machine.
	SlotsPerMachine int
	// TaskOverheadSec is fixed task start-up cost (JVM launch etc.).
	TaskOverheadSec float64
}

// DefaultMachine returns parameters calibrated to the paper's hardware.
func DefaultMachine() Machine {
	return Machine{
		DiskMBps:            60,
		NetMBps:             40,
		MapSecPerRecord:     1.2e-6,
		CombineSecPerRecord: 0.8e-6,
		SortSecPerItem:      0.12e-6,
		EvalSecPerRecord:    0.9e-6,
		TaskMemoryBytes:     800 << 20,
		SlotsPerMachine:     2,
		TaskOverheadSec:     1.0,
	}
}

// Cluster is a set of identical machines.
type Cluster struct {
	Machine  Machine
	Machines int
}

// DefaultCluster returns the paper's 100-machine cluster.
func DefaultCluster() Cluster {
	return Cluster{Machine: DefaultMachine(), Machines: 100}
}

// Slots returns the cluster's total task slots.
func (c Cluster) Slots() int { return c.Machines * c.Machine.SlotsPerMachine }

// MapWork and ReduceWork are the priced counter set: the cost model's
// sole input, so simulated seconds are a pure function of these fields.
// mr.MapTaskStats embeds MapWork and mr.ReduceTaskStats ReduceWork; every
// other per-task counter is an unpriced observation (mr.MapObserved,
// mr.ReduceObserved) the model cannot see.

// MapWork counts what one map task did.
type MapWork struct {
	BytesRead     int64 // input bytes fetched from the DFS
	Records       int64 // input records parsed
	PairsOut      int64 // key/value pairs emitted (after combining)
	BytesOut      int64 // bytes handed to the shuffle
	CombineInputs int64 // pairs that entered the combiner (0 = off)
}

// Scaled returns w with every counter multiplied by rep (a laptop-scale
// run standing in for a rep-times larger one).
func (w MapWork) Scaled(rep int64) MapWork {
	return MapWork{
		BytesRead:     w.BytesRead * rep,
		Records:       w.Records * rep,
		PairsOut:      w.PairsOut * rep,
		BytesOut:      w.BytesOut * rep,
		CombineInputs: w.CombineInputs * rep,
	}
}

// ReduceWork counts what one reduce task did. Zero-valued stages are
// free, which is how the Figure 4(d) stage stops are modeled.
type ReduceWork struct {
	BytesIn         int64 // shuffled bytes received
	PairsIn         int64 // pairs received
	SortItems       int64 // items grouped by the framework (priced as a sort on both grouping paths)
	SpillBytes      int64 // bytes spilled by that grouping
	GroupSortItems  int64 // items re-sorted inside groups (local algorithm)
	GroupSpillBytes int64 // bytes spilled by the in-group sort
	EvalRecords     int64 // records scanned by the local evaluation
	OutputRecords   int64 // measure records produced
}

// Scaled returns w with every counter multiplied by rep; see
// MapWork.Scaled.
func (w ReduceWork) Scaled(rep int64) ReduceWork {
	return ReduceWork{
		BytesIn:         w.BytesIn * rep,
		PairsIn:         w.PairsIn * rep,
		SortItems:       w.SortItems * rep,
		SpillBytes:      w.SpillBytes * rep,
		GroupSortItems:  w.GroupSortItems * rep,
		GroupSpillBytes: w.GroupSpillBytes * rep,
		EvalRecords:     w.EvalRecords * rep,
		OutputRecords:   w.OutputRecords * rep,
	}
}

func nLogN(n int64) float64 {
	if n < 2 {
		return float64(n)
	}
	f := float64(n)
	return f * math.Log2(f)
}

const mb = 1 << 20

// MapTime returns the simulated duration of one map task.
func (m Machine) MapTime(w MapWork) float64 {
	t := m.TaskOverheadSec
	t += float64(w.BytesRead) / (m.DiskMBps * mb)
	t += float64(w.Records) * m.MapSecPerRecord
	t += float64(w.CombineInputs) * m.CombineSecPerRecord
	t += float64(w.BytesOut) / (m.NetMBps * mb)
	return t
}

// ReduceTime returns the simulated duration of one reduce task.
func (m Machine) ReduceTime(w ReduceWork) float64 {
	t := m.TaskOverheadSec
	t += float64(w.BytesIn) / (m.NetMBps * mb)
	t += nLogN(w.SortItems) * m.SortSecPerItem
	t += 2 * float64(w.SpillBytes) / (m.DiskMBps * mb) // write + re-read
	t += nLogN(w.GroupSortItems) * m.SortSecPerItem
	t += 2 * float64(w.GroupSpillBytes) / (m.DiskMBps * mb)
	t += float64(w.EvalRecords) * m.EvalSecPerRecord
	t += float64(w.OutputRecords) * 0.2e-6 // result serialization
	return t
}

// ScheduleLPT returns the makespan of placing the given task durations on
// `slots` identical workers with the longest-processing-time-first greedy
// rule, the classical (4/3-optimal) approximation of the scheduler's
// behaviour.
func ScheduleLPT(durations []float64, slots int) float64 {
	if len(durations) == 0 || slots < 1 {
		return 0
	}
	d := append([]float64(nil), durations...)
	sort.Sort(sort.Reverse(sort.Float64Slice(d)))
	if slots > len(d) {
		slots = len(d)
	}
	loads := make([]float64, slots)
	for _, x := range d {
		mi := 0
		for i := 1; i < slots; i++ {
			if loads[i] < loads[mi] {
				mi = i
			}
		}
		loads[mi] += x
	}
	mx := loads[0]
	for _, l := range loads {
		if l > mx {
			mx = l
		}
	}
	return mx
}

// Estimate holds a job's simulated timing breakdown.
type Estimate struct {
	MapSeconds    float64
	ReduceSeconds float64
}

// Total returns the job's simulated response time.
func (e Estimate) Total() float64 { return e.MapSeconds + e.ReduceSeconds }

// String renders the estimate.
func (e Estimate) String() string {
	return fmt.Sprintf("map %.1fs + reduce %.1fs = %.1fs", e.MapSeconds, e.ReduceSeconds, e.Total())
}

// EstimateJob schedules the two waves separately and returns the
// breakdown.
func EstimateJob(c Cluster, mapWork []MapWork, reduceWork []ReduceWork) Estimate {
	mapDur := make([]float64, len(mapWork))
	for i, w := range mapWork {
		mapDur[i] = c.Machine.MapTime(w)
	}
	redDur := make([]float64, len(reduceWork))
	for i, w := range reduceWork {
		redDur[i] = c.Machine.ReduceTime(w)
	}
	return Estimate{
		MapSeconds:    ScheduleLPT(mapDur, c.Slots()),
		ReduceSeconds: ScheduleLPT(redDur, c.Slots()),
	}
}
