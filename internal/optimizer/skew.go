package optimizer

import (
	"fmt"

	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/distkey"
	"github.com/casm-project/casm/internal/mr"
)

// Section V: run-time skew handling. The mappers sample the records they
// acquire, a simulated dispatch computes the workload each reducer would
// receive under a candidate plan, and the plan with the lowest maximal
// workload wins.

// SimulatedDispatch runs the mapper's key-generation logic over a sample
// and returns the number of sampled pairs each reducer would receive
// (including overlap duplication). partition may be nil for the default
// hash partitioner.
func SimulatedDispatch(s *cube.Schema, key distkey.Key, cf int64, sample []cube.Record,
	numReducers int, partition func([]byte, int) int) ([]float64, error) {
	if partition == nil {
		partition = mr.HashPartition
	}
	bm, err := distkey.NewBlockMapper(s, key, cf)
	if err != nil {
		return nil, err
	}
	loads := make([]float64, numReducers)
	ss := bm.NewSession()
	defer ss.Release()
	for _, rec := range sample {
		for _, block := range ss.Blocks(rec) {
			loads[partition(block, numReducers)]++
		}
	}
	return loads, nil
}

// SamplingChoice is the outcome of ChooseBySampling.
type SamplingChoice struct {
	Plan Plan
	// MaxLoads holds each candidate's simulated heaviest load (sampled
	// pairs), aligned with Plan.Candidates.
	MaxLoads []float64
	// SampleSize is the number of records dispatched per candidate.
	SampleSize int
}

// ChooseBySampling re-ranks the model's candidate plans by simulated
// dispatch over a sample and returns the plan whose heaviest simulated
// reducer load is smallest (ties broken by the model's prediction, i.e.
// candidate order). This is the paper's "Sampling" strategy, which finds
// the best plan with or without data skew.
func ChooseBySampling(s *cube.Schema, model Plan, sample []cube.Record,
	numReducers int, partition func([]byte, int) int) (SamplingChoice, error) {
	if len(model.Candidates) == 0 {
		return SamplingChoice{}, fmt.Errorf("optimizer: plan has no candidates")
	}
	if len(sample) == 0 {
		return SamplingChoice{Plan: model, SampleSize: 0}, nil
	}
	choice := SamplingChoice{Plan: model, SampleSize: len(sample)}
	best := -1
	var bestMax float64
	for i, c := range model.Candidates {
		loads, err := SimulatedDispatch(s, c.Key, c.ClusteringFactor, sample, numReducers, partition)
		if err != nil {
			return SamplingChoice{}, err
		}
		mx := 0.0
		for _, l := range loads {
			if l > mx {
				mx = l
			}
		}
		choice.MaxLoads = append(choice.MaxLoads, mx)
		// Replace the incumbent only on a clear (>3%) win: candidates are
		// ordered by the model's prediction, so near-ties defer to the
		// model rather than to sampling noise.
		if best < 0 || mx < 0.97*bestMax {
			best, bestMax = i, mx
		}
	}
	win := model.Candidates[best]
	choice.Plan = Plan{
		Key:               win.Key,
		ClusteringFactor:  win.ClusteringFactor,
		PredictedWorkload: win.Workload,
		Blocks:            win.Blocks,
		Candidates:        model.Candidates,
	}
	return choice, nil
}
