package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/casm-project/casm/internal/costmodel"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/workload"
)

// TestObservationsNeverPriced is the counter split's property: the cost
// model reads the priced structs embedded in mr.TaskStats and nothing
// else, so whatever a task's observations, timing and identity say, the
// estimate must not move by a bit. Every int64 of mr.Observed is filled
// by reflection — a counter added there is covered without touching this
// test — and a control perturbation of one priced counter proves the
// comparison can fail.
func TestObservationsNeverPriced(t *testing.T) {
	su := workload.NewSuite()
	ds := MemoryDataset(su.Schema, su.Generate(3000, workload.SkewedTime, 5), 6)
	res := runEngine(t, Config{NumReducers: 4, EarlyAggregation: EarlyAggAuto, SortMemoryItems: 64}, su.Q5(), ds)
	cluster := costmodel.DefaultCluster()
	want := EstimateFromStats(cluster, res.Stats)
	if want.MapSeconds <= 0 || want.ReduceSeconds <= 0 {
		t.Fatalf("degenerate estimate %+v", want)
	}

	rng := rand.New(rand.NewSource(11))
	scramble := func(tasks []mr.TaskStats) []mr.TaskStats {
		out := append([]mr.TaskStats(nil), tasks...)
		for i := range out {
			obs := reflect.ValueOf(&out[i].Observed).Elem()
			for f := 0; f < obs.NumField(); f++ {
				obs.Field(f).SetInt(rng.Int63())
			}
			out[i].Task = "scrambled"
			out[i].Attempts = rng.Intn(9)
			out[i].Wall = time.Duration(rng.Int63())
			out[i].CollectDone = time.Duration(rng.Int63())
		}
		return out
	}
	for round := 0; round < 20; round++ {
		js := res.Stats
		js.MapTasks, js.ReduceTasks = scramble(js.MapTasks), scramble(js.ReduceTasks)
		js.Wall, js.MapDone, js.FirstOutput = time.Duration(rng.Int63()), time.Duration(rng.Int63()), time.Duration(rng.Int63())
		if got := EstimateFromStats(cluster, js); got != want {
			t.Fatalf("round %d: observations moved the estimate: %+v, want %+v", round, got, want)
		}
	}

	js := res.Stats
	js.ReduceTasks = append([]mr.TaskStats(nil), js.ReduceTasks...)
	for i := range js.ReduceTasks {
		js.ReduceTasks[i].EvalRecords += 1 << 30
	}
	if got := EstimateFromStats(cluster, js); got == want {
		t.Error("control: a priced counter changed and the estimate did not")
	}
}
