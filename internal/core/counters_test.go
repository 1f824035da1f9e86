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
// model reads the priced structs embedded in mr.MapTaskStats and
// mr.ReduceTaskStats and nothing else, so whatever a task's observations,
// timing and identity say, the estimate must not move by a bit. Every
// int64 of mr.MapObserved and mr.ReduceObserved is filled by reflection —
// a counter added to either is covered without touching this test — and a
// control perturbation of one priced counter proves the comparison can
// fail.
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
	fill := func(obs reflect.Value) {
		for f := 0; f < obs.NumField(); f++ {
			obs.Field(f).SetInt(rng.Int63())
		}
	}
	for round := 0; round < 20; round++ {
		js := res.Stats
		js.MapTasks = append([]mr.MapTaskStats(nil), js.MapTasks...)
		for i := range js.MapTasks {
			mt := &js.MapTasks[i]
			fill(reflect.ValueOf(&mt.MapObserved).Elem())
			mt.Task, mt.Attempts, mt.Wall = "scrambled", rng.Intn(9), time.Duration(rng.Int63())
		}
		js.ReduceTasks = append([]mr.ReduceTaskStats(nil), js.ReduceTasks...)
		for i := range js.ReduceTasks {
			rt := &js.ReduceTasks[i]
			fill(reflect.ValueOf(&rt.ReduceObserved).Elem())
			rt.Task, rt.Attempts, rt.Wall = "scrambled", rng.Intn(9), time.Duration(rng.Int63())
			rt.CollectDone = time.Duration(rng.Int63())
		}
		js.Wall, js.MapDone, js.FirstOutput = time.Duration(rng.Int63()), time.Duration(rng.Int63()), time.Duration(rng.Int63())
		if got := EstimateFromStats(cluster, js); got != want {
			t.Fatalf("round %d: observations moved the estimate: %+v, want %+v", round, got, want)
		}
	}

	js := res.Stats
	js.ReduceTasks = append([]mr.ReduceTaskStats(nil), js.ReduceTasks...)
	for i := range js.ReduceTasks {
		js.ReduceTasks[i].EvalRecords += 1 << 30
	}
	if got := EstimateFromStats(cluster, js); got == want {
		t.Error("control: a priced counter changed and the estimate did not")
	}
}

// TestSimulatedSecondsRepeatWithoutSpills is the condition under which
// simulated seconds repeat: a run whose reducers never spill — every
// Figure 4 run — prices bit-identically twice. A spilling reducer's
// SpillBytes depends on the order its pairs arrive in, so under a forced
// spill SpillBytes may move between runs, and every other priced counter
// must not.
func TestSimulatedSecondsRepeatWithoutSpills(t *testing.T) {
	su := workload.NewSuite()
	ds := MemoryDataset(su.Schema, su.Generate(6000, workload.SkewedTime, 6), 6)
	for _, budget := range []int{0, 64} {
		cfg := Config{NumReducers: 3, SortMemoryItems: budget}
		a, b := runEngine(t, cfg, su.Q6(), ds), runEngine(t, cfg, su.Q6(), ds)
		var spilled int64
		for r, ta := range a.Stats.ReduceTasks {
			wa, wb := ta.ReduceWork, b.Stats.ReduceTasks[r].ReduceWork
			spilled += wa.SpillBytes + wb.SpillBytes
			wa.SpillBytes, wb.SpillBytes = 0, 0
			if wa != wb {
				t.Errorf("budget %d: reducer %d priced %+v, then %+v", budget, r, wa, wb)
			}
		}
		for m, ta := range a.Stats.MapTasks {
			if ta.MapWork != b.Stats.MapTasks[m].MapWork {
				t.Errorf("budget %d: map task %d priced %+v, then %+v", budget, m, ta.MapWork, b.Stats.MapTasks[m].MapWork)
			}
		}
		if (spilled == 0) != (budget == 0) || budget == 0 && a.Estimate != b.Estimate {
			t.Errorf("budget %d: spilled %d bytes; priced %+v, then %+v", budget, spilled, a.Estimate, b.Estimate)
		}
	}
}
