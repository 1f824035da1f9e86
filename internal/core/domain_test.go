package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/casm-project/casm/internal/blockstore"
	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/exec"
	"github.com/casm-project/casm/internal/measure"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/workflow"
)

// TestOutOfDomainRecordIsAnError: a record value outside its attribute's
// domain — equal to the cardinality, or a uvarint ≥ 2⁶³ — is a typed error
// from the map body, the engine's or the component-at-a-time baseline's,
// never a panic on a worker (a mapped attribute's value
// indexes its hierarchy tables) nor an answer over regions no level has.
// The failed job leaves no goroutine and no spill file behind.
func TestOutOfDomainRecordIsAnError(t *testing.T) {
	s := cube.MustSchema(
		cube.MustMappedAttribute("product", 8, cube.MappedLevel{Name: "cat", Assign: []int64{0, 0, 1, 1, 1, 2, 2, 3}}),
		cube.MustAttribute("amt", cube.Numeric, 64, cube.Level{Name: "v", Span: 1}, cube.Level{Name: "band", Span: 8}),
	)
	grain := s.MustGrain(cube.GrainSpec{Attr: "product", Level: "cat"}, cube.GrainSpec{Attr: "amt", Level: "band"})
	w := workflow.New(s)
	if err := w.AddBasic("total", grain, measure.Spec{Func: measure.Sum}, "amt"); err != nil {
		t.Fatal(err)
	}
	if err := w.AddRollup("all", s.GrainAll(), measure.Spec{Func: measure.Sum}, "total"); err != nil {
		t.Fatal(err)
	}
	exec.Default() // the shared pool's workers are not a leak
	for _, bad := range []struct {
		name string
		rec  cube.Record
	}{
		{"mapped=card", cube.Record{8, 3}},
		{"mapped≥2⁶³", cube.Record{-1, 3}},
		{"regular=card", cube.Record{2, 64}},
		{"regular≥2⁶³", cube.Record{2, -5}},
	} {
		records := make([]cube.Record, 300)
		for i := range records {
			records[i] = cube.Record{int64(i % 8), int64(i % 64)}
		}
		records[211] = bad.rec
		st, err := blockstore.Open(blockstore.Config{Dir: t.TempDir(), BlockSize: 1024, Replication: 1, NumNodes: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if err := st.WriteRecords("data", s.NumAttrs(), workflow.SchemaDigest(s), records); err != nil {
			t.Fatal(err)
		}
		datasets := map[string]*Dataset{
			"memory": MemoryDataset(s, records, 4),
			"store":  {Schema: s, Input: mr.NewStoreInput(st, "data"), NumRecords: int64(len(records)), Tag: "store:data"},
		}
		for dsName, ds := range datasets {
			// The third arm is the component-at-a-time baseline, whose own
			// map functions read the records.
			for arm := 0; arm < 3; arm++ {
				early := []EarlyAggMode{EarlyAggOff, EarlyAggAuto, EarlyAggOff}[arm]
				label := fmt.Sprintf("%s/%s/early=%d", bad.name, dsName, early)
				if arm == 2 {
					label = fmt.Sprintf("%s/%s/component-at-a-time", bad.name, dsName)
				}
				baseline := settleGoroutines(t)
				tmp := t.TempDir()
				eng, err := NewEngine(Config{NumReducers: 2, EarlyAggregation: early, SortMemoryItems: 8, TempDir: tmp})
				if err != nil {
					t.Fatal(err)
				}
				if arm == 2 {
					_, err = eng.RunComponentAtATimeContext(context.Background(), w, ds)
				} else {
					_, err = eng.Run(w, ds)
				}
				if !errors.Is(err, cube.ErrOutOfDomain) {
					t.Fatalf("%s: err = %v, want cube.ErrOutOfDomain", label, err)
				}
				waitForGoroutines(t, baseline)
				assertEmptyDir(t, label, tmp)
			}
		}
	}
}
