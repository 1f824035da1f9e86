package core

import (
	"fmt"
	"strings"
	"testing"

	"github.com/casm-project/casm/internal/blockstore"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/workload"
)

// openHook wraps an input, and each split it hands out, so that a split's
// Open first calls hook with the split's label; an error fails the Open.
type openHook struct {
	mr.Input
	mr.Split
	hook func(label string) error
}

func (h openHook) Splits() ([]mr.Split, error) {
	splits, err := h.Input.Splits()
	for i, sp := range splits {
		splits[i] = openHook{Split: sp, hook: h.hook}
	}
	return splits, err
}

func (h openHook) Open() (mr.Iter[mr.Batch], error) {
	if err := h.hook(h.Label()); err != nil {
		return nil, err
	}
	return h.Split.Open()
}

// TestEnginePermanentFailureSurfaces: a split that cannot be opened aborts
// the job with its error, labelled by task, instead of silently dropping
// data.
func TestEnginePermanentFailureSurfaces(t *testing.T) {
	su := workload.NewSuite()
	ds := MemoryDataset(su.Schema, su.Generate(500, workload.Uniform, 1), 4)
	ds.Input = openHook{Input: ds.Input, hook: func(label string) error {
		if label == "mem-2" {
			return fmt.Errorf("disk on fire")
		}
		return nil
	}}
	eng, err := NewEngine(Config{NumReducers: 2, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run(su.Q1(), ds)
	if err == nil || !strings.Contains(err.Error(), "disk on fire") || !strings.Contains(err.Error(), "mem-2") {
		t.Fatalf("err = %v", err)
	}
}

// TestEngineReadsThroughReplicaLoss: losing storage nodes (but not every
// replica) must not change the result.
func TestEngineReadsThroughReplicaLoss(t *testing.T) {
	su := workload.NewSuite()
	records := su.Generate(2000, workload.Uniform, 13)
	st, err := blockstore.Open(blockstore.Config{Dir: t.TempDir(), BlockSize: 4096, Replication: 3, NumNodes: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := workload.WriteStore(st, "data", su.Schema, records); err != nil {
		t.Fatal(err)
	}
	mk := func() *Dataset {
		return &Dataset{Schema: su.Schema, Input: mr.NewStoreInput(st, "data"), NumRecords: int64(len(records))}
	}
	w := su.Q2()
	want := oracle(t, w, records)

	// Healthy run.
	res1 := runEngine(t, Config{NumReducers: 3}, w, mk())
	compare(t, "healthy", want, flatten(res1))

	// Two of six nodes down: every block still has a live replica
	// (replication 3), so the run succeeds with the same answer.
	st.FailNode(0)
	st.FailNode(1)
	res2 := runEngine(t, Config{NumReducers: 3}, w, mk())
	compare(t, "degraded", want, flatten(res2))

	// Losing enough nodes to kill some block's last replica fails the
	// job loudly.
	st.FailNode(2)
	st.FailNode(3)
	st.FailNode(4)
	st.FailNode(5)
	eng, err := NewEngine(Config{NumReducers: 3, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(w, mk()); err == nil {
		t.Fatal("run succeeded with all storage nodes down")
	}
}
