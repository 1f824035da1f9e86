package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/recio"
	"github.com/casm-project/casm/internal/workflow"
	"github.com/casm-project/casm/internal/workload"
)

// endlessInput is one split that never runs out of records: a scan over
// it only ends by cancellation. It cancels the context itself once
// cancelAt records have been read, so the tests below are deterministic.
type endlessInput struct {
	raw      []byte
	cancelAt int64
	cancel   context.CancelFunc
	read     atomic.Int64
}

func (in *endlessInput) Splits() ([]mr.Split, error)  { return []mr.Split{in}, nil }
func (in *endlessInput) Label() string                { return "endless" }
func (in *endlessInput) SizeBytes() int64             { return 1 << 40 }
func (in *endlessInput) Open() (mr.RecordIter, error) { return in, nil }
func (in *endlessInput) Close() error                 { return nil }
func (in *endlessInput) Next() ([]byte, bool, error) {
	if in.read.Add(1) == in.cancelAt {
		in.cancel()
	}
	return in.raw, true, nil
}

// TestPlanningScansHonourCancellation pins PlanContext's documented
// contract — ctx bounds the dataset scans planning may perform — for the
// cardinality count (single-query and batch entry points) and the skew
// sample: each must stop within one poll stride of the cancellation.
func TestPlanningScansHonourCancellation(t *testing.T) {
	su := workload.NewSuite()
	raw := recio.AppendRecord(nil, su.Generate(1, workload.Uniform, 1)[0])
	const cancelAt = 5000
	cases := []struct {
		name string
		cfg  Config
		n    int64 // Dataset.NumRecords: 0 forces the counting scan
		run  func(context.Context, *Engine, *Dataset) error
	}{
		{"count", Config{NumReducers: 2}, 0, func(ctx context.Context, e *Engine, ds *Dataset) error {
			_, err := e.PlanContext(ctx, su.Q1(), ds)
			return err
		}},
		{"batch-count", Config{NumReducers: 2}, 0, func(ctx context.Context, e *Engine, ds *Dataset) error {
			_, err := e.EvaluateBatchContext(ctx, []*workflow.Workflow{su.Q1(), su.Q2()}, ds)
			return err
		}},
		{"sample", Config{NumReducers: 2, SkewMode: SkewSampling}, 1 << 20, func(ctx context.Context, e *Engine, ds *Dataset) error {
			_, err := e.PlanContext(ctx, su.Q5(), ds)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			in := &endlessInput{raw: raw, cancelAt: cancelAt, cancel: cancel}
			eng, err := NewEngine(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			err = tc.run(ctx, eng, &Dataset{Schema: su.Schema, Input: in, NumRecords: tc.n})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if over := in.read.Load() - cancelAt; over > cancelCheckStride {
				t.Errorf("scan read %d records past the cancellation, want <= %d", over, cancelCheckStride)
			}
		})
	}
}
