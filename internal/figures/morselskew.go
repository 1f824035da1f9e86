package figures

import (
	"context"
	"fmt"
	"os"

	"github.com/casm-project/casm/internal/blockstore"
	"github.com/casm-project/casm/internal/core"
	"github.com/casm-project/casm/internal/costmodel"
	"github.com/casm-project/casm/internal/exec"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/recio"
	"github.com/casm-project/casm/internal/workload"
)

// MorselSkew is the fixed-split vs morsel-driven comparison on a
// zipf-hot clustered workload (the §V straggler scenario). It is not one
// of the paper's Figure 4 panels — it evaluates this reproduction's
// morsel-mode extension — so casmbench emits it as a separate snapshot
// section that casmbenchdiff does not compare across commits.
//
// Methodology, following the repo's "real executions, simulated seconds"
// convention: both modes run for real at each worker count, and the map
// phase's simulated makespan schedules priced durations onto `workers`
// slots with the cost model's LPT rule — at the granularity each mode
// actually schedules. Fixed-split mode schedules its measured per-task
// counters (one task per DFS block), so a clustered hot block rides on
// one slot. Morsel mode schedules per-morsel durations: the morsel
// boundaries are recomputed deterministically from the data (the same
// carve the engine performs) and priced with per-record/per-byte rates
// taken from the real run's totals — which are themselves invariant to
// how morsels landed on workers, the property the equivalence tests pin
// down. The per-worker split observed on the benchmark host is NOT used
// for the makespan, deliberately: on a single-core host the pool's
// workers cannot interleave, so one worker drains every deque and the
// measured split degenerates, while the simulated cluster's workers
// genuinely run in parallel and work-stealing keeps them within one
// morsel of even — which is exactly what LPT over the morsel durations
// computes. Real wall seconds and the real runs' steal/spill counters
// ride along to keep the morsel machinery's actual behaviour visible.
type MorselSkew struct {
	Records     int     `json:"records"`
	Splits      int     `json:"splits"`
	MorselBytes int     `json:"morsel_bytes"`
	Zipf        float64 `json:"zipf"`
	Layout      string  `json:"layout"`
	Workers     []int   `json:"workers"`
	// FixedSeconds[i] / MorselSeconds[i] are the simulated map-phase
	// makespans on Workers[i] slots at paper magnitude.
	FixedSeconds  []float64 `json:"fixed_seconds"`
	MorselSeconds []float64 `json:"morsel_seconds"`
	// FixedWall[i] / MorselWall[i] are the whole run's real wall seconds.
	FixedWall  []float64 `json:"fixed_wall_seconds"`
	MorselWall []float64 `json:"morsel_wall_seconds"`
	// Steals[i] / Spills[i] are the run's total MorselSteals and
	// LocalAggSpills at Workers[i] (morsel mode).
	Steals []int64 `json:"morsel_steals"`
	Spills []int64 `json:"local_agg_spills"`
}

// morselSkewSplits is the number of DFS blocks the skew dataset is packed
// into. It is deliberately small relative to the worker sweep — the
// paper's DFS uses large fixed blocks, so real deployments see a handful
// of splits per map wave — because split-granular scheduling is exactly
// what the comparison measures: with ~10 blocks on 8 slots, fixed-split
// execution quantizes to whole blocks (and the zipf-dense blocks are the
// biggest), while morsels smooth the same records across all slots.
const morselSkewSplits = 10

// MorselSkewPanel runs the comparison at 1, 4, and 8 map workers.
func MorselSkewPanel(ctx context.Context, cfg Config) (*MorselSkew, error) {
	cfg = cfg.withDefaults()
	su := workload.NewSuite()
	p := &MorselSkew{
		Records: cfg.n(240_000),
		Zipf:    2,
		Layout:  workload.LayoutClustered.String(),
		Workers: []int{1, 4, 8},
	}
	records, err := su.GenerateOpts(workload.GenOpts{
		N: p.Records, Seed: cfg.Seed, Zipf: p.Zipf, Layout: workload.LayoutClustered,
	})
	if err != nil {
		return nil, err
	}
	// Size blocks to the dataset so the split count stays at
	// morselSkewSplits across scales; morsels carve each block ~16 ways.
	framed, err := recio.PackAligned(records, 1<<30)
	if err != nil {
		return nil, err
	}
	blockSize := len(framed)/morselSkewSplits + 1<<10
	p.MorselBytes = blockSize / 16
	dir, err := os.MkdirTemp(cfg.TempDir, "casm-morselskew")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := blockstore.Open(blockstore.Config{Dir: dir, BlockSize: blockSize, Replication: 1, NumNodes: 4, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	if err := workload.WriteStore(st, "skew", su.Schema, records); err != nil {
		return nil, err
	}
	blocks, err := st.Blocks("skew")
	if err != nil {
		return nil, err
	}
	p.Splits = len(blocks)
	ds := &core.Dataset{Schema: su.Schema, Input: mr.NewStoreInput(st, "skew"), NumRecords: int64(len(records))}
	shapes, err := morselShapes(ds.Input, p.MorselBytes)
	if err != nil {
		return nil, err
	}
	w, err := su.DS(1)
	if err != nil {
		return nil, err
	}

	for _, workers := range p.Workers {
		for _, morsel := range []bool{false, true} {
			// A pool of exactly `workers` so the run's real concurrency
			// matches the slot count the makespan is computed for.
			ex := exec.New(workers)
			ecfg := core.Config{
				NumReducers:      cfg.Reducers,
				MapParallelism:   workers,
				Executor:         ex,
				EarlyAggregation: core.EarlyAggAuto, // the combiner is the thread-local table
				TempDir:          cfg.TempDir,
			}
			if morsel {
				ecfg.MorselBytes = p.MorselBytes
			}
			eng, err := core.NewEngine(ecfg)
			if err != nil {
				ex.Close()
				return nil, err
			}
			res, err := eng.EvaluateContext(ctx, w, ds)
			ex.Close()
			if err != nil {
				return nil, err
			}
			wall := res.Stats.Wall.Seconds()
			if morsel {
				makespan := morselMakespan(shapes, res.Stats, cfg.Represent, workers)
				p.MorselSeconds = append(p.MorselSeconds, makespan)
				p.MorselWall = append(p.MorselWall, wall)
				var steals, spills int64
				for _, t := range res.Stats.MapTasks {
					steals += t.MorselSteals
					spills += t.LocalAggSpills
				}
				p.Steals = append(p.Steals, steals)
				p.Spills = append(p.Spills, spills)
			} else {
				p.FixedSeconds = append(p.FixedSeconds, mapMakespan(res.Stats, cfg.Represent, workers))
				p.FixedWall = append(p.FixedWall, wall)
			}
		}
	}
	return p, nil
}

// mapMakespan prices every map task's counters at paper magnitude and
// schedules the durations on `slots` identical workers (LPT), returning
// the map phase's simulated makespan.
func mapMakespan(js mr.JobStats, rep int64, slots int) float64 {
	m := costmodel.DefaultCluster().Machine
	durations := make([]float64, len(js.MapTasks))
	for i, t := range js.MapTasks {
		durations[i] = m.MapTime(t.MapWork.Scaled(rep))
	}
	return costmodel.ScheduleLPT(durations, slots)
}

// morselShape is the deterministic footprint of one morsel: the carve
// depends only on the data and the target size, never on scheduling.
type morselShape struct {
	bytes   int64
	records int64
}

// morselShapes performs the same carve the engine's dispatcher does and
// measures each morsel's size.
func morselShapes(in mr.Input, targetBytes int) ([]morselShape, error) {
	splits, err := in.Splits()
	if err != nil {
		return nil, err
	}
	var out []morselShape
	for _, sp := range splits {
		parts := []mr.Split{sp}
		if msp, ok := sp.(mr.MorselSplit); ok {
			if parts, err = msp.Morsels(targetBytes); err != nil {
				return nil, err
			}
		}
		for _, m := range parts {
			it, err := m.Open()
			if err != nil {
				return nil, err
			}
			var n int64
			for {
				_, ok, err := it.Next()
				if err != nil {
					return nil, err
				}
				if !ok {
					break
				}
				n++
			}
			out = append(out, morselShape{bytes: m.SizeBytes(), records: n})
		}
	}
	return out, nil
}

const mib = 1 << 20

// morselMakespan schedules per-morsel durations on `slots` workers. Each
// morsel is priced with the cost model's read/parse/combine rates (the
// combine rate weighted by the real run's combine-inputs-per-record, an
// aggregate invariant to worker assignment); every slot then pays one
// task overhead plus its 1/slots share of the measured shuffle output —
// morsel-mode workers flush one local table each, so transfer is spread
// evenly rather than block-granular.
func morselMakespan(shapes []morselShape, js mr.JobStats, rep int64, slots int) float64 {
	m := costmodel.DefaultCluster().Machine
	var records, combine, bytesOut int64
	for _, t := range js.MapTasks {
		records += t.Records
		combine += t.CombineInputs
		bytesOut += t.BytesOut
	}
	var combineRate float64
	if records > 0 {
		combineRate = float64(combine) / float64(records)
	}
	durations := make([]float64, len(shapes))
	for i, s := range shapes {
		durations[i] = float64(s.bytes*rep)/(m.DiskMBps*mib) +
			float64(s.records*rep)*(m.MapSecPerRecord+combineRate*m.CombineSecPerRecord)
	}
	if slots < 1 {
		slots = 1
	}
	return costmodel.ScheduleLPT(durations, slots) +
		m.TaskOverheadSec +
		float64(bytesOut*rep)/float64(slots)/(m.NetMBps*mib)
}

// Improvement returns 1 - morsel/fixed at Workers[i].
func (p *MorselSkew) Improvement(i int) float64 {
	if p.FixedSeconds[i] == 0 {
		return 0
	}
	return 1 - p.MorselSeconds[i]/p.FixedSeconds[i]
}

// Table renders the comparison.
func (p *MorselSkew) Table() Table {
	t := Table{
		Title: fmt.Sprintf("Morsel vs fixed splits, zipf(%g) %s, %d records in %d blocks (map makespan, simulated seconds)",
			p.Zipf, p.Layout, p.Records, p.Splits),
		Columns: []string{"workers", "fixed (s)", "morsel (s)", "improvement", "steals", "spills", "fixed wall (s)", "morsel wall (s)"},
	}
	for i, w := range p.Workers {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", w),
			fmt.Sprintf("%.1f", p.FixedSeconds[i]),
			fmt.Sprintf("%.1f", p.MorselSeconds[i]),
			fmt.Sprintf("%.0f%%", 100*p.Improvement(i)),
			fmt.Sprintf("%d", p.Steals[i]),
			fmt.Sprintf("%d", p.Spills[i]),
			fmt.Sprintf("%.2f", p.FixedWall[i]),
			fmt.Sprintf("%.2f", p.MorselWall[i]),
		})
	}
	return t
}
