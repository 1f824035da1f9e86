// Package figures regenerates every panel of the paper's Figure 4
// (Section VI). Each panel function executes real engine runs over
// scaled-down synthetic datasets and reports the simulated response time
// on the paper's 100-machine cluster, so the *shape* of each curve — who
// wins, where crossovers fall — is produced by the same mechanisms as in
// the paper while absolute sizes fit a development machine.
//
// The root bench_test.go and cmd/casmbench both drive this package.
package figures

import (
	"context"
	"fmt"
	"strings"

	"github.com/casm-project/casm/internal/core"
	"github.com/casm-project/casm/internal/costmodel"
	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/workload"
)

// Config scales and parameterizes the panel runs.
type Config struct {
	// Scale multiplies every dataset size (1.0 ≈ a few hundred thousand
	// records per run; raise it on bigger machines).
	Scale float64
	// Represent is the number of paper-records each real record stands
	// for when converting measured counters into simulated seconds: real
	// runs stay laptop-sized while the reported times correspond to the
	// paper's hundreds of millions to billions of records. Default 2500
	// (so the default 400k-record run represents 1B records). The curve
	// shapes come entirely from the real counters; Represent only sets
	// the magnitude.
	Represent int64
	// Reducers is the default reducer count (panels with their own sweep
	// ignore it). Default 16.
	Reducers int
	// TempDir hosts spill files.
	TempDir string
	// Seed drives data generation.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Represent <= 0 {
		c.Represent = 2500
	}
	if c.Reducers < 1 {
		c.Reducers = 16
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// SimSeconds converts a run's real counters into simulated seconds at
// paper magnitude: every per-task counter is multiplied by rep before the
// cost model is applied. The fixed sampling overhead is added as-is (the
// sample size does not grow with the dataset).
func SimSeconds(res *core.Result, rep int64) float64 {
	est := core.EstimateFromStats(costmodel.DefaultCluster(), mrStatsScaled(res.Stats, rep))
	return est.Total() + res.SampleSeconds
}

// mrStatsScaled scales the priced counters — all the cost model reads —
// and leaves timing and observations at what the real run measured.
func mrStatsScaled(js mr.JobStats, rep int64) mr.JobStats {
	out := mr.JobStats{Shuffled: js.Shuffled * rep}
	for _, t := range js.MapTasks {
		t.MapWork = t.MapWork.Scaled(rep)
		out.MapTasks = append(out.MapTasks, t)
	}
	for _, t := range js.ReduceTasks {
		t.ReduceWork = t.ReduceWork.Scaled(rep)
		out.ReduceTasks = append(out.ReduceTasks, t)
	}
	return out
}

func (c Config) n(base int) int { return int(float64(base) * c.Scale) }

// Table is a rendered result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s ===\n", t.Title)
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%-*s  ", widths[i], c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		for i, cell := range r {
			fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// runQuery executes one engine run and returns the simulated seconds at
// paper magnitude (see Config.Represent).
func runQuery(ctx context.Context, su *workload.Suite, records []cube.Record, cfg core.Config, q int, fc Config) (float64, *core.Result, error) {
	w, err := su.Query(q)
	if err != nil {
		return 0, nil, err
	}
	cfg.TempDir = fc.TempDir
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return 0, nil, err
	}
	ds := core.MemoryDataset(su.Schema, records, 4*cfg.NumReducers)
	res, err := eng.EvaluateContext(ctx, w, ds)
	if err != nil {
		return 0, nil, err
	}
	return SimSeconds(res, fc.Represent), res, nil
}

// PanelA is Figure 4(a): scale-up — response time vs. data size for
// Q1–Q6.
type PanelA struct {
	Sizes   []int
	Queries []int
	// Seconds[i][j] is the simulated response time of Queries[j] at
	// Sizes[i].
	Seconds [][]float64
}

// Fig4a runs the scale-up experiment.
func Fig4a(ctx context.Context, cfg Config) (*PanelA, error) {
	cfg = cfg.withDefaults()
	su := workload.NewSuite()
	p := &PanelA{
		Sizes:   []int{cfg.n(50_000), cfg.n(100_000), cfg.n(200_000), cfg.n(400_000)},
		Queries: []int{1, 2, 3, 4, 5, 6},
	}
	for _, size := range p.Sizes {
		records := su.Generate(size, workload.Uniform, cfg.Seed)
		row := make([]float64, len(p.Queries))
		for j, q := range p.Queries {
			sec, _, err := runQuery(ctx, su, records, core.Config{NumReducers: cfg.Reducers}, q, cfg)
			if err != nil {
				return nil, fmt.Errorf("figures: 4a Q%d at %d: %w", q, size, err)
			}
			row[j] = sec
		}
		p.Seconds = append(p.Seconds, row)
	}
	return p, nil
}

// Table renders the panel.
func (p *PanelA) Table() Table {
	t := Table{Title: "Figure 4(a) — scale-up: simulated seconds vs. data size",
		Columns: []string{"records"}}
	for _, q := range p.Queries {
		t.Columns = append(t.Columns, fmt.Sprintf("Q%d", q))
	}
	for i, size := range p.Sizes {
		row := []string{fmt.Sprintf("%d", size)}
		for _, s := range p.Seconds[i] {
			row = append(row, f1(s))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// PanelB is Figure 4(b): speed-up — processing rate vs. reducer count for
// Q1, Q2, Q6.
type PanelB struct {
	Records  int
	Reducers []int
	Queries  []int
	// Rate[i][j] is records/simulated-second (millions) for Queries[j]
	// with Reducers[i].
	Rate [][]float64
}

// Fig4b runs the speed-up experiment.
func Fig4b(ctx context.Context, cfg Config) (*PanelB, error) {
	cfg = cfg.withDefaults()
	su := workload.NewSuite()
	p := &PanelB{
		Records:  cfg.n(300_000),
		Reducers: []int{4, 8, 16, 32, 50},
		Queries:  []int{1, 2, 6},
	}
	records := su.Generate(p.Records, workload.Uniform, cfg.Seed)
	for _, m := range p.Reducers {
		row := make([]float64, len(p.Queries))
		for j, q := range p.Queries {
			sec, _, err := runQuery(ctx, su, records, core.Config{NumReducers: m}, q, cfg)
			if err != nil {
				return nil, fmt.Errorf("figures: 4b Q%d m=%d: %w", q, m, err)
			}
			// Rate at paper magnitude: each real record represents
			// cfg.Represent paper records.
			row[j] = float64(p.Records) * float64(cfg.Represent) / sec / 1e6
		}
		p.Rate = append(p.Rate, row)
	}
	return p, nil
}

// Table renders the panel.
func (p *PanelB) Table() Table {
	t := Table{Title: fmt.Sprintf("Figure 4(b) — speed-up: processing rate (M records/s) vs. reducers, N=%d", p.Records),
		Columns: []string{"reducers"}}
	for _, q := range p.Queries {
		t.Columns = append(t.Columns, fmt.Sprintf("Q%d", q))
	}
	for i, m := range p.Reducers {
		row := []string{fmt.Sprintf("%d", m)}
		for _, r := range p.Rate[i] {
			row = append(row, f2(r))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
