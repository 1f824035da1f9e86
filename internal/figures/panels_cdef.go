package figures

import (
	"context"
	"fmt"

	"github.com/casm-project/casm/internal/core"
	"github.com/casm-project/casm/internal/costmodel"
	"github.com/casm-project/casm/internal/optimizer"
	"github.com/casm-project/casm/internal/workload"
)

// PanelC is Figure 4(c): execution time vs. clustering factor, with the
// analytic Formula (4) prediction overlaid.
type PanelC struct {
	Records   int
	Reducers  int
	Factors   []int64
	Measured  []float64 // simulated seconds per cf
	Predicted []float64 // Formula (4) workload normalized to seconds
	OptimalCF int64     // the optimizer's unconstrained choice
}

// Fig4c runs the clustering-factor sweep on the sliding-window query Q5.
func Fig4c(ctx context.Context, cfg Config) (*PanelC, error) {
	cfg = cfg.withDefaults()
	su := workload.NewSuite()
	p := &PanelC{
		Records:  cfg.n(300_000),
		Reducers: cfg.Reducers,
		Factors:  []int64{1, 2, 5, 10, 25, 50, 100, 250},
	}
	records := su.Generate(p.Records, workload.Uniform, cfg.Seed)
	w := su.Q5()
	optCfg := optimizer.Config{NumReducers: p.Reducers, TotalRecords: int64(p.Records)}
	plan, err := optimizer.Optimize(w, optCfg)
	if err != nil {
		return nil, err
	}
	p.OptimalCF = plan.ClusteringFactor
	raw := make([]float64, len(p.Factors))
	for i, cf := range p.Factors {
		sec, _, err := runQuery(ctx, su, records, core.Config{NumReducers: p.Reducers, ForceCF: cf}, 5, cfg)
		if err != nil {
			return nil, fmt.Errorf("figures: 4c cf=%d: %w", cf, err)
		}
		p.Measured = append(p.Measured, sec)
		raw[i] = optimizer.PredictWorkload(su.Schema, plan.Key, cf, optCfg)
	}
	// Normalize the predicted workload (records) onto the measured scale
	// so both series overlay, as in the paper's second axis.
	ref := 0
	for i := range p.Factors {
		if p.Measured[i] < p.Measured[ref] {
			ref = i
		}
	}
	for i := range raw {
		p.Predicted = append(p.Predicted, raw[i]/raw[ref]*p.Measured[ref])
	}
	return p, nil
}

// Table renders the panel.
func (p *PanelC) Table() Table {
	t := Table{
		Title:   fmt.Sprintf("Figure 4(c) — clustering factor (Q5, N=%d, m=%d; optimizer picks cf=%d)", p.Records, p.Reducers, p.OptimalCF),
		Columns: []string{"cf", "measured(s)", "model(s, relative)"},
	}
	for i, cf := range p.Factors {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", cf), f1(p.Measured[i]), f1(p.Predicted[i])})
	}
	return t
}

// PanelD is Figure 4(d): the evaluation cost breakdown.
type PanelD struct {
	Records  int
	Stages   []string
	Seconds  []float64
	Combined float64 // Sort+Eval with the combined-key optimization
}

// Fig4d prices the breakdown on Q6 from one full run (core.EstimateStages)
// and the combined key's Sort+Eval from the same run's counters
// (core.CombinedKey).
func Fig4d(ctx context.Context, cfg Config) (*PanelD, error) {
	cfg = cfg.withDefaults()
	su := workload.NewSuite()
	p := &PanelD{Records: cfg.n(200_000)}
	records := su.Generate(p.Records, workload.Uniform, cfg.Seed)
	_, res, err := runQuery(ctx, su, records, core.Config{NumReducers: cfg.Reducers}, 6, cfg)
	if err != nil {
		return nil, err
	}
	for s, est := range core.EstimateStages(costmodel.DefaultCluster(), mrStatsScaled(res.Stats, represent)) {
		p.Stages = append(p.Stages, costmodel.Stage(s).String())
		p.Seconds = append(p.Seconds, est.Total()+res.SampleSeconds)
	}
	cf, ok := core.CombinedKey(res.Stats)
	if !ok {
		return nil, fmt.Errorf("figures: Q6 run spilled or combined, so it prices no combined key")
	}
	p.Combined = core.EstimateFromStats(costmodel.DefaultCluster(), mrStatsScaled(cf, represent)).Total() + res.SampleSeconds
	return p, nil
}

// Table renders the panel.
func (p *PanelD) Table() Table {
	t := Table{
		Title:   fmt.Sprintf("Figure 4(d) — cost breakdown (Q6, N=%d)", p.Records),
		Columns: []string{"stage", "simulated(s)"},
	}
	for i, s := range p.Stages {
		t.Rows = append(t.Rows, []string{s, f1(p.Seconds[i])})
	}
	t.Rows = append(t.Rows, []string{"Sort+Eval (combined key)", f1(p.Combined)})
	return t
}

// PanelE is Figure 4(e): early aggregation on DS0–DS2.
type PanelE struct {
	Records int
	With    []float64 // simulated seconds with early aggregation
	Without []float64
}

// Fig4e runs the early-aggregation comparison.
func Fig4e(ctx context.Context, cfg Config) (*PanelE, error) {
	cfg = cfg.withDefaults()
	su := workload.NewSuite()
	p := &PanelE{Records: cfg.n(300_000)}
	records := su.Generate(p.Records, workload.Uniform, cfg.Seed)
	for i := 0; i <= 2; i++ {
		w, err := su.DS(i)
		if err != nil {
			return nil, err
		}
		for _, early := range []core.EarlyAggMode{core.EarlyAggAuto, core.EarlyAggOff} {
			eng, err := core.NewEngine(core.Config{
				NumReducers: cfg.Reducers, EarlyAggregation: early, TempDir: cfg.TempDir,
			})
			if err != nil {
				return nil, err
			}
			// Few, large splits: each mapper sees enough records for the
			// combiner's grouping to matter, as on the paper's cluster.
			ds := core.MemoryDataset(su.Schema, records, 8)
			res, err := eng.EvaluateContext(ctx, w, ds)
			if err != nil {
				return nil, fmt.Errorf("figures: 4e DS%d: %w", i, err)
			}
			if early == core.EarlyAggAuto {
				p.With = append(p.With, SimSeconds(res, represent))
			} else {
				p.Without = append(p.Without, SimSeconds(res, represent))
			}
		}
	}
	return p, nil
}

// Table renders the panel.
func (p *PanelE) Table() Table {
	t := Table{
		Title:   fmt.Sprintf("Figure 4(e) — early aggregation (N=%d)", p.Records),
		Columns: []string{"query", "early agg(s)", "no early agg(s)"},
	}
	for i := range p.With {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("DS%d", i), f1(p.With[i]), f1(p.Without[i])})
	}
	return t
}

// PanelF is Figure 4(f): skew handling.
type PanelF struct {
	Records int
	Plans   []string
	// Seconds[i][0] = uniform data, Seconds[i][1] = skewed data.
	Seconds        [][2]float64
	SampleOverhead float64 // simulated seconds the sampling pass adds
}

// Fig4f compares Normal / 2Blocks / 4Blocks / Sampling on uniform vs.
// temporally skewed data, using the sliding-window query Q5. The panel
// runs with 50 reducers so that the minimum-blocks heuristics actually
// constrain the clustering factor, as in the paper's cluster.
func Fig4f(ctx context.Context, cfg Config) (*PanelF, error) {
	cfg = cfg.withDefaults()
	su := workload.NewSuite()
	p := &PanelF{
		Records: cfg.n(300_000),
		Plans:   []string{"Normal", "2Blocks", "4Blocks", "Sampling"},
	}
	const m = 50
	uniform := su.Generate(p.Records, workload.Uniform, cfg.Seed)
	skewed := su.Generate(p.Records, workload.SkewedTime, cfg.Seed)
	configs := []core.Config{
		{NumReducers: m},
		{NumReducers: m, MinBlocksPerReducer: 2},
		{NumReducers: m, MinBlocksPerReducer: 4},
		{NumReducers: m, SkewMode: core.SkewSampling, SampleSize: 4000},
	}
	for i, c := range configs {
		var pair [2]float64
		// Run on uniform (index 0) and skewed (index 1).
		sec, res, err := runQuery(ctx, su, uniform, c, 5, cfg)
		if err != nil {
			return nil, fmt.Errorf("figures: 4f %s uniform: %w", p.Plans[i], err)
		}
		pair[0] = sec
		sec, res, err = runQuery(ctx, su, skewed, c, 5, cfg)
		if err != nil {
			return nil, fmt.Errorf("figures: 4f %s skewed: %w", p.Plans[i], err)
		}
		pair[1] = sec
		if c.SkewMode == core.SkewSampling && res.SampleSeconds > p.SampleOverhead {
			p.SampleOverhead = res.SampleSeconds
		}
		p.Seconds = append(p.Seconds, pair)
	}
	return p, nil
}

// Table renders the panel.
func (p *PanelF) Table() Table {
	t := Table{
		Title:   fmt.Sprintf("Figure 4(f) — skew handling (Q5, N=%d)", p.Records),
		Columns: []string{"plan", "no-skew(s)", "skew(s)"},
	}
	for i, plan := range p.Plans {
		t.Rows = append(t.Rows, []string{plan, f1(p.Seconds[i][0]), f1(p.Seconds[i][1])})
	}
	t.Rows = append(t.Rows, []string{"(sampling overhead)", f1(p.SampleOverhead), f1(p.SampleOverhead)})
	return t
}
