package figures

import (
	"context"
	"fmt"
	"time"

	"github.com/casm-project/casm/internal/core"
	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/measure"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/optimizer"
	"github.com/casm-project/casm/internal/workflow"
	"github.com/casm-project/casm/internal/workload"
)

// SharedScan is the multi-query batching comparison: a marginals-style
// workload — six overlapping single-aggregate workflows over the same
// fine (a1:value, t1:minute) region set, the "many aggregates, one scan"
// scenario of Computing Marginals Using MapReduce — evaluated as six
// separate jobs (exactly what six Evaluate calls do) versus one
// EvaluateBatchContext call. The six plans agree on block geometry, so the
// batch shares the scan, the shuffle, and the reducer-side group builds;
// only the per-query aggregation itself fans out. Like MorselSkew this
// is not one of the paper's Figure 4 panels — it evaluates this
// reproduction's shared-scan extension — so casmbench emits it as a
// separate snapshot section that casmbenchdiff does not compare across
// commits.
//
// Both arms run for real over the same records with the same engine
// knobs; the per-query answers are byte-identical (the batch equivalence
// tests pin this down), so the comparison is purely about cost. Each
// arm's wall seconds are the best of two runs (back-to-back small runs
// on a shared host jitter; the counters are deterministic and come from
// the last run). The panel also times the keyed plan/decision cache on
// the repeated-submission pattern batching serves: planning every query
// cold under sampling-based skew planning (each plan pays a real sample
// pass) versus warm (cache primed), averaged over many rounds.
type SharedScan struct {
	Records int `json:"records"`
	// Queries names the workload's aggregates, all at the shared fine
	// grain.
	Queries []string `json:"queries"`
	// SharedQueries is how many of the queries the batch served from a
	// shared scan, Jobs how many jobs it ran, Groups how many distinct
	// block geometries those queries planned to (1 = the shuffle was
	// fully shared too).
	SharedQueries int `json:"shared_queries"`
	Jobs          int `json:"jobs"`
	Groups        int `json:"geometry_groups"`
	// SeqWall / BatchWall are real wall seconds summed over each arm's
	// jobs (best of two runs); SeqSeconds / BatchSeconds the simulated
	// seconds at paper magnitude.
	SeqWall      float64 `json:"sequential_wall_seconds"`
	BatchWall    float64 `json:"batched_wall_seconds"`
	SeqSeconds   float64 `json:"sequential_seconds"`
	BatchSeconds float64 `json:"batched_seconds"`
	// SeqBytes / BatchBytes are the input bytes each arm physically read;
	// BytesSaved is the batch's own SharedScanBytesSaved counter total,
	// which must account exactly for the difference.
	SeqBytes   int64 `json:"sequential_bytes_read"`
	BatchBytes int64 `json:"batched_bytes_read"`
	BytesSaved int64 `json:"shared_scan_bytes_saved"`
	// PlanCold / PlanWarm are average seconds to plan one query without
	// and with the decision cache; PlanCacheHits is the cache's hit count
	// after the warm rounds.
	PlanCold      float64 `json:"plan_cold_seconds"`
	PlanWarm      float64 `json:"plan_warm_seconds"`
	PlanCacheHits int64   `json:"plan_cache_hits"`
}

// planRounds is how many times the plan-cache timing re-plans the whole
// workload per arm; the average over many rounds is what makes the
// cold/warm ratio stable.
const planRounds = 10

// sharedScanWorkload builds the overlapping workflows: one basic
// aggregate each, all over the same (a1:value, t1:minute) region set, so
// every plan derives the same distribution key.
func sharedScanWorkload(su *workload.Suite) ([]*workflow.Workflow, []string, error) {
	g := su.Schema.MustGrain(
		cube.GrainSpec{Attr: "a1", Level: "value"},
		cube.GrainSpec{Attr: "t1", Level: "minute"},
	)
	specs := []struct {
		f    measure.Func
		attr string
	}{
		{measure.Sum, "a2"},
		{measure.Count, ""},
		{measure.Avg, "a4"},
		{measure.Max, "a3"},
		{measure.Min, "a2"},
		{measure.Sum, "a3"},
	}
	ws := make([]*workflow.Workflow, len(specs))
	names := make([]string, len(specs))
	for i, sp := range specs {
		w := workflow.New(su.Schema)
		if err := w.AddBasic("m", g, measure.Spec{Func: sp.f}, sp.attr); err != nil {
			return nil, nil, err
		}
		ws[i] = w
		names[i] = fmt.Sprintf("%s(%s)", sp.f, sp.attr)
	}
	return ws, names, nil
}

// SharedScanPanel runs the comparison.
func SharedScanPanel(ctx context.Context, cfg Config) (*SharedScan, error) {
	cfg = cfg.withDefaults()
	su := workload.NewSuite()
	p := &SharedScan{Records: cfg.n(200_000)}
	records := su.Generate(p.Records, workload.Uniform, cfg.Seed)
	ds := core.MemoryDataset(su.Schema, records, 4*cfg.Reducers)
	ds.Tag = "sharedscan"
	ws, names, err := sharedScanWorkload(su)
	if err != nil {
		return nil, err
	}
	p.Queries = names
	ecfg := core.Config{NumReducers: cfg.Reducers, TempDir: cfg.TempDir}

	for run := 0; run < 2; run++ {
		// Sequential arm: one engine run per query, the plan a client
		// without batching executes.
		var wall float64
		seqBytes := int64(0)
		var seqSim float64
		for j, w := range ws {
			eng, err := core.NewEngine(ecfg)
			if err != nil {
				return nil, err
			}
			res, err := eng.EvaluateContext(ctx, w, ds)
			if err != nil {
				return nil, fmt.Errorf("figures: sharedscan %s: %w", names[j], err)
			}
			wall += res.Stats.Wall.Seconds()
			seqSim += SimSeconds(res, cfg.Represent)
			seqBytes += jobBytesRead(res.Stats)
		}
		if run == 0 || wall < p.SeqWall {
			p.SeqWall = wall
		}
		p.SeqSeconds, p.SeqBytes = seqSim, seqBytes

		// Batched arm: one EvaluateBatchContext over the same queries and records.
		eng, err := core.NewEngine(ecfg)
		if err != nil {
			return nil, err
		}
		batch, err := eng.EvaluateBatchContext(ctx, ws, ds)
		if err != nil {
			return nil, fmt.Errorf("figures: sharedscan batch: %w", err)
		}
		p.SharedQueries = batch.SharedScanQueries()
		p.Jobs = len(batch.Jobs)
		wall = 0
		p.Groups, p.BatchSeconds, p.BatchBytes, p.BytesSaved = 0, 0, 0, 0
		for _, j := range batch.Jobs {
			wall += j.Stats.Wall.Seconds()
			p.Groups += len(j.Groups)
			p.BatchSeconds += SimSeconds(batch.Results[j.Queries[0]], cfg.Represent)
			p.BatchBytes += jobBytesRead(j.Stats)
			for _, t := range j.Stats.MapTasks {
				p.BytesSaved += t.SharedScanBytesSaved
			}
		}
		if run == 0 || wall < p.BatchWall {
			p.BatchWall = wall
		}
	}

	// Plan-cache timing under sampling-based skew planning: every cold
	// plan pays a real sample pass — the cost the keyed decision cache
	// exists to amortize. The cold arm re-plans from scratch each round;
	// the warm arm pays one priming round and then fingerprint + lookup +
	// clone.
	pcfg := ecfg
	pcfg.SkewMode = core.SkewSampling
	pcfg.SampleSize = 4000
	cold, err := core.NewEngine(pcfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for r := 0; r < planRounds; r++ {
		for j, w := range ws {
			if _, err := cold.PlanContext(ctx, w, ds); err != nil {
				return nil, fmt.Errorf("figures: sharedscan cold plan %s: %w", names[j], err)
			}
		}
	}
	p.PlanCold = time.Since(start).Seconds() / float64(planRounds*len(ws))

	dcache := optimizer.NewDecisionCache(0)
	wcfg := pcfg
	wcfg.DecisionCache = dcache
	warm, err := core.NewEngine(wcfg)
	if err != nil {
		return nil, err
	}
	for _, w := range ws { // prime
		if _, err := warm.PlanContext(ctx, w, ds); err != nil {
			return nil, err
		}
	}
	start = time.Now()
	for r := 0; r < planRounds; r++ {
		for j, w := range ws {
			if _, err := warm.PlanContext(ctx, w, ds); err != nil {
				return nil, fmt.Errorf("figures: sharedscan warm plan %s: %w", names[j], err)
			}
		}
	}
	p.PlanWarm = time.Since(start).Seconds() / float64(planRounds*len(ws))
	p.PlanCacheHits = dcache.Hits()
	return p, nil
}

func jobBytesRead(js mr.JobStats) int64 {
	var n int64
	for _, t := range js.MapTasks {
		n += t.BytesRead
	}
	return n
}

// WallImprovement returns 1 - batched/sequential real wall seconds.
func (p *SharedScan) WallImprovement() float64 {
	if p.SeqWall == 0 {
		return 0
	}
	return 1 - p.BatchWall/p.SeqWall
}

// SimImprovement returns 1 - batched/sequential simulated seconds. The
// sharing counters are priced at zero, so this improvement comes
// entirely from the batch's smaller real counters — one scan and one
// shuffle instead of six — never from discounted prices; the Figure 4
// panels are untouched by construction.
func (p *SharedScan) SimImprovement() float64 {
	if p.SeqSeconds == 0 {
		return 0
	}
	return 1 - p.BatchSeconds/p.SeqSeconds
}

// PlanSpeedup returns cold/warm average planning seconds.
func (p *SharedScan) PlanSpeedup() float64 {
	if p.PlanWarm == 0 {
		return 0
	}
	return p.PlanCold / p.PlanWarm
}

// Table renders the comparison.
func (p *SharedScan) Table() Table {
	t := Table{
		Title: fmt.Sprintf("Shared-scan batching: %d overlapping queries over %d records (%d shared, %d geometry group(s), %d job(s))",
			len(p.Queries), p.Records, p.SharedQueries, p.Groups, p.Jobs),
		Columns: []string{"arm", "jobs", "input MB", "wall (s)", "simulated (s)"},
	}
	t.Rows = append(t.Rows,
		[]string{"sequential", fmt.Sprintf("%d", len(p.Queries)), f1(float64(p.SeqBytes) / mib), f2(p.SeqWall), f1(p.SeqSeconds)},
		[]string{"batched", fmt.Sprintf("%d", p.Jobs), f1(float64(p.BatchBytes) / mib), f2(p.BatchWall), f1(p.BatchSeconds)},
		[]string{"saving", "", fmt.Sprintf("%.1f (counted %.1f)", float64(p.SeqBytes-p.BatchBytes)/mib, float64(p.BytesSaved)/mib),
			fmt.Sprintf("%.0f%%", 100*p.WallImprovement()), fmt.Sprintf("%.0f%%", 100*p.SimImprovement())},
		[]string{"plan cold", "", "", fmt.Sprintf("%.3gms/query", 1e3*p.PlanCold), ""},
		[]string{"plan warm", "", "", fmt.Sprintf("%.3gms/query (%.0fx, %d hits)", 1e3*p.PlanWarm, p.PlanSpeedup(), p.PlanCacheHits), ""},
	)
	return t
}
