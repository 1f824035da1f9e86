// Package optimizer chooses the execution plan — a single-annotated
// distribution key plus a clustering factor — that minimizes the expected
// query response time, following the paper's Section IV: the response time
// is proportional to the heaviest reducer workload, estimated with the
// order-statistic Formulas (2) and (4). Section V's run-time skew handling
// (sampled simulated dispatch, minimum-blocks heuristics, and a plan
// cache) lives in this package too.
package optimizer

import (
	"fmt"
	"sort"

	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/distkey"
	"github.com/casm-project/casm/internal/stats"
	"github.com/casm-project/casm/internal/workflow"
)

// Plan is a chosen execution plan.
type Plan struct {
	// Key is the distribution key (at most one annotated attribute).
	Key distkey.Key
	// ClusteringFactor merges that many neighbouring key regions per
	// block along the annotated attribute (1 when not overlapping).
	ClusteringFactor int64
	// PredictedWorkload is the model's expected heaviest reducer
	// workload, in records.
	PredictedWorkload float64
	// Blocks is the number of distribution blocks the plan produces.
	Blocks int64
	// Candidates lists every alternative the optimizer scored, best
	// first, for EXPLAIN output and for the sampling-based chooser.
	Candidates []Candidate
}

// Candidate is one scored alternative.
type Candidate struct {
	Key              distkey.Key
	ClusteringFactor int64
	Workload         float64
	Blocks           int64
}

// Config parameterizes the optimizer.
type Config struct {
	// NumReducers is the paper's m.
	NumReducers int
	// TotalRecords is the paper's N (dataset cardinality, known or
	// estimated from file sizes).
	TotalRecords int64
	// MinBlocksPerReducer, when > 0, rejects clustering factors that
	// leave fewer than this many blocks per reducer — the paper's
	// "2Blocks"/"4Blocks" skew heuristic.
	MinBlocksPerReducer int64
}

func (c Config) validate() error {
	if c.NumReducers < 1 {
		return fmt.Errorf("optimizer: NumReducers %d < 1", c.NumReducers)
	}
	if c.TotalRecords < 1 {
		return fmt.Errorf("optimizer: TotalRecords %d < 1", c.TotalRecords)
	}
	return nil
}

// Optimize derives the minimal feasible key for the workflow and picks the
// (key, cf) pair minimizing the modeled heaviest workload.
//
// Candidate generation follows Sections III-B.2 and IV-B: the minimal key
// may annotate several attributes; execution wants a single annotation, so
// for each annotated attribute X the optimizer forms the candidate that
// keeps X annotated (at its minimal level and at every coarser non-ALL
// level, with conservatively converted annotations) and rolls every
// *other annotated* attribute up to ALL (unannotated attributes stay at
// their minimal — finest feasible — level, which Formula (2) always
// prefers). The fully non-overlapping fallback that rolls every annotated
// attribute to ALL is also scored.
func Optimize(w *workflow.Workflow, cfg Config) (Plan, error) {
	if err := cfg.validate(); err != nil {
		return Plan{}, err
	}
	minimal, _, err := distkey.Derive(w)
	if err != nil {
		return Plan{}, err
	}
	s := w.Schema()
	keys := CandidateKeys(s, minimal)
	var cands []Candidate
	for _, k := range keys {
		c := scoreKey(s, k, cfg)
		cands = append(cands, c)
		// Diversify the clustering factor (Section V): the sampling-based
		// chooser needs candidates with "significantly different values of
		// the clustering factor" because skewed data can shift the optimum
		// away from the uniform model's choice. A geometric ladder (with
		// two intermediate steps per octave) brackets any skew optimum
		// within ~⅓ of its value.
		if len(c.Key.AnnotatedAttrs()) == 1 {
			x := c.Key.AnnotatedAttrs()[0]
			card := s.Attr(x).CardAt(c.Key.Grain[x])
			nG := clampInt64(s.NumRegions(c.Key.Grain))
			seen := map[int64]bool{c.ClusteringFactor: true}
			for base := int64(1); base <= card; base *= 2 {
				for _, cf := range []int64{base, base + base/2} {
					if cf < 1 || cf > card || seen[cf] {
						continue
					}
					seen[cf] = true
					blocks := nG / cf
					if blocks < 1 {
						blocks = 1
					}
					if cfg.MinBlocksPerReducer > 0 && blocks < cfg.MinBlocksPerReducer*int64(cfg.NumReducers) {
						continue // honor the 2Blocks/4Blocks heuristic
					}
					cands = append(cands, Candidate{
						Key:              c.Key,
						ClusteringFactor: cf,
						Workload:         PredictWorkload(s, c.Key, cf, cfg),
						Blocks:           blocks,
					})
				}
			}
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].Workload < cands[j].Workload })
	best := cands[0]
	return Plan{
		Key:               best.Key,
		ClusteringFactor:  best.ClusteringFactor,
		PredictedWorkload: best.Workload,
		Blocks:            best.Blocks,
		Candidates:        cands,
	}, nil
}

// CandidateKeys enumerates the feasible single-annotated keys derived
// from the minimal key (see Optimize). The minimal key itself is included
// when it already has at most one annotation.
func CandidateKeys(s *cube.Schema, minimal distkey.Key) []distkey.Key {
	annotated := minimal.AnnotatedAttrs()
	if len(annotated) == 0 {
		return []distkey.Key{minimal}
	}
	var out []distkey.Key
	for _, x := range annotated {
		// Roll the other annotated attributes up to ALL.
		k := minimal.Clone()
		for _, y := range annotated {
			if y != x {
				k = distkey.RollUpAttr(s, k, y)
			}
		}
		// Keep X at its minimal level and also offer every coarser
		// non-ALL level (diversified candidates, Section V).
		for level := k.Grain[x]; level < s.Attr(x).AllIndex(); level++ {
			out = append(out, distkey.CoarsenAttr(s, k, x, level))
		}
	}
	// Fully non-overlapping fallback: every annotated attribute at ALL.
	k := minimal.Clone()
	for _, y := range annotated {
		k = distkey.RollUpAttr(s, k, y)
	}
	out = append(out, k)
	return out
}

// ScoreKey scores one explicit candidate key, choosing its optimal
// clustering factor; tests use it to pin a plan the optimizer did not
// choose.
func ScoreKey(s *cube.Schema, k distkey.Key, cfg Config) (Candidate, error) {
	if err := cfg.validate(); err != nil {
		return Candidate{}, err
	}
	return scoreKey(s, k, cfg), nil
}

// scoreKey finds the best clustering factor for one candidate key and
// returns its modeled workload.
func scoreKey(s *cube.Schema, k distkey.Key, cfg Config) Candidate {
	nG := clampInt64(s.NumRegions(k.Grain))
	ann := k.AnnotatedAttrs()
	if len(ann) == 0 {
		return Candidate{
			Key:              k,
			ClusteringFactor: 1,
			Workload:         stats.HeaviestWorkload(int(cfg.TotalRecords), int(nG), cfg.NumReducers),
			Blocks:           nG,
		}
	}
	x := ann[0]
	d := k.Anns[x].Width()
	// The cf search stops at the annotated attribute's cardinality at the
	// key's level.
	maxCF := s.Attr(x).CardAt(k.Grain[x])
	if cfg.MinBlocksPerReducer > 0 {
		// Keep at least MinBlocksPerReducer · m blocks: cf ≤ nG / (that).
		cap := nG / (cfg.MinBlocksPerReducer * int64(cfg.NumReducers))
		if cap < 1 {
			cap = 1
		}
		if maxCF > cap {
			maxCF = cap
		}
	}
	cf, w := stats.OptimalClusteringFactor(int(cfg.TotalRecords), int(nG), cfg.NumReducers, int(d), int(maxCF))
	blocks := nG / int64(cf)
	if blocks < 1 {
		blocks = 1
	}
	return Candidate{Key: k, ClusteringFactor: int64(cf), Workload: w, Blocks: blocks}
}

// PredictWorkload evaluates the cost model for an explicit (key, cf)
// pair; the clustering-factor benchmark uses it to overlay the analytic
// prediction on the measured curve (Figure 4(c)).
func PredictWorkload(s *cube.Schema, k distkey.Key, cf int64, cfg Config) float64 {
	nG := clampInt64(s.NumRegions(k.Grain))
	ann := k.AnnotatedAttrs()
	if len(ann) == 0 {
		return stats.HeaviestWorkload(int(cfg.TotalRecords), int(nG), cfg.NumReducers)
	}
	d := k.Anns[ann[0]].Width()
	return stats.OverlapHeaviestWorkload(int(cfg.TotalRecords), int(nG), cfg.NumReducers, int(d), int(cf))
}

func clampInt64(v int64) int64 {
	const max = int64(1) << 40 // plenty; avoids int overflow on conversion
	if v > max {
		return max
	}
	return v
}

// Explain renders the plan for humans.
func (p Plan) Explain(s *cube.Schema) string {
	out := fmt.Sprintf("plan: key=%s cf=%d blocks=%d predicted-heaviest=%.0f records\n",
		p.Key.Format(s), p.ClusteringFactor, p.Blocks, p.PredictedWorkload)
	for i, c := range p.Candidates {
		out += fmt.Sprintf("  cand[%d]: key=%s cf=%d blocks=%d workload=%.0f\n",
			i, c.Key.Format(s), c.ClusteringFactor, c.Blocks, c.Workload)
	}
	return out
}
