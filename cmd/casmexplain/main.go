// Command casmexplain prints an evaluation query's aggregation workflow,
// its canonical fingerprint (the plan/decision-cache key), its minimal
// feasible distribution key (via OpConvert/OpCombine), and the
// optimizer's candidate plans with their modeled heaviest-reducer
// workloads:
//
//	casmexplain -query q6 -records 1000000000 -reducers 100
//	casmexplain -batch q1,q2,q6
//
// With -batch, it instead explains how EvaluateBatchContext would share work
// across the named queries: which queries share one input scan, how they
// partition into block-geometry groups (equal distribution key and
// clustering factor — those also share the shuffle and the reducer-side
// group builds), and each group's plan and modeled cost.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	casm "github.com/casm-project/casm"
	"github.com/casm-project/casm/internal/optimizer"
	"github.com/casm-project/casm/internal/workload"
)

func main() {
	var (
		queryStr = flag.String("query", "q1", "query: q1..q6 | ds0..ds2")
		batchStr = flag.String("batch", "", "comma-separated queries explained as one shared-scan batch (overrides -query)")
		records  = flag.Int64("records", 1_000_000_000, "dataset cardinality (the optimizer's N)")
		reducers = flag.Int("reducers", 100, "number of reducers (m)")
	)
	flag.Parse()

	su := workload.NewSuite()
	if *batchStr != "" {
		if err := explainBatch(su, *batchStr, *records, *reducers); err != nil {
			fmt.Fprintf(os.Stderr, "casmexplain: %v\n", err)
			os.Exit(1)
		}
		return
	}
	q, err := pick(su, *queryStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "casmexplain: %v\n", err)
		os.Exit(1)
	}
	fp, err := casm.Fingerprint(q)
	if err != nil {
		fmt.Fprintf(os.Stderr, "casmexplain: %v\n", err)
		os.Exit(1)
	}
	out, err := casm.Explain(q, *records, *reducers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "casmexplain: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("fingerprint: %s\n", fp)
	fmt.Print(out)
}

func pick(su *workload.Suite, name string) (*casm.Query, error) {
	n := strings.ToLower(name)
	switch {
	case strings.HasPrefix(n, "q") && len(n) == 2:
		return su.Query(int(n[1] - '0'))
	case strings.HasPrefix(n, "ds") && len(n) == 3:
		return su.DS(int(n[2] - '0'))
	default:
		return nil, fmt.Errorf("unknown query %q", name)
	}
}

// explainBatch plans every named query and reports the sharing structure
// EvaluateBatchContext would use: one shared scan over all of them, one shuffle
// per block-geometry group.
func explainBatch(su *workload.Suite, batch string, records int64, reducers int) error {
	names := strings.Split(batch, ",")
	type planned struct {
		name string
		fp   string
		plan casm.Plan
	}
	ps := make([]planned, 0, len(names))
	for _, n := range names {
		n = strings.TrimSpace(n)
		q, err := pick(su, n)
		if err != nil {
			return err
		}
		fp, err := casm.Fingerprint(q)
		if err != nil {
			return err
		}
		plan, err := optimizer.Optimize(q, optimizer.Config{
			NumReducers:  reducers,
			TotalRecords: records,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		ps = append(ps, planned{name: strings.ToLower(n), fp: fp, plan: plan})
	}

	fmt.Printf("batch of %d queries over N=%d records, m=%d reducers\n", len(ps), records, reducers)
	for _, p := range ps {
		fmt.Printf("  %-4s fingerprint=%s key=%s cf=%d blocks=%d\n",
			p.name, p.fp[:12], p.plan.Key.Format(su.Schema), p.plan.ClusteringFactor, p.plan.Blocks)
	}

	// Group by block geometry, preserving input order, exactly as
	// a multi-query job does.
	type group struct {
		plan    casm.Plan
		members []string
	}
	var groups []*group
	for _, p := range ps {
		found := false
		for _, g := range groups {
			if g.plan.ClusteringFactor == p.plan.ClusteringFactor && g.plan.Key.Equal(p.plan.Key) {
				g.members = append(g.members, p.name)
				found = true
				break
			}
		}
		if !found {
			groups = append(groups, &group{plan: p.plan, members: []string{p.name}})
		}
	}

	fmt.Printf("\nshared scan: all %d queries read the input once (%d re-reads avoided)\n",
		len(ps), len(ps)-1)
	fmt.Printf("geometry groups (one shuffle each): %d\n", len(groups))
	for gi, g := range groups {
		fmt.Printf("  group %d: {%s}\n", gi, strings.Join(g.members, ","))
		fmt.Printf("    key=%s cf=%d blocks=%d modeled heaviest reducer=%.0f records\n",
			g.plan.Key.Format(su.Schema), g.plan.ClusteringFactor, g.plan.Blocks,
			g.plan.PredictedWorkload)
	}
	if len(groups) == 1 {
		fmt.Println("\nfully shared: one scan, one shuffle, per-query evaluation only")
	} else {
		fmt.Println("\nscan shared across all groups; each group shuffles separately")
	}
	return nil
}
