// Command casmrun evaluates one of the paper's queries over a dataset
// that casmgen ingested into a block store, printing the chosen plan,
// per-measure result counts, substrate counters, and the simulated
// response time on the paper's 100-machine cluster:
//
//	casmrun -store DIR -data data.casm -query q6 -reducers 50
//	casmrun -store DIR -data data.casm -query q5 -cf 10 -sort combined
//	casmrun -store DIR -data data.casm -query ds0 -early auto
//	casmrun -store DIR -data data.casm -query q5 -skew sampling
//	casmrun -store DIR -data data.casm -batch q1,q2,q6
//	casmrun -store DIR -data data.casm -query q2 -resultcache
//
// Queries: q1..q6 (Section VI), ds0..ds2 (early-aggregation study).
// -data names a file inside the store at -store; evaluation streams off
// the store's replicated blocks, one block resident per open split, and
// the dataset's cardinality comes from block footers. Adding -resultcache
// materializes per-(block, fingerprint) results into the store, so
// re-running the same query in a later invocation assembles the answer
// without scanning any input. With -stream, result rows flow to the sink
// while the job runs instead of being assembled first.
// With -batch, the named queries are evaluated in one EvaluateBatchContext call:
// compatible queries share a single input scan (and, when their plans
// agree on block geometry, the shuffle too), with per-query answers
// identical to running them one at a time.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	casm "github.com/casm-project/casm"
	"github.com/casm-project/casm/internal/core"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/optimizer"
	"github.com/casm-project/casm/internal/workload"
)

// errUsage marks a command line casmrun cannot act on (exit status 2).
var errUsage = errors.New("usage")

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil:
	case errors.Is(err, context.Canceled):
		// Interrupted runs exit with the conventional 128+SIGINT code; by
		// this point the engine has already torn the job down (no leaked
		// goroutines, no retained spill descriptors).
		fmt.Fprintln(os.Stderr, "casmrun: interrupted")
		os.Exit(130)
	case errors.Is(err, errUsage):
		fmt.Fprintf(os.Stderr, "casmrun: %v\n", err)
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "casmrun: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("casmrun", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var (
		dataPath = fs.String("data", "data.casm", "dataset file inside the store (casmgen -o)")
		queryStr = fs.String("query", "q1", "query: q1..q6 | ds0..ds2")
		cqlPath  = fs.String("cql", "", "CQL file defining the query over the paper schema (overrides -query)")
		reducers = fs.Int("reducers", 8, "number of reducers (m)")
		cf       = fs.Int64("cf", 0, "force clustering factor (0 = optimizer)")
		sortMode = fs.String("sort", "twopass", "in-group sort: twopass | combined")
		early    = fs.String("early", "off", "early aggregation: off | auto (combine whenever the query supports it)")
		skew     = fs.String("skew", "none", "skew handling: none | sampling")
		minBlk   = fs.Int64("minblocks", 0, "minimum blocks per reducer heuristic (0 = off)")
		stage    = fs.String("stage", "full", "pipeline stage: full | maponly | shuffle | sort")
		values   = fs.Int("show", 0, "print the first N result rows per measure")
		savePath = fs.String("save", "", "write result records to a single-node block store at this directory")
		tmpDir   = fs.String("tmp", "", "directory for reducer spill files (default OS temp)")
		sortMem  = fs.Int("sortmem", 0, "reducer in-memory grouping budget in items, 0 = default (set small to force spills)")
		morsel   = fs.Bool("morsel", false, "morsel-driven map execution (work-stealing workers over carved splits)")
		morselB  = fs.Int("morselbytes", 0, "morsel size in bytes (implies -morsel; 0 with -morsel = default size)")
		localAgg = fs.Int("localagg", 0, "each map task's early-aggregation table budget in distinct states (0 = default)")
		stream   = fs.Bool("stream", false, "stream result rows to the sink while the job runs, never materializing the result")
		storeDir = fs.String("store", "", "directory of the persistent block store holding -data (required)")
		resCache = fs.Bool("resultcache", false, "enable the materialized result cache, persisted in the store")
		batchStr = fs.String("batch", "", "comma-separated queries (e.g. q1,q2,q6) evaluated as one shared-scan batch (overrides -query)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(stdout)
			fs.PrintDefaults()
			return nil
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if *storeDir == "" {
		return fmt.Errorf("%w: -store DIR is required (ingest a dataset with casmgen -store DIR -o FILE)", errUsage)
	}

	// Ctrl-C cancels the in-flight evaluation: the engine tears the job
	// down promptly and run returns context.Canceled (exit code 130). A
	// second signal kills the process the hard way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	su := workload.NewSuite()
	var q *casm.Query
	var batchQs []*casm.Query
	var batchNames []string
	var err error
	switch {
	case *batchStr != "":
		if *stream {
			return fmt.Errorf("-batch runs materialized jobs; drop -stream")
		}
		if *savePath != "" {
			return fmt.Errorf("-save works on a single query; drop -batch")
		}
		for _, n := range strings.Split(*batchStr, ",") {
			n = strings.TrimSpace(n)
			bq, berr := pickQuery(su, n)
			if berr != nil {
				return berr
			}
			batchQs = append(batchQs, bq)
			batchNames = append(batchNames, strings.ToLower(n))
		}
	case *cqlPath != "":
		src, rerr := os.ReadFile(*cqlPath)
		if rerr != nil {
			return rerr
		}
		q, err = casm.ParseQuery(su.Schema, string(src))
	default:
		q, err = pickQuery(su, *queryStr)
	}
	if err != nil {
		return err
	}

	// One decision cache per invocation, as in casmserve's resident state:
	// repeat plans of the same (query, dataset, config) are served from it.
	// Forced overrides (-cf) bypass the cache by construction.
	dcache := optimizer.NewDecisionCache(0)
	cfg := casm.Config{
		NumReducers:         *reducers,
		ForceCF:             *cf,
		MinBlocksPerReducer: *minBlk,
		TempDir:             *tmpDir,
		SortMemoryItems:     *sortMem,
		LocalAggBudget:      *localAgg,
		DecisionCache:       dcache,
	}
	if *morselB > 0 {
		cfg.MorselBytes = *morselB
	} else if *morsel {
		cfg.MorselBytes = mr.DefaultMorselBytes
	}
	switch *sortMode {
	case "twopass":
	case "combined":
		cfg.SortMode = casm.CombinedKeySort
	default:
		return fmt.Errorf("unknown sort mode %q", *sortMode)
	}
	switch *early {
	case "off":
	case "auto":
		cfg.EarlyAggregation = casm.EarlyAggAuto
	default:
		return fmt.Errorf("unknown early mode %q", *early)
	}
	switch *skew {
	case "none":
	case "sampling":
		cfg.SkewMode = casm.SkewSampling
	default:
		return fmt.Errorf("unknown skew mode %q", *skew)
	}
	switch *stage {
	case "full":
	case "maponly":
		cfg.Stage = casm.StageMapOnly
	case "shuffle":
		cfg.Stage = casm.StageShuffle
	case "sort":
		cfg.Stage = casm.StageSort
	default:
		return fmt.Errorf("unknown stage %q", *stage)
	}

	// The dataset's cardinality and schema digest come from block footers
	// (no counting scan), and -resultcache materializes results back into
	// the store so a later invocation of the same query skips the input
	// entirely.
	st, err := casm.OpenStore(casm.StoreConfig{Dir: *storeDir, Replication: 3, NumNodes: 10, Seed: 1})
	if err != nil {
		return err
	}
	defer st.Close()
	var rc *casm.ResultCache
	if *resCache {
		if rc, err = casm.NewResultCache(st, 0); err != nil {
			return err
		}
		defer rc.Close()
		cfg.ResultCache = rc
	}

	eng, err := casm.NewEngine(cfg)
	if err != nil {
		return err
	}
	ds, err := casm.StoreDataset(su.Schema, st, *dataPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "dataset: %d records from store %s (file %s)\n", ds.NumRecords, *storeDir, *dataPath)

	if *stream {
		if *savePath != "" {
			return fmt.Errorf("-save needs the materialized result; drop -stream")
		}
		return runStream(ctx, stdout, eng, su, q, ds, *values)
	}
	if len(batchQs) > 0 {
		if err := runBatch(ctx, stdout, eng, su, batchQs, batchNames, ds, *values); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "plan cache: %d hits, %d misses\n", dcache.Hits(), dcache.Misses())
		return nil
	}
	res, err := eng.EvaluateContext(ctx, q, ds)
	if err != nil {
		return err
	}

	fmt.Fprintln(stdout, q.Explain())
	printPlan(stdout, su, res.ResultHeader)

	names := make([]string, 0, len(res.Measures))
	for n := range res.Measures {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ms := res.Measures[n]
		fmt.Fprintf(stdout, "measure %-10s %8d records\n", n, len(ms))
		for i := 0; i < *values && i < len(ms); i++ {
			fmt.Fprintf(stdout, "  %s = %g\n", su.Schema.FormatRegion(ms[i].Region), ms[i].Value)
		}
	}
	fmt.Fprintf(stdout, "shuffled: %.1f MB in %d map tasks / %d reduce tasks (wall %.2fs real)\n",
		float64(res.Stats.Shuffled)/(1<<20), len(res.Stats.MapTasks), len(res.Stats.ReduceTasks),
		res.Stats.Wall.Seconds())
	fmt.Fprintf(stdout, "simulated response time on the paper's cluster: %s\n", res.Estimate)
	if res.SampleSeconds > 0 {
		fmt.Fprintf(stdout, "  (includes %.1fs simulated sampling overhead)\n", res.SampleSeconds)
	}
	if res.ResultReused {
		fmt.Fprintln(stdout, "result assembled from the materialized cache (no input scanned)")
	}
	if rc != nil {
		cs := rc.Stats()
		fmt.Fprintf(stdout, "result cache: %d hits, %d misses, %d bytes materialized, %d evictions\n",
			cs.Hits, cs.Misses, cs.BytesMaterialized, cs.Evictions)
	}
	if *savePath != "" {
		outStore, err := casm.OpenStore(casm.StoreConfig{Dir: *savePath, Replication: 1, NumNodes: 1, Seed: 1})
		if err != nil {
			return err
		}
		defer outStore.Close()
		if err := casm.SaveResults(outStore, "results", res, outStore.Config().BlockSize); err != nil {
			return err
		}
		size, err := outStore.Size("results")
		if err != nil {
			return err
		}
		if err := outStore.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "saved %d measure records to store %s (%d bytes)\n", res.TotalRecords(), *savePath, size)
	}
	return nil
}

// runBatch evaluates the named queries as one EvaluateBatchContext call and
// prints, per job, which queries shared its scan and shuffle, then the
// usual per-query result summary.
func runBatch(ctx context.Context, stdout io.Writer, eng *casm.Engine, su *workload.Suite, qs []*casm.Query, names []string, ds *casm.Dataset, show int) error {
	batch, err := eng.EvaluateBatchContext(ctx, qs, ds)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "batch: %d queries, %d job(s), %d served from shared scans\n",
		len(qs), len(batch.Jobs), batch.SharedScanQueries())
	for ji, job := range batch.Jobs {
		members := make([]string, len(job.Queries))
		for i, qi := range job.Queries {
			members[i] = names[qi]
		}
		if !job.Shared {
			fmt.Fprintf(stdout, "job %d: %s (unshared)\n", ji, strings.Join(members, ","))
			continue
		}
		groups := make([]string, len(job.Groups))
		for gi, g := range job.Groups {
			gnames := make([]string, len(g))
			for i, qi := range g {
				gnames[i] = names[qi]
			}
			groups[gi] = "{" + strings.Join(gnames, ",") + "}"
		}
		fmt.Fprintf(stdout, "job %d: %s shared one scan; geometry groups (shared shuffle): %s\n",
			ji, strings.Join(members, ","), strings.Join(groups, " "))
		var saved int64
		for _, t := range job.Stats.MapTasks {
			saved += t.SharedScanBytesSaved
		}
		fmt.Fprintf(stdout, "job %d: %.1f MB input scanned once, %.1f MB of re-reads avoided\n",
			ji, float64(jobBytesRead(job.Stats))/(1<<20), float64(saved)/(1<<20))
	}

	for qi, res := range batch.Results {
		fmt.Fprintf(stdout, "\nquery %s:\n", names[qi])
		printPlan(stdout, su, res.ResultHeader)
		mnames := make([]string, 0, len(res.Measures))
		for n := range res.Measures {
			mnames = append(mnames, n)
		}
		sort.Strings(mnames)
		for _, n := range mnames {
			ms := res.Measures[n]
			fmt.Fprintf(stdout, "measure %-10s %8d records\n", n, len(ms))
			for i := 0; i < show && i < len(ms); i++ {
				fmt.Fprintf(stdout, "  %s = %g\n", su.Schema.FormatRegion(ms[i].Region), ms[i].Value)
			}
		}
	}
	var sim float64
	for _, job := range batch.Jobs {
		sim += job.Estimate.Total()
	}
	fmt.Fprintf(stdout, "\nsimulated response time on the paper's cluster (all %d job(s)): %.2fs\n",
		len(batch.Jobs), sim)
	return nil
}

// printPlan prints an evaluation's header line — the same for a
// materialized result, a batch member and a stream.
func printPlan(stdout io.Writer, su *workload.Suite, h core.ResultHeader) {
	fmt.Fprintf(stdout, "plan: key=%s cf=%d blocks=%d (sampled=%v cached=%v early-agg=%v)\n",
		h.Plan.Key.Format(su.Schema), h.Plan.ClusteringFactor, h.Plan.Blocks,
		h.SampledPlan, h.PlanCached, h.EarlyAggregated)
}

func jobBytesRead(js mr.JobStats) int64 {
	var n int64
	for _, t := range js.MapTasks {
		n += t.BytesRead
	}
	return n
}

// runStream is the bounded-memory sink: rows flow from the reducers to
// stdout counters while the job still runs, so peak heap is set by the
// in-flight blocks and spill buffers, not by dataset or result size.
func runStream(ctx context.Context, stdout io.Writer, eng *casm.Engine, su *workload.Suite, q *casm.Query, ds *casm.Dataset, show int) error {
	rs, err := eng.EvaluateStream(ctx, q, ds)
	if err != nil {
		return err
	}
	defer rs.Close()

	fmt.Fprintln(stdout, q.Explain())
	printPlan(stdout, su, rs.ResultHeader)

	counts := map[string]int64{}
	shown := map[string]int{}
	for {
		row, ok, err := rs.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		counts[row.Measure]++
		if shown[row.Measure] < show {
			shown[row.Measure]++
			fmt.Fprintf(stdout, "  %s: %s = %g\n", row.Measure, su.Schema.FormatRegion(row.Region), row.Value)
		}
	}
	if err := rs.Close(); err != nil {
		return err
	}

	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "measure %-10s %8d records\n", n, counts[n])
	}
	st := rs.Stats()
	fmt.Fprintf(stdout, "shuffled: %.1f MB in %d map tasks / %d reduce tasks (wall %.2fs real)\n",
		float64(st.Shuffled)/(1<<20), len(st.MapTasks), len(st.ReduceTasks), st.Wall.Seconds())
	fmt.Fprintf(stdout, "streamed %d rows; simulated response time on the paper's cluster: %s\n",
		rs.Rows(), rs.Estimate())
	if rs.SampleSeconds > 0 {
		fmt.Fprintf(stdout, "  (includes %.1fs simulated sampling overhead)\n", rs.SampleSeconds)
	}
	return nil
}

func pickQuery(su *workload.Suite, name string) (*casm.Query, error) {
	n := strings.ToLower(name)
	switch {
	case strings.HasPrefix(n, "q") && len(n) == 2:
		return su.Query(int(n[1] - '0'))
	case strings.HasPrefix(n, "ds") && len(n) == 3:
		return su.DS(int(n[2] - '0'))
	default:
		return nil, fmt.Errorf("unknown query %q (want q1..q6 or ds0..ds2)", name)
	}
}
