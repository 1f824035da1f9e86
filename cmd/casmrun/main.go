// Command casmrun evaluates the paper's queries over a dataset that
// casmgen ingested into a block store, printing per job which queries
// shared it, each query's plan and per-measure result counts, substrate
// counters, and the simulated response time on the paper's 100-machine
// cluster:
//
//	casmrun -store DIR -data data.casm -query q6 -reducers 50
//	casmrun -store DIR -data data.casm -query q5 -cf 10 -sort combined
//	casmrun -store DIR -data data.casm -query ds0 -early auto
//	casmrun -store DIR -data data.casm -query q5 -skew sampling
//	casmrun -store DIR -data data.casm -query q1,q2,q6
//	casmrun -store DIR -data data.casm -query q1,q2,q6 -explain
//	casmrun -store DIR -data data.casm -query q2 -resultcache
//
// Queries: q1..q6 (Section VI), ds0..ds2 (early-aggregation study).
// -data names a file inside the store at -store; evaluation streams off
// the store's replicated blocks, one block resident per open split, and
// the dataset's cardinality comes from block footers. The -query list is
// evaluated in one EvaluateBatchContext call — a single query is a batch
// of one: compatible queries share a single input scan (and, when their
// plans agree on block geometry, the shuffle too), with per-query answers
// identical to running them one at a time. -explain plans the list as the
// run would and prints the plans and the jobs without running any. Adding
// -resultcache materializes per-(block, fingerprint) results into the
// store, so re-running the same query in a later invocation assembles the
// answer without scanning any input. With -stream, result rows of one
// query flow to the sink while the job runs instead of being assembled
// first.
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
	"strconv"
	"strings"
	"syscall"

	casm "github.com/casm-project/casm"
	"github.com/casm-project/casm/internal/core"
	"github.com/casm-project/casm/internal/costmodel"
	"github.com/casm-project/casm/internal/cube"
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
		queryStr = fs.String("query", "q1", "comma-separated queries, evaluated as one batch: q1..q6 | ds0..ds2")
		cqlPath  = fs.String("cql", "", "CQL file defining the query over the paper schema (overrides -query)")
		reducers = fs.Int("reducers", 8, "number of reducers (m)")
		cf       = fs.Int64("cf", 0, "force clustering factor (0 = optimizer)")
		sortMode = fs.String("sort", "twopass", "in-group sort: twopass | combined")
		early    = fs.String("early", "off", "early aggregation: off | auto (combine whenever the query supports it)")
		skew     = fs.String("skew", "none", "skew handling: none | sampling")
		minBlk   = fs.Int64("minblocks", 0, "minimum blocks per reducer heuristic (0 = off)")
		values   = fs.Int("show", 0, "print the first N result rows per measure")
		savePath = fs.String("save", "", "write result records to a single-node block store at this directory")
		tmpDir   = fs.String("tmp", "", "directory for reducer spill files (default OS temp)")
		sortMem  = fs.Int("sortmem", 0, "reducer in-memory grouping budget in items, 0 = default (set small to force spills)")
		morselB  = fs.Int("morselbytes", 0, fmt.Sprintf("morsel-driven map execution: work-stealing workers over ~N-byte runs of the splits (0 = one task per split; %d is a good size)", mr.DefaultMorselBytes))
		localAgg = fs.Int("localagg", 0, "each map task's early-aggregation table budget in distinct states (0 = default)")
		stream   = fs.Bool("stream", false, "stream result rows to the sink while the job runs, never materializing the result")
		storeDir = fs.String("store", "", "directory of the persistent block store holding -data (required)")
		resCache = fs.Bool("resultcache", false, "enable the materialized result cache, persisted in the store")
		explain  = fs.Bool("explain", false, "print each query's plan, keys and candidates and how the queries share jobs, then stop without running")
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

	names := strings.Split(*queryStr, ",")
	switch {
	case len(names) > 1 && (*stream || *savePath != "" || *cqlPath != ""):
		return fmt.Errorf("%w: -stream, -save and -cql take one query, not -query %s", errUsage, *queryStr)
	case *explain && (*stream || *savePath != ""):
		return fmt.Errorf("%w: -explain runs nothing; drop -stream and -save", errUsage)
	case *stream && *savePath != "":
		return fmt.Errorf("-save needs the materialized result; drop -stream")
	}
	su := workload.NewSuite()
	qs := make([]*casm.Query, len(names))
	if *cqlPath != "" {
		src, err := os.ReadFile(*cqlPath)
		if err != nil {
			return err
		}
		if qs[0], err = casm.ParseQuery(su.Schema, string(src)); err != nil {
			return err
		}
		names[0] = *cqlPath
	} else {
		for i, n := range names {
			names[i] = strings.ToLower(strings.TrimSpace(n))
			var err error
			if qs[i], err = pickQuery(su, names[i]); err != nil {
				return err
			}
		}
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
		MorselBytes:         *morselB,
		DecisionCache:       dcache,
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

	switch {
	case *stream:
		return runStream(ctx, stdout, eng, su, qs[0], ds, *values)
	case *explain:
		return explainBatch(ctx, stdout, eng, su, qs, names, ds)
	}
	batch, err := eng.EvaluateBatchContext(ctx, qs, ds)
	if err != nil {
		return err
	}
	for ji, job := range batch.Jobs {
		printJob(stdout, su, ji, job, names, batch.Results, *values)
		if job.Shared {
			var read, saved int64
			for _, t := range job.Stats.MapTasks {
				read += t.BytesRead
				saved += t.SharedScanBytesSaved
			}
			fmt.Fprintf(stdout, "shared scan: %.1f MB input scanned once, %.1f MB of re-reads avoided\n",
				float64(read)/(1<<20), float64(saved)/(1<<20))
		}
		printShuffled(stdout, job.Stats)
		fmt.Fprintf(stdout, "simulated response time on the paper's cluster: %s\n", job.Estimate)
		var sampleSeconds float64 // the job's Estimate includes every member's sampling pass
		for _, qi := range job.Queries {
			sampleSeconds += batch.Results[qi].SampleSeconds
		}
		printStages(stdout, job.Stats, sampleSeconds)
	}
	fmt.Fprintf(stdout, "plan cache: %d hits, %d misses\n", dcache.Hits(), dcache.Misses())
	if rc != nil {
		cs := rc.Stats()
		fmt.Fprintf(stdout, "result cache: %d hits, %d misses, %d bytes materialized, %d evictions\n",
			cs.Hits, cs.Misses, cs.BytesMaterialized, cs.Evictions)
	}
	if *savePath != "" {
		res := batch.Results[0]
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

// explainBatch plans the queries exactly as the run would and prints, per
// query, its fingerprint, workflow, keys and the chosen plan with the
// optimizer's candidates, then the jobs the run would start. No job runs.
func explainBatch(ctx context.Context, stdout io.Writer, eng *casm.Engine, su *workload.Suite, qs []*casm.Query, names []string, ds *casm.Dataset) error {
	headers, jobs, err := eng.PlanBatchContext(ctx, qs, ds)
	if err != nil {
		return err
	}
	planned := make([]*casm.Result, len(qs))
	for qi, q := range qs {
		fp, err := casm.Fingerprint(q)
		if err != nil {
			return err
		}
		text, err := casm.ExplainPlan(q, headers[qi].Plan)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "explain %s:\nfingerprint: %s\n%s", names[qi], fp, text)
		planned[qi] = &casm.Result{ResultHeader: headers[qi]}
	}
	for ji, job := range jobs {
		printJob(stdout, su, ji, job, names, planned, 0)
	}
	return nil
}

// printJob prints job ji as the run and -explain share it: which queries
// shared its scan and which of those its shuffle, then each member's plan
// line and measure counts (none for a job that did not run).
func printJob(stdout io.Writer, su *workload.Suite, ji int, job casm.BatchJobInfo, names []string, results []*casm.Result, show int) {
	members := make([]string, len(job.Queries))
	for i, qi := range job.Queries {
		members[i] = names[qi]
	}
	if job.Shared {
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
	} else {
		fmt.Fprintf(stdout, "job %d: %s (unshared)\n", ji, strings.Join(members, ","))
	}
	var line []byte
	for _, qi := range job.Queries {
		res := results[qi]
		fmt.Fprintf(stdout, "query %s:\n", names[qi])
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
				line = appendShownRow(line[:0], su.Schema, "", ms[i].Region, ms[i].Value)
				stdout.Write(line)
			}
		}
		if res.ResultReused {
			fmt.Fprintln(stdout, "result assembled from the materialized cache (no input scanned)")
		}
	}
}

// appendShownRow appends one printed result row, "  <region> = <value>"
// and a newline, with "<measure>: " before the region when measure is
// non-empty. The value is %g's shortest form.
func appendShownRow(dst []byte, schema *cube.Schema, measure string, r cube.Region, v float64) []byte {
	dst = append(dst, "  "...)
	if measure != "" {
		dst = append(dst, measure...)
		dst = append(dst, ": "...)
	}
	dst = schema.AppendRegion(dst, r)
	dst = append(dst, " = "...)
	dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
	return append(dst, '\n')
}

// printPlan prints an evaluation's header line — the same for a run, a
// stream and -explain.
func printPlan(stdout io.Writer, su *workload.Suite, h core.ResultHeader) {
	fmt.Fprintf(stdout, "plan: key=%s cf=%d blocks=%d (sampled=%v cached=%v early-agg=%v)\n",
		h.Plan.Key.Format(su.Schema), h.Plan.ClusteringFactor, h.Plan.Blocks,
		h.SampledPlan, h.PlanCached, h.EarlyAggregated)
}

// printStages prints the run's Figure 4(d) bars as the panel prices them,
// then the sampling pass the simulated time includes.
func printStages(stdout io.Writer, js mr.JobStats, sampleSeconds float64) {
	fmt.Fprint(stdout, "  Figure 4(d) stages:")
	for s, est := range core.EstimateStages(costmodel.DefaultCluster(), js) {
		fmt.Fprintf(stdout, " %s=%.1fs", costmodel.Stage(s), est.Total()+sampleSeconds)
	}
	fmt.Fprintln(stdout)
	if sampleSeconds > 0 {
		fmt.Fprintf(stdout, "  (includes %.1fs simulated sampling overhead)\n", sampleSeconds)
	}
}

// printShuffled prints a job's shuffle and task counts and its real wall.
func printShuffled(stdout io.Writer, js mr.JobStats) {
	fmt.Fprintf(stdout, "shuffled: %.1f MB in %d map tasks / %d reduce tasks (wall %.2fs real)\n",
		float64(js.Shuffled)/(1<<20), len(js.MapTasks), len(js.ReduceTasks), js.Wall.Seconds())
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

	printPlan(stdout, su, rs.ResultHeader)

	counts := map[string]int64{}
	shown := map[string]int{}
	var line []byte
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
			line = appendShownRow(line[:0], su.Schema, row.Measure, row.Region, row.Value)
			stdout.Write(line)
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
	printShuffled(stdout, st)
	fmt.Fprintf(stdout, "streamed %d rows; simulated response time on the paper's cluster: %s\n",
		rs.Rows(), rs.Estimate())
	printStages(stdout, st, rs.SampleSeconds)
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
