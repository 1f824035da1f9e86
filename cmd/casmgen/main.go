// Command casmgen generates the paper's synthetic datasets (Section VI)
// and ingests them into the persistent replicated block store that
// casmrun and casmserve evaluate from:
//
//	casmgen -n 1000000 -dist uniform -seed 1 -store /var/casm/store -o events.casm
//	casmgen -n 1000000 -zipf 2 -layout clustered -store /var/casm/store -o skew.casm
//
// Records follow the six-attribute evaluation schema (a1..a4 in [0,256)
// with a four-level hierarchy; t1, t2 covering twenty days at second
// resolution). -o names the file inside the store; its record count and
// schema digest persist in block footers, so readers never recount.
// Re-running casmgen into the same name replaces the file.
//
// The skew knobs build the §V straggler scenarios: -zipf draws a1..a4
// zipf-distributed (exponent > 1; larger = more skew), and -layout
// controls how the skew maps onto splits — shuffled interleaves hot keys
// across all blocks, clustered sorts records so each hot key forms a
// contiguous run, adversarial additionally parks the hottest runs at the
// end of the file.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/casm-project/casm/internal/blockstore"
	"github.com/casm-project/casm/internal/workload"
)

// errUsage marks a command line casmgen cannot act on (exit status 2).
var errUsage = errors.New("usage")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "casmgen: %v\n", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("casmgen", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var (
		n         = fs.Int("n", 100_000, "number of records")
		dist      = fs.String("dist", "uniform", "data distribution: uniform | skewed")
		zipf      = fs.Float64("zipf", 0, "zipf exponent for a1..a4 (> 1; 0 = uniform)")
		layout    = fs.String("layout", "shuffled", "record layout: shuffled | clustered | adversarial")
		seed      = fs.Int64("seed", 1, "generator seed")
		out       = fs.String("o", "data.casm", "name of the file inside the store")
		blockSize = fs.Int("block", 4<<20, "store block size in decoded bytes (one block is one map split)")
		storeDir  = fs.String("store", "", "directory of the persistent block store to ingest into (required)")
		repl      = fs.Int("replication", 3, "store replication factor")
		nodes     = fs.Int("nodes", 10, "store node count")
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
		return fmt.Errorf("%w: -store DIR is required", errUsage)
	}

	var d workload.Distribution
	switch *dist {
	case "uniform":
		d = workload.Uniform
	case "skewed":
		d = workload.SkewedTime
	default:
		return fmt.Errorf("%w: unknown distribution %q (want uniform or skewed)", errUsage, *dist)
	}
	lay, err := workload.ParseLayout(*layout)
	if err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}

	su := workload.NewSuite()
	records, err := su.GenerateOpts(workload.GenOpts{
		N: *n, Dist: d, Seed: *seed, Zipf: *zipf, Layout: lay,
	})
	if err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	st, err := blockstore.Open(blockstore.Config{
		Dir: *storeDir, BlockSize: *blockSize, Replication: *repl, NumNodes: *nodes, Seed: *seed,
	})
	if err != nil {
		return err
	}
	defer st.Close()
	// Replace, not append: re-running the same casmgen converges to
	// exactly the generated records.
	if _, ferr := st.FileInfo(*out); ferr == nil {
		if err := st.Delete(*out); err != nil {
			return err
		}
	}
	if err := workload.WriteStore(st, *out, su.Schema, records); err != nil {
		return err
	}
	info, err := st.FileInfo(*out)
	if err != nil {
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "ingested %d records in %d blocks (%d raw bytes, %d stored per replica, %s distribution, zipf %g, %s layout, seed %d) into store %s as %s\n",
		info.Records, info.Blocks, info.RawBytes, info.StoredBytes, d, *zipf, lay, *seed, *storeDir, *out)
	return nil
}
