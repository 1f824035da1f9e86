package main

import (
	"errors"
	"io"
	"testing"

	"github.com/casm-project/casm/internal/blockstore"
)

// TestGenIngestsAndReplaces: casmgen writes into a store, and running it
// again under the same name replaces the file instead of appending.
func TestGenIngestsAndReplaces(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []string{"700", "500"} {
		args := []string{"-store", dir, "-o", "f", "-n", n, "-block", "4096", "-nodes", "3", "-replication", "2"}
		if err := run(args, io.Discard); err != nil {
			t.Fatalf("run %v: %v", args, err)
		}
	}
	st, err := blockstore.Open(blockstore.Config{Dir: dir, NumNodes: 3, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	info, err := st.FileInfo("f")
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 500 || info.SchemaDigest == "" {
		t.Fatalf("store file holds %d records (digest %q), want the second run's 500", info.Records, info.SchemaDigest)
	}
}

// TestUsageErrors: there is no output but a store.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "10", "-o", "data.casm"},
		{"-store", t.TempDir(), "-dist", "lumpy"},
	} {
		if err := run(args, io.Discard); !errors.Is(err, errUsage) {
			t.Errorf("run %v: %v, want a usage error", args, err)
		}
	}
}
