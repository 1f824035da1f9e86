package main

import (
	"errors"
	"io"
	"testing"
)

// TestUsageErrors: casmserve serves a store and nothing else — a command
// line without one, without a dataset, or with a flag of the flat-file
// days (-mem, -ingest, -block) is refused before anything is opened.
func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-data", "events=events.casm"},
		{"-store", dir},
		{"-store", dir, "-data", "events=events.casm", "-mem"},
		{"-store", dir, "-data", "events=events.casm", "-ingest"},
		{"-store", dir, "-data", "events=events.casm", "-block", "4096"},
	} {
		if err := run(args, io.Discard); !errors.Is(err, errUsage) {
			t.Errorf("run %v: %v, want a usage error", args, err)
		}
	}
}
