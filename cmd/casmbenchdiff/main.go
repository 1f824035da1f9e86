// Command casmbenchdiff compares two `casmbench -json` snapshots for
// simulated-result regressions:
//
//	casmbenchdiff BENCH_FIG4.json now.json
//
// It demands exact equality of the run parameters (scale, seed) and of
// every panel's raw data — the simulated seconds are a pure function of
// the engine's priced counters, so across commits that only change real
// performance they must match bit for bit. Run metadata (timestamps, Go
// version), panel titles and any other top-level section are ignored. A
// snapshot without panels, or a panel without data, is a difference: two
// empty runs do not agree. Exits 1 when the snapshots differ, 2 on usage
// or parse errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: casmbenchdiff OLD.json NEW.json   (e.g. BENCH_FIG4.json now.json)\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	oldPath, newPath := flag.Arg(0), flag.Arg(1)
	diffs := diff(load(oldPath), load(newPath))
	if len(diffs) > 0 {
		fmt.Fprintf(os.Stderr, "casmbenchdiff: %s and %s differ in %d place(s):\n", oldPath, newPath, len(diffs))
		for _, d := range diffs {
			fmt.Fprintf(os.Stderr, "  %s\n", d)
		}
		os.Exit(1)
	}
	fmt.Printf("casmbenchdiff: %s and %s agree on scale, seed, and all panel data\n", oldPath, newPath)
}

// diff lists every place two decoded snapshots disagree on what the
// Figure 4 guard protects: scale, seed, and each panel's data.
func diff(a, b map[string]any) []string {
	var diffs []string
	for _, key := range []string{"scale", "seed"} {
		diffValue(key, a[key], b[key], &diffs)
	}
	pa, pb := asObject("panels", a["panels"], &diffs), asObject("panels", b["panels"], &diffs)
	if pa != nil && pb != nil && len(pa)+len(pb) == 0 {
		diffs = append(diffs, "panels: empty in both snapshots")
	}
	diffPanels(pa, pb, &diffs)
	return diffs
}

func load(path string) map[string]any {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "casmbenchdiff: %v\n", err)
		os.Exit(2)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		fmt.Fprintf(os.Stderr, "casmbenchdiff: %s: %v\n", path, err)
		os.Exit(2)
	}
	return doc
}

func asObject(path string, v any, diffs *[]string) map[string]any {
	m, ok := v.(map[string]any)
	if !ok {
		*diffs = append(*diffs, fmt.Sprintf("%s: not a JSON object", path))
	}
	return m
}

// diffPanels compares the "data" member of every panel; the title beside
// it is informational and may drift.
func diffPanels(a, b map[string]any, diffs *[]string) {
	for _, name := range unionKeys(a, b) {
		path := "panels." + name
		pa, aok := a[name]
		pb, bok := b[name]
		switch {
		case !aok:
			*diffs = append(*diffs, path+": only in new snapshot")
		case !bok:
			*diffs = append(*diffs, path+": only in old snapshot")
		default:
			da, aok := asObject(path, pa, diffs)["data"]
			db, bok := asObject(path, pb, diffs)["data"]
			if !aok || !bok {
				*diffs = append(*diffs, path+".data: missing")
				continue
			}
			diffValue(path+".data", da, db, diffs)
		}
	}
}

// diffValue recursively compares two decoded JSON values with exact
// equality — floats included: equal simulated results serialize and
// re-parse to identical float64 bits.
func diffValue(path string, a, b any, diffs *[]string) {
	switch av := a.(type) {
	case map[string]any:
		bv, ok := b.(map[string]any)
		if !ok {
			*diffs = append(*diffs, fmt.Sprintf("%s: object vs %T", path, b))
			return
		}
		for _, k := range unionKeys(av, bv) {
			sa, aok := av[k]
			sb, bok := bv[k]
			switch {
			case !aok:
				*diffs = append(*diffs, fmt.Sprintf("%s.%s: only in new snapshot", path, k))
			case !bok:
				*diffs = append(*diffs, fmt.Sprintf("%s.%s: only in old snapshot", path, k))
			default:
				diffValue(path+"."+k, sa, sb, diffs)
			}
		}
	case []any:
		bv, ok := b.([]any)
		if !ok {
			*diffs = append(*diffs, fmt.Sprintf("%s: array vs %T", path, b))
			return
		}
		if len(av) != len(bv) {
			*diffs = append(*diffs, fmt.Sprintf("%s: length %d vs %d", path, len(av), len(bv)))
			return
		}
		for i := range av {
			diffValue(fmt.Sprintf("%s[%d]", path, i), av[i], bv[i], diffs)
		}
	default:
		if a != b {
			*diffs = append(*diffs, fmt.Sprintf("%s: %v vs %v", path, a, b))
		}
	}
}

func unionKeys(a, b map[string]any) []string {
	seen := make(map[string]bool, len(a)+len(b))
	var keys []string
	for k := range a {
		seen[k] = true
		keys = append(keys, k)
	}
	for k := range b {
		if !seen[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}
