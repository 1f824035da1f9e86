package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// summary is one metric's values over a set of runs.
type summary struct {
	n              int
	q1, median, q3 float64
}

// spread is the distance between the quartiles as a share of the median,
// the driver's measure of run-to-run noise.
func (s summary) spread() float64 {
	if s.median == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.median
}

// quartiles reproduces Python's statistics.quantiles(values, n=4), the
// exclusive method the driver uses, so both judge the same numbers.
func quartiles(values []float64) summary {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		v := 0.0
		if ld == 1 {
			v = s[0]
		}
		return summary{n: ld, q1: v, median: v, q3: v}
	}
	cut := func(i int) float64 {
		j := i * (ld + 1) / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return summary{n: ld, q1: cut(1), median: cut(2), q3: cut(3)}
}

// readRuns groups the end-to-end values of a -out file by workload and
// metric. Traced runs carry no end-to-end metrics and are skipped.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if runs[rec.Workload] == nil {
			runs[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Metrics {
			runs[rec.Workload][name] = append(runs[rec.Workload][name], v.Value)
		}
	}
	return runs, sc.Err()
}

// compareFiles prints one row per (workload, end-to-end metric) with
// both sides' medians and quartiles, the bound, and a verdict:
//
//	same        B's median is not worse than A's by more than the bound
//	worse       it is
//	unresolved  a side's quartile spread is wider than the bound, so the
//	            runs cannot tell (not applied to setup_s)
//
// It returns an error (exit status 1) if any row is worse.
func compareFiles(w io.Writer, specPath, pathA, pathB string) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readRuns(pathA)
	if err != nil {
		return err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] n\tB median [q1, q3] n\tchange\tbound\tverdict")
	worse := 0
	for _, wl := range workloadNames() {
		for _, m := range spec.EndToEnd {
			va, vb := a[wl][m.Name], b[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			sa, sb := quartiles(va), quartiles(vb)
			// change > 0 means B is worse, whichever direction is better.
			change := (sb.median - sa.median) / sa.median
			if m.Better == higher {
				change = -change
			}
			verdict := "same"
			switch {
			case m.Name != "setup_s" && max(sa.spread(), sb.spread()) > m.Bound:
				// The driver exempts setup_s from the spread rule too.
				verdict = "unresolved"
			case change > m.Bound:
				verdict = "worse"
				worse++
			}
			cell := func(s summary) string { return fmt.Sprintf("%.4g [%.4g, %.4g] %d", s.median, s.q1, s.q3, s.n) }
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%.0f%%\t%s\n",
				wl, m.Name, m.Unit, cell(sa), cell(sb), change*100, m.Bound*100, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than the bound allows", worse)
	}
	return nil
}
