package main

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"
)

func parse(t *testing.T, doc string) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(doc), &m); err != nil {
		t.Fatalf("bad test document: %v\n%s", err, doc)
	}
	return m
}

// snap builds a snapshot with the given panels object and top-level extras.
func snap(panels, extras string) string {
	return `{"scale": 1, "seed": 1, "panels": ` + panels + extras + `}`
}

func TestDiff(t *testing.T) {
	const x = "21.700000000000003"
	xf, err := strconv.ParseFloat(x, 64)
	if err != nil {
		t.Fatal(err)
	}
	nextX := strconv.FormatFloat(math.Nextafter(xf, 100), 'g', -1, 64)
	panelA := `{"a": {"title": "t", "data": {"Seconds": [[1.5, ` + x + `]], "Sizes": [50000]}}}`

	for _, tc := range []struct {
		name     string
		old, new string
		want     []string // one substring per expected diff line, in order
	}{
		{name: "identical", old: snap(panelA, ""), new: snap(panelA, "")},
		{
			name: "float differs in the last bit",
			old:  snap(panelA, ""),
			new:  snap(strings.Replace(panelA, x, nextX, 1), ""),
			want: []string{"panels.a.data.Seconds[0][1]: " + x + " vs " + nextX},
		},
		{
			name: "panel only in old",
			old:  snap(`{"a": {"data": 1}, "b": {"data": 2}}`, ""),
			new:  snap(`{"a": {"data": 1}}`, ""),
			want: []string{"panels.b: only in old snapshot"},
		},
		{
			name: "panel only in new",
			old:  snap(`{"a": {"data": 1}}`, ""),
			new:  snap(`{"a": {"data": 1}, "b": {"data": 2}}`, ""),
			want: []string{"panels.b: only in new snapshot"},
		},
		{
			name: "array length mismatch",
			old:  snap(`{"a": {"data": {"Sizes": [1, 2, 3]}}}`, ""),
			new:  snap(`{"a": {"data": {"Sizes": [1, 2]}}}`, ""),
			want: []string{"panels.a.data.Sizes: length 3 vs 2"},
		},
		{
			name: "object vs scalar",
			old:  snap(`{"a": {"data": {"Sizes": {"n": 1}}}}`, ""),
			new:  snap(`{"a": {"data": {"Sizes": 1}}}`, ""),
			want: []string{"panels.a.data.Sizes: object vs float64"},
		},
		{
			// BENCH_FIG4.json against a snapshot in the older, wider shape:
			// titles, timestamps, per-panel extras and whole extra sections
			// are not what the guard protects.
			name: "title, generated_at and unknown sections ignored",
			old: snap(`{"a": {"title": "old title", "wall_seconds": 20.1, "data": {"Sizes": [1]}}}`,
				`, "generated_at": "2026-01-01T00:00:00Z", "go_version": "go1.22", "memory": {"alloc_bytes": 7}, "plan_cache": {"hits": 3}`),
			new: snap(`{"a": {"title": "new title", "data": {"Sizes": [1]}}}`, `, "generated_at": "2026-10-01T00:00:00Z"`),
		},
		{
			name: "scale and seed compared",
			old:  `{"scale": 1, "seed": 1, "panels": {"a": {"data": 1}}}`,
			new:  `{"scale": 0.05, "seed": 2, "panels": {"a": {"data": 1}}}`,
			want: []string{"scale: 1 vs 0.05", "seed: 1 vs 2"},
		},
		{
			name: "empty panels on both sides",
			old:  snap(`{}`, ""),
			new:  snap(`{}`, ""),
			want: []string{"panels: empty in both snapshots"},
		},
		{
			name: "panels missing",
			old:  `{"scale": 1, "seed": 1}`,
			new:  snap(panelA, ""),
			want: []string{"panels: not a JSON object", "panels.a: only in new snapshot"},
		},
		{
			name: "data missing on both sides",
			old:  snap(`{"a": {"title": "t"}}`, ""),
			new:  snap(`{"a": {"title": "t"}}`, ""),
			want: []string{"panels.a.data: missing"},
		},
		{
			name: "data missing on one side",
			old:  snap(`{"a": {"data": null}}`, ""),
			new:  snap(`{"a": {}}`, ""),
			want: []string{"panels.a.data: missing"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := diff(parse(t, tc.old), parse(t, tc.new))
			if len(got) != len(tc.want) {
				t.Fatalf("diffs = %q, want %d matching %q", got, len(tc.want), tc.want)
			}
			for i, w := range tc.want {
				if !strings.Contains(got[i], w) {
					t.Errorf("diff %d = %q, want it to contain %q", i, got[i], w)
				}
			}
		})
	}
}
