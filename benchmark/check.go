package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"github.com/casm-project/casm/internal/core"
	"github.com/casm-project/casm/internal/cql"
	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/localeval"
	"github.com/casm-project/casm/internal/workflow"
)

// digest summarises one measure's <coords, value> rows independently of
// the order they arrive in. Region identity is exact (Rows, Keys); values
// are compared through a key-weighted sum with a relative tolerance,
// because the engine evaluates block by block and the reference in one
// block, so float results may differ in the last bits (the engine's own
// oracle tests allow 1e-9 for the same reason).
type digest struct {
	Rows int64
	Keys uint64  // wrapping sum of the rows' key hashes
	Sum  float64 // Σ value × weight(key), weight in [1,2)
	Abs  float64 // Σ |value| × weight(key), the tolerance's scale
}

const valueTolerance = 1e-9

func (d *digest) add(h uint64, v float64) {
	w := 1 + float64(h>>11)/(1<<53)
	d.Rows++
	d.Keys += h
	d.Sum += v * w
	d.Abs += math.Abs(v) * w
}

func (d digest) matches(o digest) bool {
	return d.Rows == o.Rows && d.Keys == o.Keys &&
		math.Abs(d.Sum-o.Sum) <= valueTolerance*math.Max(d.Abs, o.Abs)
}

// answer is a whole result: one digest per measure.
type answer map[string]*digest

// hashRow is FNV-1a over the measure name, a separator and the varint
// coordinates; scratch is the reused encode buffer.
func hashRow(measure string, coords []int64, scratch *[]byte) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(measure); i++ {
		h = (h ^ uint64(measure[i])) * 1099511628211
	}
	h = (h ^ 0xff) * 1099511628211
	*scratch = cube.AppendCoords((*scratch)[:0], coords)
	for _, c := range *scratch {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

func (a answer) add(measure string, coords []int64, v float64, scratch *[]byte) {
	d := a[measure]
	if d == nil {
		d = &digest{}
		a[measure] = d
	}
	d.add(hashRow(measure, coords, scratch), v)
}

func (a answer) rows() int64 {
	var n int64
	for _, d := range a {
		n += d.Rows
	}
	return n
}

func (a answer) matches(o answer) bool {
	if len(a) != len(o) {
		return false
	}
	for name, d := range a {
		od, ok := o[name]
		if !ok || !d.matches(*od) {
			return false
		}
	}
	return true
}

// id folds the exact parts of the answer into one number, for the
// determinism test and the printed report.
func (a answer) id() uint64 {
	var id uint64
	for _, d := range a {
		id += d.Keys + uint64(d.Rows)*0x9e3779b97f4a7c15
	}
	return id
}

// scaled returns a copy with one measure's values multiplied by k: the
// reference of SCALE(k, m) derived from the reference of SCALE(1, m).
func (a answer) scaled(measure string, k float64) answer {
	out := make(answer, len(a))
	for name, d := range a {
		c := *d
		if name == measure {
			c.Sum *= k
			c.Abs *= math.Abs(k)
		}
		out[name] = &c
	}
	return out
}

func answerOfResult(res *core.Result) answer {
	a := make(answer, len(res.Measures))
	var scratch []byte
	for name, ms := range res.Measures {
		for _, m := range ms {
			a.add(name, m.Region.Coord, m.Value, &scratch)
		}
	}
	return a
}

// query is one CQL text with its reference answers over a dataset.
type query struct {
	name string
	text string
	wf   *workflow.Workflow
	// ref digests every row; head only the first headLimit rows of each
	// measure in the engine's canonical (encoded-coordinate) order, which
	// is what a unary /query?limit= response carries.
	ref, head answer
}

func newQuery(schema *cube.Schema, name, text string) (*query, error) {
	wf, err := cql.Parse(schema, text)
	if err != nil {
		return nil, fmt.Errorf("query %s: %w", name, err)
	}
	return &query{name: name, text: text, wf: wf}, nil
}

// reference evaluates the query over the whole record set as one block
// with the local evaluator, the same oracle the engine's tests use.
func (q *query) reference(records []cube.Record, headLimit int) error {
	ev, err := localeval.New(q.wf)
	if err != nil {
		return fmt.Errorf("query %s: %w", q.name, err)
	}
	results, _, err := ev.Evaluate(records, localeval.Options{})
	if err != nil {
		return fmt.Errorf("query %s: reference evaluation: %w", q.name, err)
	}
	q.ref = make(answer)
	var scratch []byte
	for _, r := range results {
		q.ref.add(r.Measure, r.Region.Coord, r.Value, &scratch)
	}
	if headLimit <= 0 {
		return nil
	}
	byMeasure := make(map[string][]localeval.Result)
	for _, r := range results {
		byMeasure[r.Measure] = append(byMeasure[r.Measure], r)
	}
	q.head = make(answer)
	for name, rs := range byMeasure {
		enc := make([][]byte, len(rs))
		idx := make([]int, len(rs))
		for i, r := range rs {
			enc[i] = cube.AppendCoords(nil, r.Region.Coord)
			idx[i] = i
		}
		sort.Slice(idx, func(i, j int) bool { return bytes.Compare(enc[idx[i]], enc[idx[j]]) < 0 })
		for n, i := range idx {
			if n == headLimit {
				break
			}
			q.head.add(name, rs[i].Region.Coord, rs[i].Value, &scratch)
		}
	}
	return nil
}
