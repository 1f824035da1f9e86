package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent is the ID of the span that caused this one (0 for the
// operation's root). Times are nanoseconds since the recorder started.
type span struct {
	Op     int64              `json:"op"`
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Kind   string             `json:"kind,omitempty"` // root spans: the query or request class
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer is the benchmark's own in-memory span recorder. A nil tracer
// records nothing, which is how the untraced pass runs.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	ops   int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(op int64, parent int, name string, start time.Time, dur time.Duration, attrs map[string]float64) int {
	s := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{
		Op: op, ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: s, End: s + dur.Nanoseconds(), Attrs: attrs,
	})
	return len(t.spans)
}

// record turns one operation's observations into its span tree: the
// root, the calls the benchmark made into cql and core (or the HTTP
// request), and — synthesized from the timestamps the job returned in
// mr.JobStats — the map phase, the shuffle collection and the reduce
// tail inside the run.
func (t *tracer) record(o *opObs) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	op := t.ops
	root := t.add(op, 0, "op", o.start, o.latency, nil)
	t.spans[root-1].Kind = o.kind
	if o.stats == nil {
		t.add(op, root, "http.request", o.start, o.latency, map[string]float64{
			"queue_ms": o.queueMS, "wall_ms": o.wallMS, "first_row_ms": ms(o.firstRow),
		})
		return
	}
	at := o.start
	t.add(op, root, "cql.parse", at, o.parse, nil)
	at = at.Add(o.parse)
	t.add(op, root, "core.plan", at, o.plan, nil)
	at = at.Add(o.plan)
	name, attrs := "core.run", map[string]float64(nil)
	if o.firstRow > 0 {
		name, attrs = "core.stream", map[string]float64{"first_row_ms": ms(o.firstRow)}
	}
	run := t.add(op, root, name, at, o.run, attrs)
	js := o.stats
	if js.Wall == 0 {
		return // answered from a cache: no job ran
	}
	t.add(op, run, "mr.map_phase", at, js.MapDone, nil)
	var collect time.Duration
	for _, rt := range js.ReduceTasks {
		if rt.CollectDone > collect {
			collect = rt.CollectDone
		}
	}
	t.add(op, run, "mr.collect", at, collect, nil)
	if js.Wall > js.MapDone {
		t.add(op, run, "mr.reduce_tail", at.Add(js.MapDone), js.Wall-js.MapDone, nil)
	}
}

// durations returns, per span name, every span's duration and self time
// in milliseconds. Self time is the span's duration minus the part of it
// that its child spans cover (children may overlap each other).
func (t *tracer) durations() (total, self map[string][]float64) {
	total, self = map[string][]float64{}, map[string][]float64{}
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		d := s.End - s.Start
		total[s.Name] = append(total[s.Name], float64(d)/1e6)
		self[s.Name] = append(self[s.Name], float64(d-covered)/1e6)
	}
	return
}

// writeTo writes every span as one JSON document, once, at exit.
func (t *tracer) writeTo(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
