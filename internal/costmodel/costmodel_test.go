package costmodel

import (
	"math"
	"reflect"
	"testing"
)

func TestScheduleLPT(t *testing.T) {
	cases := []struct {
		d     []float64
		slots int
		want  float64
	}{
		{nil, 4, 0},
		{[]float64{5}, 4, 5},
		{[]float64{3, 3, 3, 3}, 2, 6},
		{[]float64{5, 4, 3, 2, 1}, 2, 8}, // LPT: {5,3}, {4,2,1} -> 8? {5,2,1}=8, {4,3}=7 -> 8
		{[]float64{10, 1, 1, 1}, 4, 10},  // bounded below by the longest task
		{[]float64{2, 2, 2}, 1, 6},       // single slot: sum
	}
	for i, c := range cases {
		if got := ScheduleLPT(c.d, c.slots); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("case %d: got %v, want %v", i, got, c.want)
		}
	}
}

func TestScheduleLPTBounds(t *testing.T) {
	d := []float64{7, 3, 9, 2, 8, 4, 6, 1, 5}
	var sum, max float64
	for _, x := range d {
		sum += x
		if x > max {
			max = x
		}
	}
	for slots := 1; slots <= 12; slots++ {
		got := ScheduleLPT(d, slots)
		if got < max-1e-12 {
			t.Errorf("slots %d: makespan %v below longest task %v", slots, got, max)
		}
		if got < sum/float64(slots)-1e-12 {
			t.Errorf("slots %d: makespan %v below perfect balance %v", slots, got, sum/float64(slots))
		}
		if got > sum+1e-12 {
			t.Errorf("slots %d: makespan %v above serial time", slots, got)
		}
	}
	// More slots never hurt.
	prev := math.Inf(1)
	for slots := 1; slots <= 12; slots++ {
		got := ScheduleLPT(d, slots)
		if got > prev+1e-12 {
			t.Errorf("makespan increased with more slots at %d", slots)
		}
		prev = got
	}
}

func TestMapTimeComponents(t *testing.T) {
	m := DefaultMachine()
	base := m.MapTime(MapWork{})
	if math.Abs(base-m.TaskOverheadSec) > 1e-12 {
		t.Errorf("empty map task = %v, want overhead %v", base, m.TaskOverheadSec)
	}
	// 60 MB read at 60 MB/s adds ~1s.
	withRead := m.MapTime(MapWork{BytesRead: 60 << 20})
	if math.Abs(withRead-base-1.0) > 1e-9 {
		t.Errorf("read term = %v, want 1.0", withRead-base)
	}
	// 40 MB shuffled at 40 MB/s adds ~1s.
	withNet := m.MapTime(MapWork{BytesOut: 40 << 20})
	if math.Abs(withNet-base-1.0) > 1e-9 {
		t.Errorf("net term = %v, want 1.0", withNet-base)
	}
	// Records and combining add CPU time.
	if m.MapTime(MapWork{Records: 1e6}) <= base {
		t.Error("record CPU not charged")
	}
	if m.MapTime(MapWork{CombineInputs: 1e6}) <= base {
		t.Error("combine CPU not charged")
	}
}

func TestReduceTimeComponents(t *testing.T) {
	m := DefaultMachine()
	base := m.ReduceTime(ReduceWork{})
	if m.ReduceTime(ReduceWork{SortItems: 1 << 20}) <= base {
		t.Error("sort not charged")
	}
	// Spills pay the disk twice.
	spill := m.ReduceTime(ReduceWork{SpillBytes: 60 << 20}) - base
	if math.Abs(spill-2.0) > 1e-9 {
		t.Errorf("spill term = %v, want 2.0", spill)
	}
	// The in-group second sort is a separate term (the Figure 4(d) gap).
	g := m.ReduceTime(ReduceWork{GroupSortItems: 1 << 20}) - base
	s := m.ReduceTime(ReduceWork{SortItems: 1 << 20}) - base
	if math.Abs(g-s) > 1e-9 {
		t.Errorf("group sort %v priced differently from framework sort %v", g, s)
	}
	if m.ReduceTime(ReduceWork{EvalRecords: 1e6}) <= base {
		t.Error("eval not charged")
	}
}

func TestSortSuperlinear(t *testing.T) {
	m := DefaultMachine()
	t1 := m.ReduceTime(ReduceWork{SortItems: 1 << 20}) - m.TaskOverheadSec
	t2 := m.ReduceTime(ReduceWork{SortItems: 2 << 20}) - m.TaskOverheadSec
	if t2 <= 2*t1 {
		t.Errorf("sort cost not superlinear: %v vs %v", t2, 2*t1)
	}
}

func TestEstimateJobShape(t *testing.T) {
	c := DefaultCluster()
	if c.Slots() != 200 {
		t.Fatalf("slots = %d", c.Slots())
	}
	// Balanced work splits across slots; the makespan should shrink as
	// reducers (tasks) grow until slots saturate.
	mk := func(tasks int, recordsEach int64) Estimate {
		mw := make([]MapWork, 50)
		for i := range mw {
			mw[i] = MapWork{BytesRead: 8 << 20, Records: recordsEach}
		}
		rw := make([]ReduceWork, tasks)
		for i := range rw {
			rw[i] = ReduceWork{PairsIn: recordsEach, SortItems: recordsEach, EvalRecords: recordsEach}
		}
		return EstimateJob(c, mw, rw)
	}
	few := mk(10, 1e6)
	many := mk(100, 1e5)
	if many.ReduceSeconds >= few.ReduceSeconds {
		t.Errorf("more, smaller reduce tasks should cut reduce makespan: %v vs %v",
			many.ReduceSeconds, few.ReduceSeconds)
	}
	if few.Total() <= 0 || few.MapSeconds <= 0 {
		t.Error("degenerate estimate")
	}
	if s := few.String(); s == "" {
		t.Error("empty String")
	}
}

// TestScaledCoversEveryField guards the one hand-written field list the
// priced set has: a counter added to MapWork or ReduceWork but forgotten
// in Scaled would silently stay at laptop magnitude in every panel.
func TestScaledCoversEveryField(t *testing.T) {
	check := func(name string, in, out reflect.Value) {
		for i := 0; i < in.NumField(); i++ {
			if got, want := out.Field(i).Int(), 3*in.Field(i).Int(); got != want {
				t.Errorf("%s.%s scaled to %d, want %d", name, in.Type().Field(i).Name, got, want)
			}
		}
	}
	fill := func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			v.Field(i).SetInt(int64(i + 1))
		}
	}
	var mw MapWork
	fill(reflect.ValueOf(&mw).Elem())
	check("MapWork", reflect.ValueOf(mw), reflect.ValueOf(mw.Scaled(3)))
	var rw ReduceWork
	fill(reflect.ValueOf(&rw).Elem())
	check("ReduceWork", reflect.ValueOf(rw), reflect.ValueOf(rw.Scaled(3)))
}

// TestCutAssignsEveryCounterOneStage: Cut drops every priced reduce
// counter before one stage past Map-Only and keeps it whole from there
// on, so a counter added to ReduceWork but not placed in Cut fails here
// instead of silently dropping out of the bars.
func TestCutAssignsEveryCounterOneStage(t *testing.T) {
	typ := reflect.TypeOf(ReduceWork{})
	for i := 0; i < typ.NumField(); i++ {
		var w ReduceWork
		reflect.ValueOf(&w).Elem().Field(i).SetInt(7)
		first := NumStages
		for s := StageMapOnly; s < NumStages; s++ {
			switch c := w.Cut(s); {
			case c == w && first == NumStages:
				first = s
			case c == w:
			case c != ReduceWork{} || first != NumStages:
				t.Errorf("%s cut at %v to %+v: a counter is kept whole from its stage on and dropped before it", typ.Field(i).Name, s, c)
			}
		}
		if first == StageMapOnly || first == NumStages {
			t.Errorf("%s enters the bars at stage %d, want MR, Sort or Sort+Eval", typ.Field(i).Name, first)
		}
	}
}
