package mr

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// TestEmitShuffleGroupAllocs pins the steady-state allocation rate of the
// per-pair hot path — MapCtx.Emit → partition → batched channel shuffle →
// hash grouping — at (near) zero. It measures whole-job allocations at
// two input sizes over the SAME key set and divides the difference by the
// extra pairs: fixed per-job costs (task setup, channels, the hash
// table's group entries) cancel out, leaving only what each additional
// pair costs. With byte-slice keys end to end that is amortized slice
// regrowth and one batch frame per 256 pairs — well under 0.1 allocs per
// pair; the old string-keyed plane paid 1+ allocs per pair just
// materializing keys.
func TestEmitShuffleGroupAllocs(t *testing.T) {
	const nKeys = 512
	mkRecords := func(n int) [][]byte {
		records := make([][]byte, n)
		for i := range records {
			records[i] = []byte(fmt.Sprintf("g%03d %d", i%nKeys, i))
		}
		return records
	}
	run := func(records [][]byte) {
		res, err := Run(Job{
			Input: indexInput(len(records), 4),
			Map: perRow(func(ctx *MapCtx, row []int64) error {
				rec := records[row[0]]
				for j := 0; j < len(rec); j++ {
					if rec[j] == ' ' {
						// The records are stable for the job's life, so
						// zero-copy aliasing emits are legal.
						return ctx.Emit(rec[:j], rec[j+1:])
					}
				}
				return nil
			}),
			Reduce: func(ctx *ReduceCtx, key []byte, values *GroupIter) error {
				return values.Drain()
			},
			Config: Config{NumReducers: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.TotalOutputRecords() != 0 {
			t.Fatal("unexpected output")
		}
	}

	small, big := mkRecords(16384), mkRecords(65536)
	run(small) // warm up: lazily initialized runtime state shouldn't bill the measurement
	allocsSmall := testing.AllocsPerRun(3, func() { run(small) })
	allocsBig := testing.AllocsPerRun(3, func() { run(big) })
	perPair := (allocsBig - allocsSmall) / float64(len(big)-len(small))
	t.Logf("allocs: %.0f @ %d pairs, %.0f @ %d pairs => %.4f allocs/pair",
		allocsSmall, len(small), allocsBig, len(big), perPair)
	if perPair > 0.1 {
		t.Errorf("steady-state hot path costs %.4f allocs/pair, want < 0.1", perPair)
	}
}

// propJob builds either the zero-copy job under test or its string-keyed
// reference: the same logical job, but every key round-trips through a Go
// string into a fresh copy (the allocation pattern of the retired
// EmitString shims). The byte-keyed plane must be byte-identical to it.
func propJob(records [][]byte, stringKeyed bool) Job {
	return Job{
		Input: indexInput(len(records), 3),
		Map: perRow(func(ctx *MapCtx, row []int64) error {
			rec := records[row[0]]
			j := 0
			for j < len(rec) && rec[j] != ' ' {
				j++
			}
			if stringKeyed {
				// Reference: key round-trips through a string, value
				// through a fresh copy.
				return ctx.Emit([]byte(string(rec[:j])), append([]byte(nil), rec[j+1:]...))
			}
			return ctx.Emit(rec[:j], rec[j+1:]) // zero-copy: input records are job-stable
		}),
		Reduce: func(ctx *ReduceCtx, key []byte, values *GroupIter) error {
			var sb strings.Builder
			for {
				p, ok, err := values.Next()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				sb.WriteString(string(p.Key))
				sb.WriteByte('=')
				sb.Write(p.Value)
				sb.WriteByte(';')
			}
			ctx.Emit(key, []byte(sb.String())) // Emit copies the key on both planes
			return nil
		},
		Config: Config{
			NumReducers: 3,
			// Serialize map tasks so hash-path arrival order is
			// deterministic across the byte/string runs.
			mapParallelism:  1,
			SortMemoryItems: 2, // force spill runs
		},
	}
}

func sortedOutput(t *testing.T, job Job) []string {
	t.Helper()
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(res.Output))
	for i, p := range res.Output {
		out[i] = string(p.Key) + "\x00" + string(p.Value)
	}
	sort.Strings(out)
	return out
}

// TestBytePathMatchesStringReference is the zero-copy refactor's
// equivalence property: across fuzz seeds, with spills forced
// (SortMemoryItems=2), the byte-keyed data plane must produce output
// byte-identical to the string-keyed reference shim, and the same groups
// as a plain in-memory reference computed with string maps.
func TestBytePathMatchesStringReference(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			n := 200 + rng.Intn(400)
			records := make([][]byte, n)
			for i := range records {
				records[i] = []byte(fmt.Sprintf("g%02d %04d:v%d", rng.Intn(17), i, rng.Intn(100)))
			}

			got := sortedOutput(t, propJob(records, false))
			if ref := sortedOutput(t, propJob(records, true)); fmt.Sprint(got) != fmt.Sprint(ref) {
				t.Errorf("byte-keyed output diverges from string reference\n got %q\nwant %q", got, ref)
			}

			// Plain in-memory reference: group pairs by key. Pairs of a
			// group arrive in an order the reference does not model, so
			// each group's pieces are compared sorted.
			groups := map[string][]string{}
			for _, rec := range records {
				k, v, _ := strings.Cut(string(rec), " ")
				groups[k] = append(groups[k], k+"="+v)
			}
			var want []string
			for k, pieces := range groups {
				sort.Strings(pieces)
				want = append(want, k+"\x00"+strings.Join(pieces, ";")+";")
			}
			sort.Strings(want)
			canon := make([]string, len(got))
			for i, g := range got {
				k, body, _ := strings.Cut(g, "\x00")
				pieces := strings.Split(strings.TrimSuffix(body, ";"), ";")
				sort.Strings(pieces)
				canon[i] = k + "\x00" + strings.Join(pieces, ";") + ";"
			}
			sort.Strings(canon)
			if fmt.Sprint(canon) != fmt.Sprint(want) {
				t.Errorf("byte-keyed output diverges from in-memory reference\n got %q\nwant %q", canon, want)
			}
		})
	}
}

// TestReduceAllocsPerGroup pins what one more group costs the reduce side:
// the group table's key string and entry — not a group iterator, a group
// record and a pair slice of its own, as it once did. Two jobs of the same
// pair count differ only in their distinct keys; per-job and per-pair costs
// cancel.
func TestReduceAllocsPerGroup(t *testing.T) {
	const pairs = 1 << 16
	mkRecords := func(nKeys int) [][]byte {
		records := make([][]byte, pairs)
		for i := range records {
			records[i] = []byte(fmt.Sprintf("g%05d %d", i%nKeys, i))
		}
		return records
	}
	run := func(records [][]byte) {
		_, err := Run(Job{
			Input: indexInput(len(records), 4),
			Map: perRow(func(ctx *MapCtx, row []int64) error {
				rec := records[row[0]]
				return ctx.Emit(rec[:6], rec[7:])
			}),
			Reduce: func(ctx *ReduceCtx, key []byte, values *GroupIter) error {
				return values.Drain()
			},
			Config: Config{NumReducers: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	few, many := mkRecords(1<<9), mkRecords(1<<14)
	run(few)
	allocsFew := testing.AllocsPerRun(3, func() { run(few) })
	allocsMany := testing.AllocsPerRun(3, func() { run(many) })
	perGroup := (allocsMany - allocsFew) / float64(1<<14-1<<9)
	t.Logf("allocs: %.0f @ %d groups, %.0f @ %d groups => %.2f allocs/group", allocsFew, 1<<9, allocsMany, 1<<14, perGroup)
	if perGroup > 1.5 {
		t.Errorf("each additional group costs %.2f allocations, want the key string and amortized table growth (< 1.5)", perGroup)
	}
}

// TestReduceCtxKnowsLargestGroup: a reduce task is told the pair count of
// its largest group before its first group arrives — resident or spilled.
func TestReduceCtxKnowsLargestGroup(t *testing.T) {
	var records [][]byte
	want := map[string]int{}
	for i := 0; i < 4000; i++ {
		key := fmt.Sprintf("g%02d", i*i%37)
		records = append(records, []byte(fmt.Sprintf("%s %d", key, i)))
		want[key]++
	}
	for _, tc := range []struct {
		name    string
		sortMem int
	}{
		{"hash", 0},
		{"hash spilled", 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			largest := map[string]int{} // task → largest group reduced
			told := map[string]int{}
			res, err := Run(Job{
				Input: indexInput(len(records), 3),
				Map: perRow(func(ctx *MapCtx, row []int64) error {
					rec := records[row[0]]
					return ctx.Emit(rec[:3], rec[4:])
				}),
				Reduce: func(ctx *ReduceCtx, key []byte, values *GroupIter) error {
					n := 0
					for {
						_, ok, err := values.Next()
						if err != nil {
							return err
						}
						if !ok {
							break
						}
						n++
					}
					if n != want[string(key)] {
						return fmt.Errorf("group %s has %d pairs, want %d", key, n, want[string(key)])
					}
					mu.Lock()
					defer mu.Unlock()
					largest[ctx.Stats.Task] = max(largest[ctx.Stats.Task], n)
					told[ctx.Stats.Task] = ctx.MaxGroupPairs
					return nil
				},
				Config: Config{NumReducers: 3, SortMemoryItems: tc.sortMem, TempDir: t.TempDir()},
			})
			if err != nil {
				t.Fatal(err)
			}
			if tc.sortMem > 0 {
				var runs int64
				for _, rt := range res.Stats.ReduceTasks {
					runs += rt.SpillRuns
				}
				if runs == 0 {
					t.Fatal("a 64-pair budget never spilled")
				}
			}
			for task, n := range largest {
				if told[task] != n {
					t.Errorf("%s was told its largest group has %d pairs, it has %d", task, told[task], n)
				}
			}
		})
	}
}

// TestTaskRecordSizes pins the size of a task record. A job's JobStats
// keeps one record per task, and a caller that keeps the JobStats of
// every operation it ran (a benchmark's window, a service's history)
// retains them all: on a job of 32 map tasks and 8 reducers, peak heap
// measured ≈ 11.8 MB + 32.7 KB per retained job when each record was 336 B
// and carried both sides' counters, ≈ 26 KB of that the map records with
// their GC headroom. Each side's record holds its own counters only.
func TestTaskRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(MapTaskStats{}); n > 176 {
		t.Errorf("MapTaskStats is %d bytes, want ≤ 176", n)
	}
	if n := unsafe.Sizeof(ReduceTaskStats{}); n > 200 {
		t.Errorf("ReduceTaskStats is %d bytes, want ≤ 200", n)
	}
}
