package sortx

import (
	"cmp"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// runBytes reads back every run file the sorter holds, in order.
func runBytes(t *testing.T, s *Sorter[pair]) [][]byte {
	t.Helper()
	var out [][]byte
	for _, f := range s.runs {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(f)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// TestSortedHandOffMatchesAdd is the hand-off's contract: a producer that
// already holds its items in order — batches of exactly the budget, then a
// shorter residue — and gives them to SpillSorted and IterateSorted leaves
// the sorter where Add-ing the same items one by one would have: the same
// run files byte for byte, the same Items, Runs, SpilledItems and
// SpilledBytes (they are priced), the residue merged from memory rather
// than spilled as one more run, and the same merged stream.
func TestSortedHandOffMatchesAdd(t *testing.T) {
	byKey := func(a, b pair) int { return cmp.Compare(a.k, b.k) }
	rng := rand.New(rand.NewSource(4))
	for _, tc := range []struct{ n, budget int }{{0, 5}, {3, 5}, {5, 5}, {23, 5}, {1000, 64}, {1024, 64}} {
		items := make([]pair, tc.n)
		for i := range items {
			items[i] = pair{k: rng.Int63n(40), seq: int64(i)}
		}
		added := New(byKey, pairCodec{}, t.TempDir(), tc.budget)
		handed := New(byKey, pairCodec{}, t.TempDir(), 0)
		var residue []pair
		for at := 0; at < len(items); at += tc.budget {
			batch := slices.Clone(items[at:min(at+tc.budget, len(items))])
			for _, it := range batch {
				if err := added.Add(it); err != nil {
					t.Fatal(err)
				}
			}
			slices.SortStableFunc(batch, byKey)
			if len(batch) < tc.budget {
				residue = batch
			} else if err := handed.SpillSorted(sliceSource(batch)); err != nil {
				t.Fatal(err)
			}
		}
		wantRuns, gotRuns := runBytes(t, added), runBytes(t, handed)
		if len(gotRuns) != tc.n/tc.budget {
			t.Fatalf("n=%d budget=%d: %d runs handed off, want %d", tc.n, tc.budget, len(gotRuns), tc.n/tc.budget)
		}
		if !slices.EqualFunc(gotRuns, wantRuns, slices.Equal[[]byte]) {
			t.Errorf("n=%d budget=%d: handed-off run files differ from added ones", tc.n, tc.budget)
		}
		wantIt, err := added.Iterate()
		if err != nil {
			t.Fatal(err)
		}
		gotIt, err := handed.IterateSorted(len(residue), sliceSource(residue))
		if err != nil {
			t.Fatal(err)
		}
		if handed.Stats().Runs != len(gotRuns) {
			t.Errorf("n=%d budget=%d: the residue became run %d", tc.n, tc.budget, handed.Stats().Runs)
		}
		for i := 0; ; i++ {
			want, wok, werr := wantIt.Next()
			got, gok, gerr := gotIt.Next()
			if werr != nil || gerr != nil {
				t.Fatal(werr, gerr)
			}
			if want != got || wok != gok {
				t.Fatalf("n=%d budget=%d: item %d: handed off %+v/%v, added %+v/%v", tc.n, tc.budget, i, got, gok, want, wok)
			}
			if !wok {
				break
			}
		}
		if got, want := handed.Stats(), added.Stats(); got != want {
			t.Errorf("n=%d budget=%d: stats %+v, added %+v", tc.n, tc.budget, got, want)
		}
		wantIt.Close()
		gotIt.Close()
	}
}

// TestSpillReusesRunWriter: the 64 KiB run writer belongs to the sorter,
// not to the run — forty more runs cost a few hundred bytes each (the temp
// file's name and descriptor), nowhere near a buffer apiece.
func TestSpillReusesRunWriter(t *testing.T) {
	spillRuns := func(runs int) uint64 {
		s := New(cmpInt64, int64Codec{}, t.TempDir(), 4)
		defer s.Close()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 4*runs; i++ {
			if err := s.Add(int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if s.Stats().Runs != runs {
			t.Fatalf("%d runs, want %d", s.Stats().Runs, runs)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	spillRuns(1) // warm up
	perRun := float64(spillRuns(50)-spillRuns(10)) / 40
	t.Logf("%.0f bytes allocated per additional run", perRun)
	if perRun > 4096 {
		t.Errorf("each additional run allocated %.0f bytes, want well under a 64 KiB writer", perRun)
	}
}
