package distkey

import (
	"math/rand"
	"testing"

	"github.com/casm-project/casm/internal/cube"
)

func blockSchema(t testing.TB) *cube.Schema {
	t.Helper()
	return cube.MustSchema(
		cube.MustAttribute("k", cube.Nominal, 100,
			cube.Level{Name: "word", Span: 1},
			cube.Level{Name: "group", Span: 10},
		),
		cube.TimeAttribute("t", 4),
	)
}

func TestNewBlockMapperValidation(t *testing.T) {
	s := blockSchema(t)
	ti, _ := s.AttrIndex("t")
	ki, _ := s.AttrIndex("k")
	hourG := s.MustGrain(cube.GrainSpec{Attr: "t", Level: "hour"})
	plain := FromGrain(hourG)

	if _, err := NewBlockMapper(s, plain, 1); err != nil {
		t.Errorf("plain key rejected: %v", err)
	}
	if _, err := NewBlockMapper(s, plain, 0); err == nil {
		t.Error("cf=0 accepted")
	}
	if _, err := NewBlockMapper(s, plain, 5); err == nil {
		t.Error("cf>1 without annotation accepted")
	}
	ann := plain.Clone()
	ann.Anns[ti] = Ann{Low: -2, High: 0}
	if _, err := NewBlockMapper(s, ann, 5); err != nil {
		t.Errorf("annotated key rejected: %v", err)
	}
	nom := plain.Clone()
	nom.Grain[ki] = 0
	nom.Anns[ki] = Ann{Low: 0, High: 1}
	nom.Anns[ti] = Ann{}
	if _, err := NewBlockMapper(s, nom, 1); err == nil {
		t.Error("nominal annotation accepted")
	}
	short := Key{Grain: cube.Grain{0}, Anns: []Ann{{}}}
	if _, err := NewBlockMapper(s, short, 1); err == nil {
		t.Error("wrong arity accepted")
	}
}

func TestNonOverlappingSingleBlock(t *testing.T) {
	s := blockSchema(t)
	key := FromGrain(s.MustGrain(cube.GrainSpec{Attr: "k", Level: "group"}, cube.GrainSpec{Attr: "t", Level: "day"}))
	bm, err := NewBlockMapper(s, key, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		rec := cube.Record{rng.Int63n(100), rng.Int63n(4 * 86400)}
		var blocks []string
		bm.BlocksFor(rec, func(b string) { blocks = append(blocks, b) })
		if len(blocks) != 1 {
			t.Fatalf("non-overlapping emitted %d blocks", len(blocks))
		}
		if blocks[0] != bm.HomeBlock(rec) {
			t.Fatal("first block is not home block")
		}
		// Ownership of the record's own fine region must be the home block.
		r := s.RegionOf(rec, s.GrainFinest())
		if bm.Owner(r) != blocks[0] {
			t.Fatal("owner of record's region differs from home block")
		}
	}
	if bm.ReplicationFactor() != 1 {
		t.Errorf("replication = %v", bm.ReplicationFactor())
	}
	if got := bm.NumBlocks(); got != 10*4 {
		t.Errorf("NumBlocks = %d, want 40", got)
	}
}

// TestOverlapCoverageProperty is the core correctness property of
// overlapping distribution (Section III-B.2): for every record and every
// output key-coordinate c whose window [c+Low, c+High] includes the
// record's key coordinate, the block owning c must be among the blocks the
// record is dispatched to — otherwise some reducer could not compute its
// local results. Conversely no extra blocks may be emitted.
func TestOverlapCoverageProperty(t *testing.T) {
	s := blockSchema(t)
	ti, _ := s.AttrIndex("t")
	at := s.Attr(ti)
	hour, _ := at.LevelIndex("hour")
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 100; iter++ {
		low := rng.Int63n(7) - 6 // [-6, 0]
		high := low + rng.Int63n(6)
		if high > 0 {
			high = 0
		}
		if rng.Intn(3) == 0 {
			high = rng.Int63n(3) // sometimes forward windows
		}
		if low == 0 && high == 0 {
			low = -1 // keep the key genuinely overlapping
		}
		cf := int64(1 + rng.Intn(8))
		key := FromGrain(s.MustGrain(cube.GrainSpec{Attr: "k", Level: "group"}, cube.GrainSpec{Attr: "t", Level: "hour"}))
		key.Anns[ti] = Ann{Low: low, High: high}
		bm, err := NewBlockMapper(s, key, cf)
		if err != nil {
			t.Fatal(err)
		}
		card := at.CardAt(hour)
		for trial := 0; trial < 30; trial++ {
			rec := cube.Record{rng.Int63n(100), rng.Int63n(at.Card())}
			emitted := map[string]bool{}
			bm.BlocksFor(rec, func(b string) {
				if emitted[b] {
					t.Fatalf("duplicate block emitted")
				}
				emitted[b] = true
			})
			tc := at.Roll(rec[ti], hour)
			want := map[string]bool{}
			// Home block always wanted.
			want[bm.HomeBlock(rec)] = true
			for c := tc - high; c <= tc-low; c++ {
				if c < 0 || c >= card {
					continue
				}
				r := s.RegionOf(rec, key.Grain)
				r.Coord[ti] = c
				want[bm.Owner(r)] = true
			}
			if len(emitted) != len(want) {
				t.Fatalf("ann=(%d,%d) cf=%d: emitted %d blocks, want %d", low, high, cf, len(emitted), len(want))
			}
			for b := range want {
				if !emitted[b] {
					t.Fatalf("ann=(%d,%d) cf=%d: missing block for needed output", low, high, cf)
				}
			}
		}
	}
}

func TestClusteringReducesDuplication(t *testing.T) {
	// The motivation for the clustering factor (Section III-C): with
	// d = 9 and cf = 1, each record lands in ~10 blocks; with cf = 10,
	// in at most 2. Measure total emitted pairs over a dataset.
	s := blockSchema(t)
	ti, _ := s.AttrIndex("t")
	key := FromGrain(s.MustGrain(cube.GrainSpec{Attr: "t", Level: "minute"}))
	key.Anns[ti] = Ann{Low: -9, High: 0}
	count := func(cf int64) int {
		bm, err := NewBlockMapper(s, key, cf)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		total := 0
		for i := 0; i < 2000; i++ {
			rec := cube.Record{0, rng.Int63n(s.Attr(ti).Card())}
			bm.BlocksFor(rec, func(string) { total++ })
		}
		return total
	}
	c1, c10 := count(1), count(10)
	if c1 < 9*2000 {
		t.Errorf("cf=1 emitted %d pairs, expected near 10x input", c1)
	}
	if c10 > 2*2000+200 {
		t.Errorf("cf=10 emitted %d pairs, expected near 1.9x input", c10)
	}
	bm10, _ := NewBlockMapper(s, key, 10)
	if rf := bm10.ReplicationFactor(); rf != 1.9 {
		t.Errorf("replication factor = %v, want 1.9", rf)
	}
	bm1, _ := NewBlockMapper(s, key, 1)
	if rf := bm1.ReplicationFactor(); rf != 10 {
		t.Errorf("replication factor = %v, want 10", rf)
	}
}

func TestNumBlocksWithClustering(t *testing.T) {
	s := blockSchema(t)
	ti, _ := s.AttrIndex("t")
	key := FromGrain(s.MustGrain(cube.GrainSpec{Attr: "k", Level: "group"}, cube.GrainSpec{Attr: "t", Level: "day"}))
	key.Anns[ti] = Ann{Low: -1, High: 0}
	bm, err := NewBlockMapper(s, key, 3)
	if err != nil {
		t.Fatal(err)
	}
	// 10 keyword groups x ceil(4 days / 3) = 10 x 2 = 20.
	if got := bm.NumBlocks(); got != 20 {
		t.Errorf("NumBlocks = %d, want 20", got)
	}
}

func TestOwnerConsistentAcrossGrains(t *testing.T) {
	// A measure record's owner must not depend on the grain it is stated
	// at, as long as the grains are specializations of the key grain.
	s := blockSchema(t)
	ti, _ := s.AttrIndex("t")
	key := FromGrain(s.MustGrain(cube.GrainSpec{Attr: "k", Level: "group"}, cube.GrainSpec{Attr: "t", Level: "hour"}))
	key.Anns[ti] = Ann{Low: -2, High: 0}
	bm, err := NewBlockMapper(s, key, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	fine := s.GrainFinest()
	mid := s.MustGrain(cube.GrainSpec{Attr: "k", Level: "word"}, cube.GrainSpec{Attr: "t", Level: "minute"})
	for i := 0; i < 200; i++ {
		rec := cube.Record{rng.Int63n(100), rng.Int63n(4 * 86400)}
		o1 := bm.Owner(s.RegionOf(rec, fine))
		o2 := bm.Owner(s.RegionOf(rec, mid))
		o3 := bm.Owner(s.RegionOf(rec, key.Grain))
		if o1 != o2 || o2 != o3 {
			t.Fatalf("owner differs across grains")
		}
	}
}

// TestMultiAnnotationCoverageProperty extends the coverage property to
// keys with two annotated attributes (the mapper generalizes beyond the
// paper's single-annotation implementation): for every record and every
// output region whose windows cover it along *both* annotated attributes,
// the record must reach the block owning that region.
func TestMultiAnnotationCoverageProperty(t *testing.T) {
	s := cube.MustSchema(
		cube.MustAttribute("v", cube.Numeric, 60,
			cube.Level{Name: "value", Span: 1},
			cube.Level{Name: "band", Span: 6},
		),
		cube.TimeAttribute("t", 1),
	)
	vi, _ := s.AttrIndex("v")
	ti, _ := s.AttrIndex("t")
	hour, _ := s.Attr(ti).LevelIndex("hour")
	key := FromGrain(s.MustGrain(
		cube.GrainSpec{Attr: "v", Level: "band"},
		cube.GrainSpec{Attr: "t", Level: "hour"},
	))
	key.Anns[vi] = Ann{Low: -1, High: 1}
	key.Anns[ti] = Ann{Low: -3, High: 0}

	rng := rand.New(rand.NewSource(77))
	for _, cf := range []int64{1, 2, 4} {
		bm, err := NewBlockMapper(s, key, cf)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := bm.ReplicationFactor(), float64(2+cf)/float64(cf)*float64(3+cf)/float64(cf); got != want {
			t.Errorf("cf=%d replication = %v, want %v", cf, got, want)
		}
		vCard := s.Attr(vi).CardAt(key.Grain[vi])
		tCard := s.Attr(ti).CardAt(hour)
		for trial := 0; trial < 80; trial++ {
			rec := cube.Record{rng.Int63n(60), rng.Int63n(86400)}
			emitted := map[string]bool{}
			bm.BlocksFor(rec, func(b string) {
				if emitted[b] {
					t.Fatalf("duplicate block emitted")
				}
				emitted[b] = true
			})
			vc := s.Attr(vi).Roll(rec[vi], key.Grain[vi])
			tc := s.Attr(ti).Roll(rec[ti], hour)
			want := map[string]bool{bm.HomeBlock(rec): true}
			for cv := vc - 1; cv <= vc+1; cv++ {
				if cv < 0 || cv >= vCard {
					continue
				}
				for ct := tc; ct <= tc+3; ct++ {
					if ct < 0 || ct >= tCard {
						continue
					}
					r := s.RegionOf(rec, key.Grain)
					r.Coord[vi], r.Coord[ti] = cv, ct
					want[bm.Owner(r)] = true
				}
			}
			if len(emitted) != len(want) {
				t.Fatalf("cf=%d: emitted %d blocks, want %d", cf, len(emitted), len(want))
			}
			for b := range want {
				if !emitted[b] {
					t.Fatalf("cf=%d: missing block", cf)
				}
			}
		}
	}
	// NumBlocks: ceil(10/cf) bands x ceil(24/cf) hours.
	bm, _ := NewBlockMapper(s, key, 4)
	if got := bm.NumBlocks(); got != 3*6 {
		t.Errorf("NumBlocks = %d, want 18", got)
	}
}

// TestSessionMatchesPerCall pins the session refactor: a single Session
// reused across a whole record stream must produce exactly the key
// sequences of the allocating per-call forms, for plain, single- and
// multi-annotated keys, clustered or not — the intern cache and scratch
// reuse must never leak state between calls.
func TestSessionMatchesPerCall(t *testing.T) {
	s := blockSchema(t)
	ti, _ := s.AttrIndex("t")
	rng := rand.New(rand.NewSource(5))
	cases := []struct {
		name string
		ann  Ann
		cf   int64
	}{
		{"plain", Ann{}, 1},
		{"overlap", Ann{Low: -5, High: 1}, 1},
		{"overlap_clustered", Ann{Low: -9, High: 0}, 7},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			key := FromGrain(s.MustGrain(cube.GrainSpec{Attr: "k", Level: "group"}, cube.GrainSpec{Attr: "t", Level: "hour"}))
			key.Anns[ti] = c.ann
			bm, err := NewBlockMapper(s, key, c.cf)
			if err != nil {
				t.Fatal(err)
			}
			ss := bm.NewSession()
			distinct := map[string]bool{}
			var interns int64
			for i := 0; i < 500; i++ {
				rec := cube.Record{rng.Int63n(100), rng.Int63n(4 * 86400)}
				var want []string
				bm.BlocksFor(rec, func(b string) { want = append(want, b) })
				got := ss.Blocks(rec)
				if len(got) != len(want) {
					t.Fatalf("record %d: session emitted %d blocks, per-call %d", i, len(got), len(want))
				}
				for j := range got {
					if string(got[j]) != want[j] {
						t.Fatalf("record %d block %d: session %q, per-call %q", i, j, got[j], want[j])
					}
					distinct[string(got[j])] = true
				}
				interns += int64(len(got))
				if h, w := string(ss.HomeBlock(rec)), bm.HomeBlock(rec); h != w {
					t.Fatalf("record %d: session home %q, per-call %q", i, h, w)
				}
				interns++
				r := s.RegionOf(rec, key.Grain)
				if owner := []byte(bm.Owner(r)); !ss.Owns(r, owner) || ss.Owns(r, append(owner, 0)) {
					t.Fatalf("record %d: the session disowns owner %q or owns a longer key", i, owner)
				}
				if n := testing.AllocsPerRun(5, func() { ss.Owns(r, got[0]) }); n != 0 {
					t.Fatalf("record %d: Owns allocated %.0f times", i, n)
				}
			}
			// Accounting: misses happen exactly once per distinct key (no
			// cache overflow here), and the cache absorbs at least every
			// emitted key beyond first sight (Blocks interns the home block
			// once more than it emits, so hits can exceed emitted-minus-new).
			if ss.Misses != int64(len(distinct)) {
				t.Errorf("misses = %d, want one per distinct key %d", ss.Misses, len(distinct))
			}
			if ss.Hits < interns-ss.Misses-int64(len(distinct)) {
				t.Errorf("hits = %d, implausibly few for %d intern calls over %d keys", ss.Hits, interns, len(distinct))
			}
		})
	}
}

// TestSessionKeysStayValid pins the interning contract: key bytes
// returned by earlier Blocks calls must stay valid and byte-stable (the
// returned outer slice is reused, but the key bytes live in arena chunks
// that are never reallocated for the session's lifetime).
func TestSessionKeysStayValid(t *testing.T) {
	s := blockSchema(t)
	ti, _ := s.AttrIndex("t")
	key := FromGrain(s.MustGrain(cube.GrainSpec{Attr: "k", Level: "group"}, cube.GrainSpec{Attr: "t", Level: "hour"}))
	key.Anns[ti] = Ann{Low: -3, High: 0}
	bm, err := NewBlockMapper(s, key, 2)
	if err != nil {
		t.Fatal(err)
	}
	ss := bm.NewSession()
	rng := rand.New(rand.NewSource(6))
	recs := make([]cube.Record, 300)
	saved := make([][][]byte, len(recs))
	for i := range recs {
		recs[i] = cube.Record{rng.Int63n(100), rng.Int63n(4 * 86400)}
		saved[i] = append([][]byte(nil), ss.Blocks(recs[i])...)
	}
	for i, rec := range recs {
		var want []string
		bm.BlocksFor(rec, func(b string) { want = append(want, b) })
		for j := range want {
			if string(saved[i][j]) != want[j] {
				t.Fatalf("record %d block %d changed after later session use", i, j)
			}
		}
	}
}
