package distkey

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/workload"
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
	ss := bm.NewSession()
	for i := 0; i < 200; i++ {
		rec := cube.Record{rng.Int63n(100), rng.Int63n(4 * 86400)}
		blocks := ss.Blocks(rec)
		if len(blocks) != 1 {
			t.Fatalf("non-overlapping emitted %d blocks", len(blocks))
		}
		// Ownership of the record's own fine region must be the home block.
		r := s.RegionOf(rec, s.GrainFinest())
		if bm.Owner(r) != string(blocks[0]) {
			t.Fatal("owner of record's region differs from home block")
		}
	}
	if bm.ReplicationFactor() != 1 {
		t.Errorf("replication = %v", bm.ReplicationFactor())
	}
	if got, ok := bm.NumBlocks(); !ok || got != 10*4 {
		t.Errorf("NumBlocks = %d, %v, want 40", got, ok)
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
		ss := bm.NewSession()
		for trial := 0; trial < 30; trial++ {
			rec := cube.Record{rng.Int63n(100), rng.Int63n(at.Card())}
			emitted := emittedBlocks(t, ss, s, rec, key)
			tc := at.Roll(rec[ti], hour)
			want := map[string]bool{}
			// Home block always wanted.
			want[bm.Owner(s.RegionOf(rec, key.Grain))] = true
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
		ss := bm.NewSession()
		total := 0
		for i := 0; i < 2000; i++ {
			rec := cube.Record{0, rng.Int63n(s.Attr(ti).Card())}
			total += len(ss.Blocks(rec))
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
	if got, ok := bm.NumBlocks(); !ok || got != 20 {
		t.Errorf("NumBlocks = %d, %v, want 20", got, ok)
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
		ss := bm.NewSession()
		for trial := 0; trial < 80; trial++ {
			rec := cube.Record{rng.Int63n(60), rng.Int63n(86400)}
			emitted := emittedBlocks(t, ss, s, rec, key)
			vc := s.Attr(vi).Roll(rec[vi], key.Grain[vi])
			tc := s.Attr(ti).Roll(rec[ti], hour)
			want := map[string]bool{bm.Owner(s.RegionOf(rec, key.Grain)): true}
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
	if got, ok := bm.NumBlocks(); !ok || got != 3*6 {
		t.Errorf("NumBlocks = %d, %v, want 18", got, ok)
	}
}

// emittedBlocks is the set of ss.Blocks(rec), which must hold no block
// twice and start with the home block: the one owning rec's region at the
// key's grain.
func emittedBlocks(t *testing.T, ss *Session, s *cube.Schema, rec cube.Record, key Key) map[string]bool {
	t.Helper()
	emitted := map[string]bool{}
	blocks := ss.Blocks(rec)
	for _, b := range blocks {
		if emitted[string(b)] {
			t.Fatalf("duplicate block emitted")
		}
		emitted[string(b)] = true
	}
	if home := ss.bm.Owner(s.RegionOf(rec, key.Grain)); string(blocks[0]) != home {
		t.Fatalf("first block %q is not the home block %q", blocks[0], home)
	}
	return emitted
}

// TestSessionMatchesPerCall pins the session refactor: a single Session
// reused across a whole record stream must produce exactly the key
// sequences of a fresh session per record, for plain, single- and
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
			interned := map[string]*byte{}
			for i := 0; i < 500; i++ {
				rec := cube.Record{rng.Int63n(100), rng.Int63n(4 * 86400)}
				want := bm.NewSession().Blocks(rec)
				got := ss.Blocks(rec)
				if len(got) != len(want) {
					t.Fatalf("record %d: session emitted %d blocks, per-call %d", i, len(got), len(want))
				}
				for j := range got {
					if string(got[j]) != string(want[j]) {
						t.Fatalf("record %d block %d: session %q, per-call %q", i, j, got[j], want[j])
					}
					// A key is encoded once per session: every later Blocks
					// hands out the same bytes.
					if p, ok := interned[string(got[j])]; ok && p != &got[j][0] {
						t.Fatalf("record %d block %d: key %q interned twice", i, j, got[j])
					}
					interned[string(got[j])] = &got[j][0]
				}
				// The owner owns the record's region. Under an overlapping
				// key no other block the record went to does, nor a longer
				// key; under a plain key the record went to its owner alone.
				r := s.RegionOf(rec, key.Grain)
				owner := []byte(bm.Owner(r))
				if !ss.Owns(r, owner) || key.IsOverlapping() && ss.Owns(r, append(owner, 0)) {
					t.Fatalf("record %d: the session disowns owner %q or owns a longer key", i, owner)
				}
				for _, b := range got {
					if ss.Owns(r, b) != (string(b) == string(owner)) {
						t.Fatalf("record %d: block %q owns the region: %v, owner %q", i, b, ss.Owns(r, b), owner)
					}
				}
				if n := testing.AllocsPerRun(5, func() { ss.Owns(r, got[0]) }); n != 0 {
					t.Fatalf("record %d: Owns allocated %.0f times", i, n)
				}
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
		want := bm.NewSession().Blocks(rec)
		for j := range want {
			if string(saved[i][j]) != string(want[j]) {
				t.Fatalf("record %d block %d changed after later session use", i, j)
			}
		}
	}
}

// TestWalkMatchesBlocks: Walk over a batch of records numbers, record by
// record and in order, the blocks Blocks returns for each, and
// AppendBlockKey and Key turn each ordinal back into exactly Blocks' key,
// over plain and overlapping keys, a clustering factor that does not
// divide the level's cardinality, and a forced key annotated on two
// attributes. Ordinals stay below NumBlocks and name one block each.
func TestWalkMatchesBlocks(t *testing.T) {
	s := blockSchema(t)
	multi := cube.MustSchema(
		cube.MustAttribute("v", cube.Numeric, 60, cube.Level{Name: "value", Span: 1}, cube.Level{Name: "band", Span: 6}),
		cube.TimeAttribute("t", 1),
	)
	keyOf := func(s *cube.Schema, specs []cube.GrainSpec, anns ...Ann) Key {
		k := FromGrain(s.MustGrain(specs...))
		copy(k.Anns, anns)
		return k
	}
	groupHour := []cube.GrainSpec{{Attr: "k", Level: "group"}, {Attr: "t", Level: "hour"}}
	cases := []struct {
		name string
		s    *cube.Schema
		key  Key
		cf   int64
	}{
		{"plain", s, keyOf(s, groupHour), 1},
		{"plain_finest", s, FromGrain(s.GrainFinest()), 1},
		{"overlap", s, keyOf(s, groupHour, Ann{}, Ann{Low: -5, High: 1}), 1},
		{"overlap_cf7_of_96_hours", s, keyOf(s, groupHour, Ann{}, Ann{Low: -9, High: 0}), 7},
		{"multi_annotated", multi, keyOf(multi, []cube.GrainSpec{{Attr: "v", Level: "band"}, {Attr: "t", Level: "hour"}},
			Ann{Low: -1, High: 1}, Ann{Low: -3, High: 0}), 4},
	}
	rng := rand.New(rand.NewSource(8))
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bm, err := NewBlockMapper(c.s, c.key, c.cf)
			if err != nil {
				t.Fatal(err)
			}
			n, ok := bm.NumBlocks()
			if !ok {
				t.Fatal("block space does not fit")
			}
			byKey, byOrd := bm.NewSession(), bm.NewSession()
			names := map[uint64]string{}
			checkOrds := func(rec cube.Record, keys [][]byte, ords []uint64) {
				for j, o := range ords {
					if got := bm.AppendBlockKey(nil, o); string(got) != string(keys[j]) {
						t.Fatalf("record %v block %d: ordinal %d decodes to %x, Blocks has %x", rec, j, o, got, keys[j])
					}
					if got := byOrd.Key(o); string(got) != string(keys[j]) {
						t.Fatalf("record %v block %d: Key(%d) is %x, Blocks has %x", rec, j, o, got, keys[j])
					}
					if o >= n {
						t.Fatalf("ordinal %d of %d blocks", o, n)
					}
					if prev, seen := names[o]; seen && prev != string(keys[j]) {
						t.Fatalf("ordinal %d names %x and %x", o, prev, keys[j])
					}
					names[o] = string(keys[j])
				}
				if home := bm.Owner(c.s.RegionOf(rec, c.key.Grain)); string(keys[0]) != home {
					t.Fatalf("record %v: first block %x, home %x", rec, keys[0], home)
				}
			}
			// Batches of every size up to a store decoder's and past it.
			for _, size := range []int{1, 2, 1023, 1024, 1500} {
				cols := make([][]int64, c.s.NumAttrs())
				for a := range cols {
					cols[a] = make([]int64, size)
					for i := range cols[a] {
						cols[a][i] = rng.Int63n(c.s.Attr(a).Card())
					}
				}
				ords, rows := byOrd.Walk(cols)
				for i := 0; i < size; i++ {
					rec := make(cube.Record, len(cols))
					for a := range rec {
						rec[a] = cols[a][i]
					}
					keys := byKey.Blocks(rec)
					n0 := len(keys)
					if len(rows) < n0 || slices.ContainsFunc(rows[:n0], func(r int32) bool { return r != int32(i) }) ||
						(len(rows) > n0 && rows[n0] == int32(i)) {
						t.Fatalf("record %d of %d: %d blocks, Walk pairs %v", i, size, n0, rows[:min(len(rows), n0+1)])
					}
					checkOrds(rec, keys, ords[:n0])
					ords, rows = ords[n0:], rows[n0:]
				}
				if len(ords) != 0 {
					t.Fatalf("%d pairs past the batch's records", len(ords))
				}
			}
			if c.key.IsOverlapping() && len(names) < 2 {
				t.Fatalf("only %d distinct blocks", len(names))
			}
		})
	}
}

// TestNumBlocksOverflow pins the 64-bit fit: the finest key over the
// benchmark suite's six attributes has 256⁴ · (20·86 400)² ≈ 1.28·10²²
// blocks, which NumBlocks reports as not fitting (an unchecked product
// wraps to 4 216 495 151 125 626 880), so Walk numbers such a plan's
// blocks as it meets them, and Key still returns each block's key;
// dropping one time attribute leaves 256⁴ · 1 728 000 blocks, which fit
// exactly.
func TestNumBlocksOverflow(t *testing.T) {
	s := workload.NewSuite().Schema
	wide, err := NewBlockMapper(s, FromGrain(s.GrainFinest()), 1)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := wide.NumBlocks(); ok {
		t.Fatalf("NumBlocks = %d, fits; want an overflow", n)
	}
	t2, _ := s.AttrIndex("t2")
	narrow := FromGrain(s.GrainFinest())
	narrow.Grain[t2] = s.Attr(t2).AllIndex()
	bm, err := NewBlockMapper(s, narrow, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := bm.NumBlocks(); !ok || n != 1<<32*1_728_000 {
		t.Errorf("NumBlocks = %d, %v, want %d", n, ok, uint64(1<<32*1_728_000))
	}
	ss := wide.NewSession()
	cols := make([][]int64, s.NumAttrs())
	for a := range cols {
		cols[a] = []int64{1, 2, 1}
	}
	ords, rows := ss.Walk(cols)
	if !slices.Equal(ords, []uint64{0, 1, 0}) || !slices.Equal(rows, []int32{0, 1, 2}) {
		t.Fatalf("Walk numbered the blocks %v for records %v, want [0 1 0]", ords, rows)
	}
	for i, o := range ords {
		rec := make(cube.Record, s.NumAttrs())
		for a := range rec {
			rec[a] = cols[a][i]
		}
		if got, want := ss.Key(o), wide.NewSession().Blocks(rec)[0]; string(got) != string(want) {
			t.Errorf("record %d: Key %x, Blocks %x", i, got, want)
		}
	}
}

// TestReleasedSessionServesAnyMapper: a session released by a task of one
// mapper — here one that numbers blocks on first sight, over the suite's
// schema — serves the next mapper, of another arity, annotated and tagged,
// exactly as a session of its own does, and the keys the first task was
// handed stay as they were.
func TestReleasedSessionServesAnyMapper(t *testing.T) {
	su := workload.NewSuite()
	wide, err := NewBlockMapper(su.Schema, FromGrain(su.Schema.GrainFinest()), 1)
	if err != nil {
		t.Fatal(err)
	}
	s := blockSchema(t)
	ti, _ := s.AttrIndex("t")
	key := FromGrain(s.MustGrain(cube.GrainSpec{Attr: "t", Level: "hour"}))
	key.Anns[ti] = Ann{Low: -2, High: 0}
	bm, err := NewBlockMapper(s, key, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	first := wide.NewSession()
	var handed [][]byte
	var kept []string
	for _, rec := range su.Generate(50, workload.Uniform, 5) {
		for _, k := range first.Blocks(rec) {
			handed, kept = append(handed, k), append(kept, string(k))
		}
	}
	first.Release()
	reused := bm.NewSession()
	if reused != first {
		t.Fatal("NewSession did not take the released session")
	}
	reused.Prefix([]byte{7})
	own := bm.NewSession()
	own.Prefix([]byte{7})
	for range 200 {
		rec := cube.Record{rng.Int63n(100), rng.Int63n(4 * 86400)}
		got, want := reused.Blocks(rec), own.Blocks(rec)
		if len(got) != len(want) {
			t.Fatalf("record %v: %d blocks, a session of its own has %d", rec, len(got), len(want))
		}
		for i := range got {
			if string(got[i]) != string(want[i]) {
				t.Fatalf("record %v block %d: %x, a session of its own has %x", rec, i, got[i], want[i])
			}
		}
	}
	reused.Release()
	own.Release()
	for i, k := range handed {
		if string(k) != kept[i] {
			t.Fatalf("key %d handed out before the release changed: %x, was %x", i, k, kept[i])
		}
	}
}
