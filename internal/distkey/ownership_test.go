package distkey

import (
	"math/rand"
	"testing"

	"github.com/casm-project/casm/internal/cube"
)

// ownershipSchema mixes every kind of attribute a key can roll: a numeric
// one with fixed spans, a nominal one, a mapped (irregular) one and a time
// one whose second-level coordinates take three-byte uvarints.
func ownershipSchema() *cube.Schema {
	assign := make([]int64, 12)
	for v := range assign {
		assign[v] = int64(v*v) % 5
	}
	return cube.MustSchema(
		cube.MustAttribute("v", cube.Numeric, 60, cube.Level{Name: "value", Span: 1}, cube.Level{Name: "band", Span: 6}),
		cube.MustAttribute("k", cube.Nominal, 100, cube.Level{Name: "word", Span: 1}, cube.Level{Name: "group", Span: 10}),
		cube.MustMappedAttribute("p", 12, cube.MappedLevel{Name: "cat", Assign: assign}),
		cube.TimeAttribute("t", 2),
	)
}

// randomGrain returns a grain at least as fine as g: a level at or below
// g's for every attribute.
func randomGrain(rng *rand.Rand, g cube.Grain) cube.Grain {
	out := g.Clone()
	for x, level := range g {
		out[x] = rng.Intn(level + 1)
	}
	return out
}

func randomRecord(rng *rand.Rand, s *cube.Schema) cube.Record {
	rec := make(cube.Record, s.NumAttrs())
	for x := range rec {
		rec[x] = rng.Int63n(s.Attr(x).Card())
	}
	return rec
}

// TestUnannotatedKeysOwnWhatTheyCompute is the argument the ownership
// filter's skip rests on: under a key with no annotation every record goes
// to one block, its home, and every region the record yields, at any
// grain the key generalizes, has that block as its owner — so a block
// owns every result its records produce, and Session.Owns need not
// encode an owner to say so.
func TestUnannotatedKeysOwnWhatTheyCompute(t *testing.T) {
	s := ownershipSchema()
	rng := rand.New(rand.NewSource(11))
	for k := 0; k < 200; k++ {
		key := FromGrain(randomGrain(rng, s.GrainAll()))
		bm, err := NewBlockMapper(s, key, 1)
		if err != nil {
			t.Fatal(err)
		}
		ss := bm.NewSession()
		for i := 0; i < 20; i++ {
			rec := randomRecord(rng, s)
			blocks := ss.Blocks(rec)
			if len(blocks) != 1 {
				t.Fatalf("key %s: record %v went to %d blocks", key.Format(s), rec, len(blocks))
			}
			for j := 0; j < 10; j++ {
				g := randomGrain(rng, key.Grain)
				r := s.RegionOf(rec, g)
				if owner := bm.Owner(r); owner != string(blocks[0]) || !ss.Owns(r, blocks[0]) {
					t.Fatalf("key %s: record %v's region at grain %v is owned by %x, its block is %x",
						key.Format(s), rec, g, owner, blocks[0])
				}
			}
		}
	}
}

// TestOwnsMatchesOwner holds the ownership filter to BlockMapper.Owner
// under random annotated keys and clustering factors: for random regions
// at grains the key generalizes, Owns agrees with
// Owner on the owner's own block, on every block one coordinate away from
// it along any attribute, and on the blocks the region's record was
// dispatched to.
func TestOwnsMatchesOwner(t *testing.T) {
	s := ownershipSchema()
	v, _ := s.AttrIndex("v")
	ti, _ := s.AttrIndex("t")
	rng := rand.New(rand.NewSource(12))
	for k := 0; k < 200; k++ {
		key := FromGrain(randomGrain(rng, s.GrainAll()))
		for _, x := range []int{v, ti} {
			if key.Grain[x] == s.Attr(x).AllIndex() {
				key.Grain[x] = rng.Intn(s.Attr(x).AllIndex())
			}
		}
		key.Anns[ti] = Ann{Low: -1 - rng.Int63n(3), High: rng.Int63n(2)}
		if rng.Intn(2) == 0 {
			key.Anns[v] = Ann{Low: -rng.Int63n(2), High: 1 + rng.Int63n(2)}
		}
		cf := 1 + rng.Int63n(4)
		bm, err := NewBlockMapper(s, key, cf)
		if err != nil {
			t.Fatal(err)
		}
		ss := bm.NewSession()
		for i := 0; i < 20; i++ {
			rec := randomRecord(rng, s)
			r := s.RegionOf(rec, randomGrain(rng, key.Grain))
			owner := bm.Owner(r)
			coord, err := cube.DecodeCoords(owner, s.NumAttrs())
			if err != nil {
				t.Fatal(err)
			}
			candidates := []string{owner}
			for x := range coord {
				n := s.Attr(x).CardAt(key.Grain[x]) // the blocks along x
				if !key.Anns[x].IsZero() {
					n = (n + cf - 1) / cf
				}
				for _, d := range []int64{-1, 1} {
					if c := coord[x] + d; c >= 0 && c < n {
						near := append([]int64(nil), coord...)
						near[x] = c
						candidates = append(candidates, cube.EncodeCoords(near))
					}
				}
			}
			for _, b := range ss.Blocks(rec) {
				candidates = append(candidates, string(b))
			}
			for _, b := range candidates {
				if got, want := ss.Owns(r, []byte(b)), b == owner; got != want {
					t.Fatalf("key %s cf=%d: region %v at grain %v, block %x: Owns = %v, owner is %x",
						key.Format(s), cf, r.Coord, r.Grain, b, got, owner)
				}
			}
		}
	}
}
