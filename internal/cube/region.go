package cube

import (
	"encoding/binary"
	"fmt"
	"strconv"
)

// Region is a hyper-rectangle of cube space: a grain plus one coordinate
// per attribute at that grain's level. A record is contained in a region
// iff rolling the record up to the region's grain yields the region's
// coordinates.
type Region struct {
	Grain Grain
	Coord []int64
}

// RegionOf returns the region of grain g that contains rec.
func (s *Schema) RegionOf(rec Record, g Grain) Region {
	coord := make([]int64, len(g))
	for i, li := range g {
		coord[i] = s.attrs[i].Roll(rec[i], li)
	}
	return Region{Grain: g, Coord: coord}
}

// CoordOf fills dst (which must have schema arity) with the coordinates of
// rec at grain g, avoiding allocation on hot paths.
func (s *Schema) CoordOf(rec Record, g Grain, dst []int64) {
	for i, li := range g {
		dst[i] = s.attrs[i].Roll(rec[i], li)
	}
}

// Contains reports whether rec lies inside region r.
func (s *Schema) Contains(r Region, rec Record) bool {
	for i, li := range r.Grain {
		if s.attrs[i].Roll(rec[i], li) != r.Coord[i] {
			return false
		}
	}
	return true
}

// ParentRegion returns the region of the (coarser or equal) grain parent
// that contains r. It panics if parent is not a generalization of r.Grain.
func (s *Schema) ParentRegion(r Region, parent Grain) Region {
	if !parent.GeneralizationOf(r.Grain) {
		panic(fmt.Sprintf("cube: %v is not a generalization of %v", parent, r.Grain))
	}
	coord := make([]int64, len(parent))
	for i := range parent {
		coord[i] = s.attrs[i].RollBetween(r.Coord[i], r.Grain[i], parent[i])
	}
	return Region{Grain: parent, Coord: coord}
}

// ContainsRegion reports whether every record contained in child is also
// contained in r (child/parent relationship of Section II). This requires
// r's grain to be a generalization of child's grain and the rolled-up
// coordinates to match.
func (s *Schema) ContainsRegion(r, child Region) bool {
	if !r.Grain.GeneralizationOf(child.Grain) {
		return false
	}
	for i := range r.Grain {
		if s.attrs[i].RollBetween(child.Coord[i], child.Grain[i], r.Grain[i]) != r.Coord[i] {
			return false
		}
	}
	return true
}

// AppendCoords appends the compact varint encoding of coord to dst and
// returns the extended slice. It is the allocation-free (append-style)
// form of EncodeCoords: hot paths encode into a reused scratch buffer and
// use the string([]byte) map-lookup optimization to avoid materializing a
// string per record.
func AppendCoords(dst []byte, coord []int64) []byte {
	for _, c := range coord {
		dst = binary.AppendUvarint(dst, uint64(c))
	}
	return dst
}

// EncodeCoords packs coordinates into a compact string usable as a map
// key. Coordinates are non-negative, so varint encoding is unambiguous.
func EncodeCoords(coord []int64) string {
	return string(AppendCoords(make([]byte, 0, len(coord)*3), coord))
}

// DecodeCoords reverses EncodeCoords given the expected arity.
func DecodeCoords(key string, arity int) ([]int64, error) {
	coord := make([]int64, arity)
	if err := DecodeCoordsInto([]byte(key), coord); err != nil {
		return nil, err
	}
	return coord, nil
}

// DecodeCoordsInto decodes an encoded coordinate key into coord (whose
// length is the expected arity) without allocating: the byte-slice form
// for hot paths that hold encoded keys as []byte and reuse the
// destination.
func DecodeCoordsInto(b []byte, coord []int64) error {
	for i := range coord {
		if len(b) > 0 && b[0] < 0x80 {
			coord[i], b = int64(b[0]), b[1:]
			continue
		}
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("cube: truncated coordinate key at position %d", i)
		}
		coord[i] = int64(v)
		b = b[n:]
	}
	if len(b) != 0 {
		return fmt.Errorf("cube: %d trailing bytes in coordinate key", len(b))
	}
	return nil
}

// Key returns a compact map key unique among regions of the same grain.
func (r Region) Key() string { return EncodeCoords(r.Coord) }

// FormatRegion renders a region in a readable [attr=coord@level, ...]
// form, omitting ALL attributes.
func (s *Schema) FormatRegion(r Region) string { return string(s.AppendRegion(nil, r)) }

// AppendRegion appends FormatRegion's rendering of r to dst and returns
// the extended slice: the allocation-free form for per-row printing.
func (s *Schema) AppendRegion(dst []byte, r Region) []byte {
	dst = append(dst, '[')
	first := true
	for i, li := range r.Grain {
		a := s.attrs[i]
		if li == a.AllIndex() {
			continue
		}
		if !first {
			dst = append(dst, ", "...)
		}
		first = false
		dst = append(dst, a.Name()...)
		dst = append(dst, '=')
		dst = strconv.AppendInt(dst, r.Coord[i], 10)
		dst = append(dst, '@')
		dst = append(dst, a.Level(li).Name...)
	}
	if first {
		dst = append(dst, "ALL"...)
	}
	return append(dst, ']')
}
