package serve

import (
	"encoding/json"
	"math"
	"strconv"

	"github.com/casm-project/casm/internal/cube"
)

// rowEncoder appends result rows in their wire form — the JSON object
// {"measure","region","coords","value"}, with "type":"row" first and a
// newline after it on an NDJSON stream — without reflection or a string
// per row. Everything that is text in a row is JSON-escaped once per
// request: each measure's line head, and each (attribute, level)'s
// "name=" and "@level" pieces of the region. A row then costs two appends
// per non-ALL attribute, its integers and its value. For a finite value
// the bytes are exactly what encoding/json writes for the same object.
type rowEncoder struct {
	stream bool
	// heads maps a measure name to its row's opening bytes, up to the
	// region string's opening quote.
	heads map[string][]byte
	// labels[i][l] holds attribute i's escaped "name=" and "@level" for
	// level l (its ALL level is never rendered).
	labels [][]regionLabel
}

type regionLabel struct{ name, level []byte }

func newRowEncoder(schema *cube.Schema, stream bool) *rowEncoder {
	e := &rowEncoder{stream: stream, heads: map[string][]byte{}}
	e.labels = make([][]regionLabel, schema.NumAttrs())
	for i := range e.labels {
		a := schema.Attr(i)
		e.labels[i] = make([]regionLabel, a.AllIndex())
		for l := range e.labels[i] {
			e.labels[i][l] = regionLabel{
				name:  appendEscaped(nil, a.Name()+"="),
				level: appendEscaped(nil, "@"+a.Level(l).Name),
			}
		}
	}
	return e
}

// appendEscaped appends s JSON-escaped as encoding/json escapes it (HTML
// characters, U+2028 and U+2029 included), without the quotes. Escaping
// is per character, so the escape of a concatenation is the
// concatenation of the escapes wherever the pieces meet at an ASCII byte,
// as every piece of a row does.
func appendEscaped(dst []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always marshals
	return append(dst, q[1:len(q)-1]...)
}

// head returns the row opening for a measure: `{"type":"row",` on a
// stream, then `"measure":<name>,"region":"`.
func (e *rowEncoder) head(measure string) []byte {
	if h, ok := e.heads[measure]; ok {
		return h
	}
	var h []byte
	if e.stream {
		h = append(h, `{"type":"row",`...)
	} else {
		h = append(h, '{')
	}
	h = append(h, `"measure":"`...)
	h = appendEscaped(h, measure)
	h = append(h, `","region":"`...)
	e.heads[measure] = h
	return h
}

// appendRow appends one row; a stream row ends in a newline.
func (e *rowEncoder) appendRow(dst []byte, measure string, r cube.Region, v float64) []byte {
	dst = append(dst, e.head(measure)...)
	dst = append(dst, '[')
	first := true
	for i, l := range r.Grain {
		if l >= len(e.labels[i]) {
			continue // ALL
		}
		if !first {
			dst = append(dst, ", "...)
		}
		first = false
		dst = append(dst, e.labels[i][l].name...)
		dst = strconv.AppendInt(dst, r.Coord[i], 10)
		dst = append(dst, e.labels[i][l].level...)
	}
	if first {
		dst = append(dst, "ALL"...)
	}
	dst = append(dst, `]","coords":`...)
	if r.Coord == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, c := range r.Coord {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, c, 10)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"value":`...)
	dst = appendValue(dst, v)
	dst = append(dst, '}')
	if e.stream {
		dst = append(dst, '\n')
	}
	return dst
}

// appendValue appends a measure value as encoding/json formats a
// float64 — shortest 'f' form, or 'e' form below 1e-6 and from 1e21 on,
// with a two-digit negative exponent shortened (e-07 → e-7) — and a
// non-finite one, which encoding/json rejects, as the JSON string
// "+Inf", "-Inf" or "NaN".
func appendValue(dst []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(dst, `"+Inf"`...)
	case math.IsInf(v, -1):
		return append(dst, `"-Inf"`...)
	case math.IsNaN(v):
		return append(dst, `"NaN"`...)
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
