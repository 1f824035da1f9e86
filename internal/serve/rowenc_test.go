package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"net/http"
	"slices"
	"strings"
	"testing"

	"github.com/casm-project/casm/internal/core"
	"github.com/casm-project/casm/internal/cql"
	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/workload"
)

// reflectRow is a result row as encoding/json writes it: the reference
// the row encoder is held to, field for field the row struct the service
// encoded with before the encoder existed.
type reflectRow struct {
	Measure string  `json:"measure"`
	Region  string  `json:"region"`
	Coords  []int64 `json:"coords"`
	Value   float64 `json:"value"`
}

type reflectStreamRow struct {
	Type string `json:"type"`
	reflectRow
}

// sprintfRegion is the region rendering the encoder and
// cube.Schema.AppendRegion must both reproduce, written the fmt way.
func sprintfRegion(s *cube.Schema, r cube.Region) string {
	var parts []string
	for i, l := range r.Grain {
		if l == s.Attr(i).AllIndex() {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s=%d@%s", s.Attr(i).Name(), r.Coord[i], s.Attr(i).Level(l).Name))
	}
	if len(parts) == 0 {
		return "[ALL]"
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// reflectLine is what json.Encoder writes for the row: a stream line, or
// (stream false) a unary row list element.
func reflectLine(t *testing.T, s *cube.Schema, stream bool, measure string, r cube.Region, v float64) []byte {
	t.Helper()
	row := reflectRow{Measure: measure, Region: sprintfRegion(s, r), Coords: r.Coord, Value: v}
	if !stream {
		b, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(reflectStreamRow{"row", row}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzSchema is a two-attribute schema whose attribute and level names
// carry name, so the fuzzer reaches the escaping of every text piece.
func fuzzSchema(name string) *cube.Schema {
	mk := func(prefix string) *cube.Attribute {
		return cube.MustAttribute(prefix+name, cube.Numeric, 64,
			cube.Level{Name: "v" + name, Span: 1}, cube.Level{Name: "w" + name, Span: 8})
	}
	return cube.MustSchema(mk("a"), mk("b"))
}

// FuzzRowEncoding holds the row encoder to encoding/json: for any grain,
// coordinates, finite value and measure name, both row forms are
// byte-identical to the reflective encoding, and decoding the line gives
// back the coordinates and the value's bits. A non-finite value is the
// JSON string the package doc names.
func FuzzRowEncoding(f *testing.F) {
	f.Add([]byte{0, 1}, int64(3), 1.5, "hits")
	f.Fuzz(func(t *testing.T, grain []byte, coord int64, v float64, name string) {
		s := fuzzSchema(name)
		r := cube.Region{Grain: make(cube.Grain, s.NumAttrs())}
		for i := range r.Grain {
			r.Grain[i] = s.Attr(i).AllIndex()
			if i < len(grain) {
				r.Grain[i] = int(grain[i]) % s.Attr(i).NumLevels()
			}
		}
		if len(grain) > 0 {
			r.Coord = []int64{coord, int64(len(name)) * 977}
		}
		for _, stream := range []bool{false, true} {
			got := newRowEncoder(s, stream).appendRow([]byte("x"), name, r, v)[1:]
			if math.IsInf(v, 0) || math.IsNaN(v) {
				var back struct{ Value string }
				if err := json.Unmarshal(got, &back); err != nil {
					t.Fatalf("non-finite row is not JSON: %v\n%s", err, got)
				}
				want := "-Inf"
				if math.IsNaN(v) {
					want = "NaN"
				} else if v > 0 {
					want = "+Inf"
				}
				if back.Value != want {
					t.Fatalf("value %v written as %q", v, back.Value)
				}
				continue
			}
			if want := reflectLine(t, s, stream, name, r, v); !bytes.Equal(got, want) {
				t.Fatalf("stream=%v:\n got %s\nwant %s", stream, got, want)
			}
			var back reflectRow
			if err := json.Unmarshal(got, &back); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(back.Coords, r.Coord) || math.Float64bits(back.Value) != math.Float64bits(v) {
				t.Fatalf("decoded coords %v value %v, encoded %v %v", back.Coords, back.Value, r.Coord, v)
			}
		}
	})
}

func TestNonFiniteValues(t *testing.T) {
	ts, _ := newTestServer(t, core.ServiceConfig{})
	// SCALE by a 309-digit literal overflows float64 to +Inf wherever the
	// count is 2 or more; subtracting that from the count gives -Inf.
	huge := "17" + strings.Repeat("0", 307)
	src := `MEASURE hits = COUNT(*) AT (a1:value, t1:hour);
MEASURE big = SCALE(` + huge + `, hits) AT (a1:value, t1:hour);
MEASURE neg = SUB(hits, big) AT (a1:value, t1:hour);`

	resp, body := postCQL(t, ts.URL+"/query?dataset=events", src)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Rows     int64 `json:"rows"`
		Measures map[string][]struct {
			Value any `json:"value"`
		} `json:"measures"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("unary body is not JSON: %v\n%.200s", err, body)
	}
	var listed int64
	nonFinite := map[any]int64{}
	for _, rows := range out.Measures {
		listed += int64(len(rows))
		for _, r := range rows {
			if _, ok := r.Value.(float64); !ok {
				nonFinite[r.Value]++
			}
		}
	}
	if out.Rows == 0 || listed != out.Rows {
		t.Fatalf("unary: %d rows listed of %d", listed, out.Rows)
	}
	if nonFinite["+Inf"] == 0 || nonFinite["-Inf"] != nonFinite["+Inf"] || len(nonFinite) != 2 {
		t.Fatalf("unary non-finite values: %v", nonFinite)
	}

	resp, body = postCQL(t, ts.URL+"/query?dataset=events&stream=1", src)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d: %s", resp.StatusCode, body)
	}
	var rows, endRows int64
	streamNonFinite := map[any]int64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		var line struct {
			Type  string `json:"type"`
			Rows  int64  `json:"rows"`
			Value any    `json:"value"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line: %v\n%s", err, sc.Text())
		}
		switch line.Type {
		case "row":
			rows++
			if _, ok := line.Value.(float64); !ok {
				streamNonFinite[line.Value]++
			}
		case "end":
			endRows = line.Rows
		}
	}
	if rows != out.Rows || endRows != rows {
		t.Fatalf("stream: %d row lines, end line %d, unary %d", rows, endRows, out.Rows)
	}
	if !maps.Equal(streamNonFinite, nonFinite) {
		t.Fatalf("stream non-finite values %v, unary %v", streamNonFinite, nonFinite)
	}
}

// TestRowsMatchEncodingJSON holds whole responses of a query with
// fractional values to the reflective encoding: every stream row line,
// and the unary body from its "measures" member on.
func TestRowsMatchEncodingJSON(t *testing.T) {
	ts, svc := newTestServer(t, core.ServiceConfig{})
	su := workload.NewSuite()
	src := cql.Format(su.Q6())

	_, body := postCQL(t, ts.URL+"/query?dataset=events&stream=1", src)
	var rows int
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := append(sc.Bytes(), '\n')
		if !bytes.HasPrefix(line, []byte(`{"type":"row"`)) {
			continue
		}
		rows++
		var row reflectStreamRow
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(row); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line, want.Bytes()) {
			t.Fatalf("stream row\n got %s\nwant %s", line, want.Bytes())
		}
	}
	if rows == 0 {
		t.Fatal("no stream rows")
	}

	for _, limit := range []string{"", "&limit=2"} {
		_, body := postCQL(t, ts.URL+"/query?dataset=events"+limit, src)
		q, err := cql.Parse(su.Schema, src)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := svc.Evaluate(context.Background(), "default", "events", q)
		if err != nil {
			t.Fatal(err)
		}
		var want struct {
			Measures  map[string][]reflectRow `json:"measures"`
			Truncated bool                    `json:"truncated,omitempty"`
		}
		want.Measures = map[string][]reflectRow{}
		for name, ms := range res.Measures {
			list := []reflectRow{}
			for i, m := range ms {
				if limit != "" && i == 2 {
					want.Truncated = true
					break
				}
				list = append(list, reflectRow{name, sprintfRegion(su.Schema, m.Region), m.Region.Coord, m.Value})
			}
			want.Measures[name] = list
		}
		wb, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		i := bytes.Index(body, []byte(`,"measures":`))
		if i < 0 {
			t.Fatalf("no measures member: %.200s", body)
		}
		if got := body[i+1:]; !bytes.Equal(got, append(wb[1:], '\n')) {
			t.Fatalf("unary%s body differs from encoding/json:\n got %.300s\nwant %.300s", limit, got, wb[1:])
		}
	}
}
