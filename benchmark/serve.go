package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/casm-project/casm/internal/core"
	"github.com/casm-project/casm/internal/cql"
	"github.com/casm-project/casm/internal/serve"
	"github.com/casm-project/casm/internal/workload"
)

// Request classes of serve_mixed and their shares of the schedule.
const (
	classWarm   = "warm"   // repeat of the hot set: whole-query manifest hit
	classCold   = "cold"   // structurally fresh query: cold scan + cache fill
	classStream = "stream" // ?stream=1 NDJSON of Q3
	warmShare   = 0.30
	coldShare   = 0.50
	dataset     = "bench"
	// resultCacheBytes bounds the service's result cache below what one
	// window's fresh queries materialize (≈ 60 MB), so the cache reaches
	// its steady state — full, evicting, the hot set kept by recency —
	// within the first seconds instead of growing for the whole run.
	resultCacheBytes = 16 << 20
)

// freshFamilies are the structural shapes of the fresh queries: window
// width in hours and the a1 level. A request's query is one family plus a
// SCALE constant no earlier request used, so its fingerprint is new to
// the service while its reference is the family's with one measure
// scaled.
var freshFamilies = []struct {
	back  int
	level string
}{
	{1, "high"}, {2, "mid"}, {3, "high"}, {5, "mid"}, {8, "high"}, {11, "mid"},
}

func freshText(family int, k int64) string {
	f := freshFamilies[family]
	return fmt.Sprintf(`MEASURE fb = SUM(a2) AT (a1:%[1]s, t1:hour);
MEASURE fw = WINDOW SUM(fb) OVER t1(-%[2]d, 0) AT (a1:%[1]s, t1:hour);
MEASURE fs = SCALE(%[3]d, fw) AT (a1:%[1]s, t1:hour);
`, f.level, f.back, k)
}

// setupServe stands up the real serving stack: core.Service with its
// owned decision and result caches over a block store, behind the serve
// handlers on a loopback listener.
func setupServe(e *env, sz sizes, dir string) (*instance, error) {
	su := e.suite
	inst := &instance{clients: e.clients, cycle: 1}
	inst.records = su.Generate(sz.serve, workload.Uniform, e.seed)
	st, err := e.openStore(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	inst.store = st
	if err := workload.WriteStore(st, dataFile, su.Schema, inst.records); err != nil {
		st.Close()
		return nil, err
	}
	svc, err := core.NewService(core.ServiceConfig{
		Engine:           core.Config{NumReducers: numReducers, TempDir: dir, Seed: e.seed},
		Store:            st,
		ResultCacheBytes: resultCacheBytes,
	})
	if err != nil {
		st.Close()
		return nil, err
	}
	inst.service = svc.Stats
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err == nil {
		err = svc.RegisterStore(dataset, su.Schema, nil, dataFile)
	}
	if err != nil {
		svc.Drain(context.Background())
		st.Close()
		return nil, err
	}
	srv := &http.Server{Handler: serve.New(svc)}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	httpc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: e.clients}}
	inst.close = func(ctx context.Context) error {
		httpc.CloseIdleConnections()
		err := srv.Shutdown(ctx)
		if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		return errors.Join(err, svc.Drain(ctx), st.Close())
	}

	// Hot set, stream query, then one reference per fresh family (k = 1).
	texts := [][2]string{
		{"q2", cql.Format(su.Q2())}, {"q4", cql.Format(su.Q4())}, {"q5", cql.Format(su.Q5())},
		{"q3", cql.Format(su.Q3())},
	}
	for f := range freshFamilies {
		texts = append(texts, [2]string{"fresh" + strconv.Itoa(f), freshText(f, 1)})
	}
	for _, t := range texts {
		q, err := newQuery(su.Schema, t[0], t[1])
		if err != nil {
			inst.close(context.Background())
			return nil, err
		}
		inst.queries = append(inst.queries, q)
	}
	hot, streamQ, families := inst.queries[:3], inst.queries[3], inst.queries[4:]

	base := "http://" + ln.Addr().String() + "/query?dataset=" + dataset
	// request posts one query as the client and checks the response
	// against want (for a unary response: its first unaryLimit rows per
	// measure, plus the total row count).
	request := func(ctx context.Context, client int, class string, q *query, text string, want answer, tr *tracer) opObs {
		o := opObs{kind: class}
		url := base + "&limit=" + strconv.Itoa(unaryLimit)
		if class == classStream {
			url = base + "&stream=1"
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(text))
		if err != nil {
			o.err, o.failed = err, true
			return o
		}
		req.Header.Set("X-Casm-Tenant", "tenant-"+strconv.Itoa(client%2))
		o.start = time.Now()
		var got answer
		resp, err := httpc.Do(req)
		if err == nil {
			o.rejected = resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable
			switch {
			case resp.StatusCode != http.StatusOK:
				msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
				err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
			case class == classStream:
				got, err = readStream(resp.Body, &o)
			default:
				got, err = readUnary(resp.Body, &o)
			}
			resp.Body.Close()
		}
		if o.latency == 0 {
			o.latency = time.Since(o.start)
		}
		o.err = err
		o.failed = err != nil || want == nil || !got.matches(want) || (class != classStream && o.rows != q.ref.rows())
		o.digest = got.id()
		tr.record(&o)
		return o
	}

	rngs := make([]*rand.Rand, e.clients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(e.seed*1000 + int64(c)))
	}
	var fresh atomic.Int64 // every fresh query gets a constant of its own
	inst.op = func(ctx context.Context, client, _ int, tr *tracer) opObs {
		rng := rngs[client]
		switch r := rng.Float64(); {
		case r < warmShare:
			q := hot[rng.Intn(len(hot))]
			return request(ctx, client, classWarm, q, q.text, q.head, tr)
		case r < warmShare+coldShare:
			k := fresh.Add(1) + 1
			f := int(k) % len(families)
			q := families[f]
			return request(ctx, client, classCold, q, freshText(f, k), q.head.scaled("fs", float64(k)), tr)
		default:
			return request(ctx, client, classStream, streamQ, streamQ.text, streamQ.ref, tr)
		}
	}
	// The warm-ups commit the hot set's manifests and fill the stream
	// query's blocks, so the measured window starts in the steady state.
	inst.warmup = func(ctx context.Context) error {
		for _, q := range append(append([]*query(nil), hot...), streamQ) {
			class := classWarm
			if q == streamQ {
				class = classStream
			}
			if o := request(ctx, 0, class, q, q.text, nil, nil); o.err != nil {
				return o.err
			}
		}
		return nil
	}
	return inst, nil
}

// unaryResponse is the part of a /query response the client reads.
type unaryResponse struct {
	QueueMS  float64 `json:"queue_ms"`
	WallMS   float64 `json:"wall_ms"`
	Rows     int64   `json:"rows"`
	Measures map[string][]struct {
		Coords []int64 `json:"coords"`
		Value  float64 `json:"value"`
	} `json:"measures"`
}

// readUnary reads a unary response to its end (that is the latency),
// then decodes and digests it.
func readUnary(body io.Reader, o *opObs) (answer, error) {
	data, err := io.ReadAll(body)
	o.latency = time.Since(o.start)
	o.respBytes = int64(len(data))
	if err != nil {
		return nil, err
	}
	var resp unaryResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, err
	}
	o.queueMS, o.wallMS, o.rows = resp.QueueMS, resp.WallMS, resp.Rows
	got := make(answer)
	var scratch []byte
	for name, rows := range resp.Measures {
		for _, r := range rows {
			got.add(name, r.Coords, r.Value, &scratch)
		}
	}
	return got, nil
}

// readStream consumes an NDJSON row stream. Row lines are scanned by
// hand: a full JSON decode per row would cost the client about as much
// CPU as the server spends producing the row, on the same cores. A
// mis-scan cannot pass unnoticed: the digest and the end line's row
// count are both checked.
func readStream(body io.Reader, o *opObs) (answer, error) {
	got := make(answer)
	var scratch []byte
	var coords []int64
	names := map[string]string{} // measure names, so that a row costs no string allocation
	var rows, endRows int64 = 0, -1
	rd := bufio.NewReaderSize(body, 256<<10)
	for {
		line, err := rd.ReadSlice('\n')
		o.respBytes += int64(len(line))
		if len(line) > 0 {
			switch {
			case bytes.HasPrefix(line, []byte(`{"type":"row"`)):
				if o.firstRow == 0 {
					o.firstRow = time.Since(o.start)
				}
				var raw []byte
				var v float64
				if raw, coords, v, err = scanRow(line, coords[:0]); err != nil {
					return nil, err
				}
				name, ok := names[string(raw)]
				if !ok {
					name = string(raw)
					names[name] = name
				}
				got.add(name, coords, v, &scratch)
				rows++
			case bytes.HasPrefix(line, []byte(`{"type":"end"`)):
				var end struct {
					Rows    int64   `json:"rows"`
					QueueMS float64 `json:"queue_ms"`
					WallMS  float64 `json:"wall_ms"`
				}
				if err := json.Unmarshal(line, &end); err != nil {
					return nil, err
				}
				endRows, o.queueMS, o.wallMS = end.Rows, end.QueueMS, end.WallMS
			case bytes.HasPrefix(line, []byte(`{"type":"error"`)):
				return nil, fmt.Errorf("stream error line: %s", bytes.TrimSpace(line))
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	o.latency = time.Since(o.start)
	o.rows = rows
	if endRows != rows {
		return nil, fmt.Errorf("stream carried %d rows, end line reports %d", rows, endRows)
	}
	return got, nil
}

// scanRow extracts measure, coords and value from one NDJSON row line as
// serve.streamQuery writes it.
func scanRow(line []byte, coords []int64) ([]byte, []int64, float64, error) {
	field := func(key string, end byte) ([]byte, bool) {
		i := bytes.Index(line, []byte(key))
		if i < 0 {
			return nil, false
		}
		rest := line[i+len(key):]
		j := bytes.IndexByte(rest, end)
		if j < 0 {
			return nil, false
		}
		return rest[:j], true
	}
	name, ok1 := field(`"measure":"`, '"')
	cs, ok2 := field(`"coords":[`, ']')
	val, ok3 := field(`"value":`, '}')
	if !ok1 || !ok2 || !ok3 {
		return nil, nil, 0, fmt.Errorf("unreadable row line: %s", bytes.TrimSpace(line))
	}
	for len(cs) > 0 {
		tok := cs
		if i := bytes.IndexByte(cs, ','); i >= 0 {
			tok, cs = cs[:i], cs[i+1:]
		} else {
			cs = nil
		}
		c, err := strconv.ParseInt(string(tok), 10, 64)
		if err != nil {
			return nil, nil, 0, err
		}
		coords = append(coords, c)
	}
	v, err := strconv.ParseFloat(string(val), 64)
	return name, coords, v, err
}
