// Package serve is the HTTP face of the resident query service: a thin
// handler layer translating CQL-over-HTTP requests into core.Service
// session calls. It owns no execution state — the service's resident
// executor, dataset registry, decision cache, and admission control do
// the work; this package parses, routes, encodes, and maps the typed
// service errors onto status codes:
//
//	POST /query?dataset=D          CQL text  → JSON result (one query)
//	POST /query?dataset=D&stream=1 CQL text  → NDJSON row stream
//	POST /batch?dataset=D          JSON body → shared-scan batch result
//	GET  /datasets                           → registered dataset names
//	GET  /stats                              → admission + cache counters
//	GET  /healthz                            → 200, or 503 once draining
//
// The tenant is taken from the X-Casm-Tenant header (or ?tenant=), with
// unidentified requests pooled under "default".
//
// A result row is the object
//
//	{"measure":"m","region":"[a1=3@low, t1=7@hour]","coords":[3,0,0,0,7,0],"value":1.5}
//
// ("type":"row" first on a stream line). Values are JSON numbers in
// encoding/json's float format, except that a non-finite value — +Inf or
// -Inf, which SCALE by a literal beyond float64's range produces — is the
// JSON string "+Inf" or "-Inf" (and NaN, which no measure produces, would
// be "NaN"), so neither response kind ever drops a row it counts.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/casm-project/casm/internal/core"
	"github.com/casm-project/casm/internal/cql"
	"github.com/casm-project/casm/internal/exec"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/workflow"
)

// maxCQLBytes bounds a request body — CQL queries are small; anything
// larger is a client error, not a query. Such a body is refused whole
// (http.MaxBytesReader, 413), never cut short: a query cut at the limit
// may still parse, as a different query.
const maxCQLBytes = 1 << 20

// streamFlushRows is how many NDJSON rows accumulate between explicit
// flushes, so a slow consumer sees steady progress without a syscall per
// row.
const streamFlushRows = 64

// statusClientClosedRequest is nginx's conventional code for a request
// whose client went away mid-flight; there is no standard constant.
const statusClientClosedRequest = 499

// Connection timeouts of the HTTP server: a client gets this long to
// deliver its request header, its whole request (the body is capped at
// maxCQLBytes), and its next request on a kept-alive connection, so a
// client that opens a connection and stalls cannot hold a goroutine and a
// descriptor forever. There is no write timeout: an NDJSON stream lasts as
// long as its query.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// NewHTTPServer returns the http.Server casmserve runs: the service's
// handler behind the connection timeouts above. The caller sets no
// address; it serves on a listener of its own.
func NewHTTPServer(svc *core.Service) *http.Server {
	return &http.Server{
		Handler:           New(svc),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// Server is the HTTP handler over one resident service.
type Server struct {
	svc *core.Service
	mux *http.ServeMux
}

// New returns the handler for the service.
func New(svc *core.Service) *Server {
	s := &Server{svc: svc, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("POST /batch", s.handleBatch)
	s.mux.HandleFunc("GET /datasets", s.handleDatasets)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// statusOf maps the service's typed errors onto HTTP status codes.
func statusOf(err error) int {
	switch {
	case errors.Is(err, exec.ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, exec.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, core.ErrUnknownDataset):
		return http.StatusNotFound
	case errors.Is(err, mr.ErrClosed):
		return http.StatusConflict
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return statusClientClosedRequest
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) fail(w http.ResponseWriter, err error) {
	code := statusOf(err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// failParse answers a request the server cannot read: 413 for a body past
// maxCQLBytes, 400 for anything else.
func (s *Server) failParse(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// tenantOf resolves the request's tenant identity.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Casm-Tenant"); t != "" {
		return t
	}
	if t := r.URL.Query().Get("tenant"); t != "" {
		return t
	}
	return "default"
}

// datasetOf resolves the request's dataset: the ?dataset= parameter, or —
// the common single-dataset server — the sole registered name.
func (s *Server) datasetOf(r *http.Request) (string, error) {
	if d := r.URL.Query().Get("dataset"); d != "" {
		return d, nil
	}
	names := s.svc.Datasets()
	if len(names) == 1 {
		return names[0], nil
	}
	return "", fmt.Errorf("serve: ?dataset= required (registered: %s)", strings.Join(names, ", "))
}

// planInfo is the wire form of an executed plan.
type planInfo struct {
	Key              string `json:"key"`
	ClusteringFactor int64  `json:"clustering_factor"`
	Blocks           int64  `json:"blocks"`
	Sampled          bool   `json:"sampled"`
	PlanCached       bool   `json:"plan_cached"`
	EarlyAggregated  bool   `json:"early_aggregated"`
}

// planInfoOf renders an evaluation's header — the same on a materialized
// result, a batch member and a stream.
func planInfoOf(ds *core.Dataset, h core.ResultHeader) planInfo {
	return planInfo{
		Key:              h.Plan.Key.Format(ds.Schema),
		ClusteringFactor: h.Plan.ClusteringFactor,
		Blocks:           h.Plan.Blocks,
		Sampled:          h.SampledPlan,
		PlanCached:       h.PlanCached,
		EarlyAggregated:  h.EarlyAggregated,
	}
}

// queryResponse is the unary /query result up to its rows: the body is
// this object with two more members, "measures" — each measure's name
// mapped to its rows, in name order — and "truncated":true when a row
// list was cut at ?limit=.
type queryResponse struct {
	Dataset string   `json:"dataset"`
	Tenant  string   `json:"tenant"`
	Plan    planInfo `json:"plan"`
	QueueMS float64  `json:"queue_ms"`
	WallMS  float64  `json:"wall_ms"`
	Rows    int64    `json:"rows"`
}

// writeChunk is how many response bytes accumulate before a unary
// response is handed to the connection, so a large result is written in
// pieces instead of being held whole.
const writeChunk = 32 << 10

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	dataset, err := s.datasetOf(r)
	if err != nil {
		s.failParse(w, err)
		return
	}
	ds, err := s.svc.Dataset(dataset)
	if err != nil {
		s.fail(w, err)
		return
	}
	src, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxCQLBytes))
	if err != nil {
		s.failParse(w, fmt.Errorf("serve: reading body: %w", err))
		return
	}
	q, err := cql.Parse(ds.Schema, string(src))
	if err != nil {
		s.failParse(w, err)
		return
	}
	limit := -1
	if ls := r.URL.Query().Get("limit"); ls != "" {
		if limit, err = strconv.Atoi(ls); err != nil || limit < 0 {
			s.failParse(w, fmt.Errorf("serve: bad limit %q", ls))
			return
		}
	}
	tenant := tenantOf(r)

	if r.URL.Query().Get("stream") != "" {
		s.streamQuery(w, r, tenant, dataset, q, limit)
		return
	}

	res, tm, err := s.svc.Evaluate(r.Context(), tenant, dataset, q)
	if err != nil {
		s.fail(w, err)
		return
	}
	names := make([]string, 0, len(res.Measures))
	for name := range res.Measures {
		names = append(names, name)
	}
	sort.Strings(names)
	buf := appendLine(make([]byte, 0, writeChunk+4<<10), queryResponse{
		Dataset: dataset,
		Tenant:  tenant,
		Plan:    planInfoOf(ds, res.ResultHeader),
		QueueMS: float64(tm.Queue.Microseconds()) / 1e3,
		WallMS:  float64(tm.Wall.Microseconds()) / 1e3,
		Rows:    res.TotalRecords(),
	})
	// Reopen the object: drop its closing brace and newline.
	buf = append(buf[:len(buf)-2], `,"measures":{`...)
	enc := newRowEncoder(ds.Schema, false)
	truncated := false
	w.Header().Set("Content-Type", "application/json")
	for i, name := range names {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '"')
		buf = appendEscaped(buf, name)
		buf = append(buf, `":[`...)
		ms := res.Measures[name]
		if limit >= 0 && len(ms) > limit {
			ms = ms[:limit]
			truncated = true
		}
		for j := range ms {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = enc.appendRow(buf, name, ms[j].Region, ms[j].Value)
			if len(buf) >= writeChunk {
				if _, err := w.Write(buf); err != nil {
					return // the client is gone
				}
				buf = buf[:0]
			}
		}
		buf = append(buf, ']')
	}
	buf = append(buf, '}')
	if truncated {
		buf = append(buf, `,"truncated":true`...)
	}
	w.Write(append(buf, "}\n"...))
}

// appendLine appends v's JSON encoding and a newline, as json.Encoder
// writes it.
func appendLine(dst []byte, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// Only a non-finite timing could fail, and none is.
		panic(fmt.Sprintf("serve: encoding %T: %v", v, err))
	}
	dst = append(dst, b...)
	return append(dst, '\n')
}

// streamQuery is the NDJSON mode: a plan header line, one line per result
// row as the reducers emit it, and a terminal end (or error) line. Rows
// flow while the job still runs, written and flushed every
// streamFlushRows rows; an early client disconnect cancels the job
// through the request context, or on the first failed write.
func (s *Server) streamQuery(w http.ResponseWriter, r *http.Request, tenant, dataset string, q *workflow.Workflow, limit int) {
	ds, err := s.svc.Dataset(dataset)
	if err != nil {
		s.fail(w, err)
		return
	}
	st, err := s.svc.EvaluateStream(r.Context(), tenant, dataset, q)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer st.Close()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var buf []byte
	// send writes and flushes what buf holds; false means the client is
	// gone.
	send := func() bool {
		_, err := w.Write(buf)
		buf = buf[:0]
		if err == nil && flusher != nil {
			flusher.Flush()
		}
		return err == nil
	}
	buf = appendLine(buf, struct {
		Type string   `json:"type"`
		Plan planInfo `json:"plan"`
	}{"plan", planInfoOf(ds, st.ResultHeader)})
	if !send() {
		return
	}

	enc := newRowEncoder(ds.Schema, true)
	var rows int64
	for limit < 0 || rows < int64(limit) {
		row, ok, err := st.Next()
		if err != nil {
			buf = appendLine(buf, map[string]string{"type": "error", "error": err.Error()})
			send()
			return
		}
		if !ok {
			break
		}
		rows++
		// Coords alias the stream's reused decode buffer; encoding here,
		// before the next Next call, is what makes that safe.
		buf = enc.appendRow(buf, row.Measure, row.Region, row.Value)
		if rows%streamFlushRows == 0 && !send() {
			return
		}
	}
	if err := st.Close(); err != nil {
		buf = appendLine(buf, map[string]string{"type": "error", "error": err.Error()})
		send()
		return
	}
	tm := st.Timing()
	buf = appendLine(buf, struct {
		Type    string  `json:"type"`
		Rows    int64   `json:"rows"`
		QueueMS float64 `json:"queue_ms"`
		WallMS  float64 `json:"wall_ms"`
	}{"end", rows, float64(tm.Queue.Microseconds()) / 1e3, float64(tm.Wall.Microseconds()) / 1e3})
	send()
}

// batchRequest is the /batch body: CQL texts evaluated as one
// shared-scan batch.
type batchRequest struct {
	Queries []string `json:"queries"`
}

// batchJobOut describes one job of a batch on the wire.
type batchJobOut struct {
	Queries []int   `json:"queries"`
	Shared  bool    `json:"shared"`
	Groups  [][]int `json:"groups,omitempty"`
}

// batchResponse is the /batch result.
type batchResponse struct {
	Dataset string        `json:"dataset"`
	Tenant  string        `json:"tenant"`
	QueueMS float64       `json:"queue_ms"`
	WallMS  float64       `json:"wall_ms"`
	Jobs    []batchJobOut `json:"jobs"`
	Results []struct {
		Plan planInfo `json:"plan"`
		Rows int64    `json:"rows"`
	} `json:"results"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	dataset, err := s.datasetOf(r)
	if err != nil {
		s.failParse(w, err)
		return
	}
	ds, err := s.svc.Dataset(dataset)
	if err != nil {
		s.fail(w, err)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxCQLBytes))
	if err != nil {
		s.failParse(w, fmt.Errorf("serve: reading body: %w", err))
		return
	}
	var req batchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.failParse(w, fmt.Errorf("serve: bad batch body: %w", err))
		return
	}
	if len(req.Queries) == 0 {
		s.failParse(w, fmt.Errorf("serve: empty batch"))
		return
	}
	qs := make([]*workflow.Workflow, len(req.Queries))
	for i, src := range req.Queries {
		if qs[i], err = cql.Parse(ds.Schema, src); err != nil {
			s.failParse(w, fmt.Errorf("serve: batch query %d: %w", i, err))
			return
		}
	}
	tenant := tenantOf(r)
	res, tm, err := s.svc.EvaluateBatch(r.Context(), tenant, dataset, qs)
	if err != nil {
		s.fail(w, err)
		return
	}
	resp := batchResponse{
		Dataset: dataset,
		Tenant:  tenant,
		QueueMS: float64(tm.Queue.Microseconds()) / 1e3,
		WallMS:  float64(tm.Wall.Microseconds()) / 1e3,
	}
	for _, job := range res.Jobs {
		resp.Jobs = append(resp.Jobs, batchJobOut{Queries: job.Queries, Shared: job.Shared, Groups: job.Groups})
	}
	for _, qr := range res.Results {
		resp.Results = append(resp.Results, struct {
			Plan planInfo `json:"plan"`
			Rows int64    `json:"rows"`
		}{
			Plan: planInfoOf(ds, qr.ResultHeader),
			Rows: qr.TotalRecords(),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string][]string{"datasets": s.svc.Datasets()})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.svc.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.svc.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}
