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
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
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
// larger is a client error, not a query.
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

func (s *Server) failParse(w http.ResponseWriter, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusBadRequest)
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

// rowOut is one wire result row.
type rowOut struct {
	Measure string  `json:"measure"`
	Region  string  `json:"region"`
	Coords  []int64 `json:"coords"`
	Value   float64 `json:"value"`
}

// queryResponse is the unary /query result.
type queryResponse struct {
	Dataset  string              `json:"dataset"`
	Tenant   string              `json:"tenant"`
	Plan     planInfo            `json:"plan"`
	QueueMS  float64             `json:"queue_ms"`
	WallMS   float64             `json:"wall_ms"`
	Rows     int64               `json:"rows"`
	Measures map[string][]rowOut `json:"measures"`
	// Truncated reports measures whose row lists were cut at ?limit=.
	Truncated bool `json:"truncated,omitempty"`
}

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
	src, err := io.ReadAll(io.LimitReader(r.Body, maxCQLBytes))
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
	resp := queryResponse{
		Dataset:  dataset,
		Tenant:   tenant,
		Plan:     planInfoOf(ds, res.ResultHeader),
		QueueMS:  float64(tm.Queue.Microseconds()) / 1e3,
		WallMS:   float64(tm.Wall.Microseconds()) / 1e3,
		Rows:     res.TotalRecords(),
		Measures: make(map[string][]rowOut, len(res.Measures)),
	}
	for name, ms := range res.Measures {
		n := len(ms)
		if limit >= 0 && n > limit {
			n = limit
			resp.Truncated = true
		}
		rows := make([]rowOut, n)
		for i := 0; i < n; i++ {
			rows[i] = rowOut{
				Measure: name,
				Region:  ds.Schema.FormatRegion(ms[i].Region),
				Coords:  ms[i].Region.Coord,
				Value:   ms[i].Value,
			}
		}
		resp.Measures[name] = rows
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// streamQuery is the NDJSON mode: a plan header line, one line per result
// row as the reducers emit it, and a terminal end (or error) line. Rows
// flow while the job still runs; an early client disconnect cancels it
// through the request context.
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
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	enc.Encode(struct {
		Type string   `json:"type"`
		Plan planInfo `json:"plan"`
	}{"plan", planInfoOf(ds, st.ResultHeader)})
	if flusher != nil {
		flusher.Flush()
	}

	type streamRow struct {
		Type string `json:"type"`
		rowOut
	}
	var rows int64
	for limit < 0 || rows < int64(limit) {
		row, ok, err := st.Next()
		if err != nil {
			enc.Encode(map[string]string{"type": "error", "error": err.Error()})
			return
		}
		if !ok {
			break
		}
		rows++
		// Coords alias the stream's reused decode buffer; encoding here,
		// before the next Next call, is what makes that safe.
		enc.Encode(streamRow{"row", rowOut{
			Measure: row.Measure,
			Region:  ds.Schema.FormatRegion(row.Region),
			Coords:  row.Region.Coord,
			Value:   row.Value,
		}})
		if rows%streamFlushRows == 0 && flusher != nil {
			flusher.Flush()
		}
	}
	if err := st.Close(); err != nil {
		enc.Encode(map[string]string{"type": "error", "error": err.Error()})
		return
	}
	tm := st.Timing()
	enc.Encode(struct {
		Type    string  `json:"type"`
		Rows    int64   `json:"rows"`
		QueueMS float64 `json:"queue_ms"`
		WallMS  float64 `json:"wall_ms"`
	}{"end", rows, float64(tm.Queue.Microseconds()) / 1e3, float64(tm.Wall.Microseconds()) / 1e3})
	if flusher != nil {
		flusher.Flush()
	}
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
	var req batchRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxCQLBytes)).Decode(&req); err != nil {
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
