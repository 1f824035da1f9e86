package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/casm-project/casm/internal/core"
	"github.com/casm-project/casm/internal/cql"
	"github.com/casm-project/casm/internal/workload"
)

const q1CQL = "MEASURE hits = COUNT(*) AT (a1:value, t1:hour);"

func newTestServer(t *testing.T, cfg core.ServiceConfig) (*httptest.Server, *core.Service) {
	t.Helper()
	if cfg.Engine.NumReducers == 0 {
		cfg.Engine.NumReducers = 4
	}
	if cfg.Engine.TempDir == "" {
		cfg.Engine.TempDir = t.TempDir()
	}
	svc, err := core.NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	su := workload.NewSuite()
	records := su.Generate(2000, workload.Uniform, 9)
	if err := svc.Register("events", core.MemoryDataset(su.Schema, records, 6)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(nil)
	ts.Config = NewHTTPServer(svc)
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		svc.Drain(context.Background())
	})
	return ts, svc
}

func postCQL(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	if _, err := bufio.NewReader(resp.Body).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return resp, []byte(buf.String())
}

func TestQueryUnary(t *testing.T) {
	ts, svc := newTestServer(t, core.ServiceConfig{})

	resp, body := postCQL(t, ts.URL+"/query?dataset=events&limit=3", q1CQL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Dataset string `json:"dataset"`
		Tenant  string `json:"tenant"`
		Plan    struct {
			Key        string `json:"key"`
			PlanCached bool   `json:"plan_cached"`
		} `json:"plan"`
		Rows     int64 `json:"rows"`
		Measures map[string][]struct {
			Region string  `json:"region"`
			Value  float64 `json:"value"`
		} `json:"measures"`
		Truncated bool `json:"truncated"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if out.Dataset != "events" || out.Tenant != "default" {
		t.Fatalf("dataset/tenant = %q/%q", out.Dataset, out.Tenant)
	}
	if out.Rows == 0 || len(out.Measures["hits"]) == 0 {
		t.Fatalf("no rows: %s", body)
	}
	if len(out.Measures["hits"]) > 3 || !out.Truncated {
		t.Fatalf("limit not applied: %d rows, truncated=%v", len(out.Measures["hits"]), out.Truncated)
	}
	if out.Plan.PlanCached {
		t.Fatal("first query claims a plan-cache hit")
	}

	// Second submission of the same query hits the resident decision
	// cache: no re-planning, and the response says so.
	resp2, body2 := postCQL(t, ts.URL+"/query?dataset=events&limit=0", q1CQL)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second status %d: %s", resp2.StatusCode, body2)
	}
	if err := json.Unmarshal(body2, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Plan.PlanCached {
		t.Fatalf("second submission missed the decision cache: %s", body2)
	}
	if st := svc.Stats(); st.PlanCacheHits < 1 {
		t.Fatalf("service stats report no plan cache hits: %+v", st)
	}
}

func TestQueryStreamNDJSON(t *testing.T) {
	ts, _ := newTestServer(t, core.ServiceConfig{})
	// stream submits q1 in NDJSON mode, checks the stream's shape, and
	// returns the plan header's plan_cached.
	stream := func() bool {
		resp, err := http.Post(ts.URL+"/query?dataset=events&stream=1", "text/plain", strings.NewReader(q1CQL))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("content type %q", ct)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		var sawPlan, sawEnd, planCached bool
		var rows, endRows int64
		for sc.Scan() {
			var line struct {
				Type string `json:"type"`
				Plan struct {
					PlanCached bool `json:"plan_cached"`
				} `json:"plan"`
				Rows  int64   `json:"rows"`
				Value float64 `json:"value"`
				Error string  `json:"error"`
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Fatalf("bad NDJSON line: %v\n%s", err, sc.Text())
			}
			switch line.Type {
			case "plan":
				if sawPlan || rows > 0 {
					t.Fatal("plan line out of order")
				}
				sawPlan, planCached = true, line.Plan.PlanCached
			case "row":
				rows++
			case "end":
				sawEnd = true
				endRows = line.Rows
			case "error":
				t.Fatalf("stream error: %s", line.Error)
			default:
				t.Fatalf("unknown line type %q", line.Type)
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if !sawPlan || !sawEnd || rows == 0 || endRows != rows {
			t.Fatalf("stream shape: plan=%v end=%v rows=%d endRows=%d", sawPlan, sawEnd, rows, endRows)
		}
		return planCached
	}
	if stream() {
		t.Fatal("first stream claims a plan-cache hit")
	}
	// Like the unary path, the second identical submission skips planning
	// and its header says so.
	if !stream() {
		t.Fatal("second identical stream does not report plan_cached")
	}
}

func TestBatchSharedScan(t *testing.T) {
	ts, _ := newTestServer(t, core.ServiceConfig{})
	su := workload.NewSuite()
	q2 := cql.Format(su.Q2())
	body, _ := json.Marshal(map[string][]string{"queries": {q1CQL, q2}})
	resp, err := http.Post(ts.URL+"/batch?dataset=events", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Jobs []struct {
			Queries []int `json:"queries"`
			Shared  bool  `json:"shared"`
		} `json:"jobs"`
		Results []struct {
			Rows int64 `json:"rows"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(out.Results) != 2 || out.Results[0].Rows == 0 || out.Results[1].Rows == 0 {
		t.Fatalf("batch results: %+v", out.Results)
	}
	shared := false
	for _, j := range out.Jobs {
		shared = shared || j.Shared
	}
	if !shared {
		t.Fatalf("no shared-scan job in %+v", out.Jobs)
	}
}

func TestStatusMapping(t *testing.T) {
	ts, svc := newTestServer(t, core.ServiceConfig{})

	// Parse error → 400.
	if resp, _ := postCQL(t, ts.URL+"/query?dataset=events", "MEASURE oops = ;"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("parse error status %d, want 400", resp.StatusCode)
	}
	// Unknown dataset → 404.
	if resp, _ := postCQL(t, ts.URL+"/query?dataset=nope", q1CQL); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown dataset status %d, want 404", resp.StatusCode)
	}
	// Healthy before drain.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d, want 200", hr.StatusCode)
	}
	// Draining → healthz 503 and query 503.
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	hr, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz %d, want 503", hr.StatusCode)
	}
	if resp, _ := postCQL(t, ts.URL+"/query?dataset=events", q1CQL); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining query status %d, want 503", resp.StatusCode)
	}
}

// TestConcurrentTenants drives parallel HTTP clients under two tenant
// identities and checks the service's per-tenant accounting plus result
// consistency across every response.
func TestConcurrentTenants(t *testing.T) {
	ts, svc := newTestServer(t, core.ServiceConfig{
		Engine:            core.Config{NumReducers: 2},
		Workers:           4,
		PerTenantInFlight: 2,
	})

	// Reference rows from a warmup call.
	_, refBody := postCQL(t, ts.URL+"/query?dataset=events", q1CQL)
	var ref struct {
		Rows int64 `json:"rows"`
	}
	if err := json.Unmarshal(refBody, &ref); err != nil || ref.Rows == 0 {
		t.Fatalf("warmup: err=%v rows=%d", err, ref.Rows)
	}

	const clients = 8
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		i := i
		tenant := fmt.Sprintf("tenant-%d", i%2)
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequest("POST", ts.URL+"/query?dataset=events", strings.NewReader(q1CQL))
			if err != nil {
				errs[i] = err
				return
			}
			req.Header.Set("X-Casm-Tenant", tenant)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			var out struct {
				Rows int64 `json:"rows"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			if out.Rows != ref.Rows {
				errs[i] = fmt.Errorf("rows %d, want %d", out.Rows, ref.Rows)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	st := svc.Stats()
	for tenant, p := range st.Admission.TenantPeak {
		if p > 2 {
			t.Fatalf("tenant %s peak %d exceeds limit 2", tenant, p)
		}
	}
	if st.Admission.InFlight != 0 {
		t.Fatalf("in-flight %d after all responses", st.Admission.InFlight)
	}
}

// TestStalledClientIsDisconnected: a client that opens a connection and
// never finishes its request line is dropped within the header timeout —
// it does not hold its goroutine and descriptor for as long as it likes —
// while a well-formed query on another connection still answers.
func TestStalledClientIsDisconnected(t *testing.T) {
	ts, _ := newTestServer(t, core.ServiceConfig{})
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("POST /query?dataset=events HT")); err != nil {
		t.Fatal(err)
	}

	if resp, body := postCQL(t, ts.URL+"/query?dataset=events&limit=1", q1CQL); resp.StatusCode != http.StatusOK {
		t.Fatalf("query beside a stalled client: %d %s", resp.StatusCode, body)
	}

	// The server hangs up (EOF or a reset); only our own deadline expiring
	// means it was still waiting for the rest of the header.
	const slack = 5 * time.Second
	conn.SetReadDeadline(start.Add(readHeaderTimeout + slack))
	_, err = io.Copy(io.Discard, conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("stalled client still connected %v after its half request line", time.Since(start).Round(time.Second))
	}
	if held := time.Since(start); held < readHeaderTimeout/2 {
		t.Fatalf("disconnected after %v: before the header timeout could have fired", held)
	}
}

// TestOversizedBodyRefused: a body past maxCQLBytes is answered 413 with
// the error JSON on every route that reads one — never cut at the limit
// and answered as the shorter query it then reads as. A body of exactly
// maxCQLBytes is still a query.
func TestOversizedBodyRefused(t *testing.T) {
	ts, _ := newTestServer(t, core.ServiceConfig{})
	const more = "MEASURE more = COUNT(*) AT (a1:value, t1:day);"
	padTo := func(n int, head, tail string) string {
		return head + strings.Repeat(" ", n-len(head)-len(tail)) + tail
	}
	batchOf := func(n int) string {
		head, tail := `{"queries":["`+q1CQL, `"]}`
		return padTo(n, head, tail)
	}
	for _, tc := range []struct {
		name, route, body string
		status            int
	}{
		{"query", "/query?dataset=events", padTo(maxCQLBytes+1, q1CQL, ""), http.StatusRequestEntityTooLarge},
		{"query dropping a measure", "/query?dataset=events", q1CQL + strings.Repeat(" ", maxCQLBytes) + more, http.StatusRequestEntityTooLarge},
		{"stream", "/query?dataset=events&stream=1", padTo(maxCQLBytes+1, q1CQL, ""), http.StatusRequestEntityTooLarge},
		{"batch", "/batch?dataset=events", batchOf(maxCQLBytes + 1), http.StatusRequestEntityTooLarge},
		{"query at the limit", "/query?dataset=events&limit=1", padTo(maxCQLBytes, q1CQL, more), http.StatusOK},
		{"batch at the limit", "/batch?dataset=events", batchOf(maxCQLBytes), http.StatusOK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.status == http.StatusOK && len(tc.body) != maxCQLBytes {
				t.Fatalf("body of %d bytes", len(tc.body))
			}
			resp, body := postCQL(t, ts.URL+tc.route, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %.200s", resp.StatusCode, tc.status, body)
			}
			var out struct {
				Error    string                     `json:"error"`
				Measures map[string]json.RawMessage `json:"measures"`
			}
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatalf("%v: %.200s", err, body)
			}
			switch {
			case tc.status != http.StatusOK && out.Error == "":
				t.Errorf("no error in %.200s", body)
			case tc.name == "query at the limit" && (out.Measures["hits"] == nil || out.Measures["more"] == nil):
				t.Errorf("want measures hits and more: %.200s", body)
			}
		})
	}
}
