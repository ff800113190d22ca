package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rdb"
)

// newObsServer is newTestServer plus a slow-query ring with the given
// threshold.
func newObsServer(t *testing.T, slowThd time.Duration) *server {
	t.Helper()
	sv := newTestServer(t)
	if slowThd > 0 {
		sv.slowlog = obs.NewSlowLog(slowThd, 8)
	}
	return sv
}

// TestMetricsEndpoint: GET /metrics renders a scraper-valid Prometheus
// page covering every layer the acceptance criteria name — gate
// admissions, planner decisions, plan cache, buffer-pool shards,
// per-algorithm latency histograms, serving counters.
func TestMetricsEndpoint(t *testing.T) {
	sv := newObsServer(t, 0)
	if _, err := sv.eng.BuildSegTable(20); err != nil {
		t.Fatal(err)
	}
	// Traffic: one auto query (a planner decision), one hinted repeat (a
	// path-cache interaction), so the families carry real values.
	for _, body := range []string{
		`{"source":1,"target":200,"alg":"auto"}`,
		`{"source":1,"target":200,"alg":"BSDJ"}`,
		`{"source":1,"target":200,"alg":"BSDJ"}`,
	} {
		rec := httptest.NewRecorder()
		sv.handleQuery(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("query %s: %d %s", body, rec.Code, rec.Body.String())
		}
	}

	rec := httptest.NewRecorder()
	sv.handleMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	page := rec.Body.String()
	if err := obs.CheckExposition(page); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, page)
	}
	for _, want := range []string{
		// Engine families.
		`spdb_query_duration_seconds_bucket{algorithm="BSDJ",le="+Inf"}`,
		`spdb_gate_admissions_total{mode="shared"}`,
		`spdb_gate_wait_seconds_count`,
		`spdb_path_cache_misses_total`,
		`spdb_seg_built 1`,
		// Database families.
		`spdb_plan_cache_hits_total`,
		`spdb_bufferpool_hits_total{shard="0"}`,
		`spdb_bufferpool_fence_waits_total{shard="0"}`,
		`spdb_bufferpool_free_pages`,
		`spdb_bufferpool_recycled_total`,
		`spdb_relation_pages_total{relation="TEdges",event="fetch"}`,
		`spdb_relation_pages_total{relation="TOutSegs",event="miss"}`,
		`# HELP spdb_disk_allocs_total Pages the file was extended by.`,
		`spdb_temp_pages`,
		`spdb_temp_disk_reads_total`,
		`spdb_temp_disk_writes_total`,
		`spdb_sql_statements_total`,
		// Serving-tier families.
		`spdb_http_requests_total 3`,
		`spdb_queries_served_total 3`,
		`spdb_queries_served_by_algorithm_total{algorithm="approx"} 0`,
		`spdb_planner_decisions_total{decision=`,
		`spdb_queries_in_flight 0`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Method guard.
	rec = httptest.NewRecorder()
	sv.handleMetrics(rec, httptest.NewRequest(http.MethodPost, "/metrics", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics: %d", rec.Code)
	}
}

// TestReadyzTransitions: /readyz is 503 with no graph, 200 once loaded,
// 503 again while an index build is in flight, and /healthz stays 200
// throughout (liveness is not readiness).
func TestReadyzTransitions(t *testing.T) {
	db, err := rdb.Open(rdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	eng := core.NewEngine(db, core.Options{})
	t.Cleanup(func() { eng.Close() })
	sv := newServer(eng)

	ready := func() int {
		rec := httptest.NewRecorder()
		sv.handleReadyz(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		return rec.Code
	}
	alive := func() int {
		rec := httptest.NewRecorder()
		sv.handleHealthz(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		return rec.Code
	}

	if got := ready(); got != http.StatusServiceUnavailable {
		t.Fatalf("no graph: /readyz %d, want 503", got)
	}
	if got := alive(); got != http.StatusOK {
		t.Fatalf("no graph: /healthz %d, want 200 (liveness)", got)
	}

	if err := eng.LoadGraph(graph.Power(3000, 3, 42)); err != nil {
		t.Fatal(err)
	}
	if got := ready(); got != http.StatusOK {
		t.Fatalf("loaded: /readyz %d, want 200", got)
	}

	// A SegTable build in flight flips readiness off; poll from a second
	// goroutine while it runs (builds on this graph take long enough that
	// the window is reliably observable).
	var (
		saw503 bool
		wg     sync.WaitGroup
	)
	buildDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-buildDone:
				return
			default:
			}
			if ready() == http.StatusServiceUnavailable {
				saw503 = true
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	if _, err := eng.BuildSegTable(20); err != nil {
		t.Fatal(err)
	}
	close(buildDone)
	wg.Wait()
	if !saw503 {
		t.Error("/readyz never reported 503 during the SegTable build")
	}
	if got := ready(); got != http.StatusOK {
		t.Fatalf("after build: /readyz %d, want 200", got)
	}
	if got := alive(); got != http.StatusOK {
		t.Fatalf("after build: /healthz %d, want 200", got)
	}
}

// TestSlowlogEndpoint: queries over the threshold land in the ring and
// surface on /debug/slowlog with their stage decomposition; a server
// without -slow-query reports disabled.
func TestSlowlogEndpoint(t *testing.T) {
	// Threshold 0ns-equivalent: 1ns admits everything, so the test does
	// not depend on absolute query speed.
	sv := newObsServer(t, time.Nanosecond)
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		sv.handleQuery(rec, httptest.NewRequest(http.MethodPost, "/query",
			strings.NewReader(`{"source":1,"target":200}`)))
		if rec.Code != http.StatusOK {
			t.Fatalf("query %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}

	rec := httptest.NewRecorder()
	sv.handleSlowlog(rec, httptest.NewRequest(http.MethodGet, "/debug/slowlog", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/slowlog: %d", rec.Code)
	}
	var out struct {
		Enabled     bool                 `json:"enabled"`
		ThresholdUS int64                `json:"threshold_us"`
		Capacity    int                  `json:"capacity"`
		Total       uint64               `json:"total"`
		Entries     []obs.SlowQueryEntry `json:"entries"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Enabled || out.Capacity != 8 || out.Total != 3 || len(out.Entries) != 3 {
		t.Fatalf("slowlog state: %+v", out)
	}
	// Oldest entry (last in newest-first order) is the real search; the
	// newer cache hits can legitimately truncate to 0µs.
	e := out.Entries[len(out.Entries)-1]
	if e.Source != 1 || e.Target != 200 || e.DurationUS <= 0 {
		t.Errorf("entry lacks endpoints or duration: %+v", e)
	}
	if e.Algorithm == "" {
		t.Errorf("entry lacks algorithm: %+v", e)
	}
	// Later entries hit the cache: Cached surfaces in the log.
	if !out.Entries[0].Cached {
		t.Errorf("repeated query not marked cached: %+v", out.Entries[0])
	}

	// Disabled server: still serves, reports disabled.
	bare := newObsServer(t, 0)
	rec = httptest.NewRecorder()
	bare.handleSlowlog(rec, httptest.NewRequest(http.MethodGet, "/debug/slowlog", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("disabled slowlog: %d", rec.Code)
	}
	var off struct {
		Enabled bool `json:"enabled"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &off); err != nil {
		t.Fatal(err)
	}
	if off.Enabled {
		t.Error("slowlog reports enabled without -slow-query")
	}
}

// TestQueryTrace: ?debug=trace attaches the stage timeline to single and
// batch answers; without it no trace is rendered.
func TestQueryTrace(t *testing.T) {
	sv := newObsServer(t, 0)

	rec := httptest.NewRecorder()
	sv.handleQuery(rec, httptest.NewRequest(http.MethodPost, "/query?debug=trace",
		strings.NewReader(`{"source":1,"target":200}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("traced query: %d %s", rec.Code, rec.Body.String())
	}
	var resp pathResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil {
		t.Fatal("debug=trace attached no trace")
	}
	tr := resp.Trace
	if tr.TotalUS <= 0 || tr.SQLUS <= 0 {
		t.Errorf("trace lacks totals: %+v", tr)
	}
	// sql_us truncates the summed duration; the per-stage fields truncate
	// individually, so the sum may trail by up to one microsecond per stage.
	if d := tr.SQLUS - (tr.PEUS + tr.SCUS + tr.FPRUS); d < 0 || d > 3 {
		t.Errorf("sql_us %d vs pe+sc+fpr (%d+%d+%d)", tr.SQLUS, tr.PEUS, tr.SCUS, tr.FPRUS)
	}
	if tr.SQLUS+tr.FrontierUS > tr.TotalUS+1 { // +1 for microsecond rounding
		t.Errorf("stages exceed total: %+v", tr)
	}

	// Batch form: every item traced.
	rec = httptest.NewRecorder()
	sv.handleQuery(rec, httptest.NewRequest(http.MethodPost, "/query?debug=trace",
		strings.NewReader(`{"queries":[{"source":1,"target":200},{"source":2,"target":100}]}`)))
	var out struct {
		Results []pathResponse `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	for i, r := range out.Results {
		if r.Trace == nil {
			t.Errorf("batch item %d untraced: %+v", i, r)
		}
	}

	// No flag: no trace.
	rec = httptest.NewRecorder()
	sv.handleQuery(rec, httptest.NewRequest(http.MethodPost, "/query",
		strings.NewReader(`{"source":3,"target":150}`)))
	var plain pathResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &plain); err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Error("trace rendered without debug=trace")
	}
}

// TestDebugAddrServesPprof: the profiles answer on -debug-addr's listener
// (debugRoutes) and not on -addr's (routes).
func TestDebugAddrServesPprof(t *testing.T) {
	serving := httptest.NewServer(newTestServer(t).routes())
	defer serving.Close()
	debug := httptest.NewServer(debugRoutes())
	defer debug.Close()
	get := func(base string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	if code, body := get(debug.URL); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("-debug-addr /debug/pprof/: %d, want 200 and the profile index; body %.200s", code, body)
	}
	if code, _ := get(serving.URL); code != http.StatusNotFound {
		t.Errorf("-addr /debug/pprof/: %d, want 404", code)
	}
}
