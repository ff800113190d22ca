package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/rdb"
)

func newTestServer(t *testing.T) *server {
	t.Helper()
	db, err := rdb.Open(rdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	eng := core.NewEngine(db, core.Options{})
	t.Cleanup(func() { eng.Close() })
	if err := eng.LoadGraph(graph.Power(500, 3, 42)); err != nil {
		t.Fatal(err)
	}
	return newServer(eng, nil, core.AlgBSDJ)
}

// newOracleServer is newTestServer plus a built landmark oracle, for the
// approximate-answer endpoints.
func newOracleServer(t *testing.T) *server {
	t.Helper()
	sv := newTestServer(t)
	if _, err := sv.eng.BuildOracle(oracle.Config{K: 6}); err != nil {
		t.Fatal(err)
	}
	return sv
}

func TestShortestPathEndpoint(t *testing.T) {
	sv := newTestServer(t)

	req := httptest.NewRequest(http.MethodGet, "/shortest-path?s=1&t=200", nil)
	rec := httptest.NewRecorder()
	sv.handleShortestPath(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp pathResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Source != 1 || resp.Target != 200 || resp.Algo != "BSDJ" {
		t.Fatalf("unexpected response: %+v", resp)
	}
	if resp.Cached {
		t.Fatal("first query must not be cached")
	}

	// The identical query again must come from the cache.
	rec = httptest.NewRecorder()
	sv.handleShortestPath(rec, httptest.NewRequest(http.MethodGet, "/shortest-path?s=1&t=200", nil))
	var resp2 pathResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp2); err != nil {
		t.Fatal(err)
	}
	if !resp2.Cached {
		t.Fatal("repeated query must be served from the cache")
	}
	if resp2.Found != resp.Found || resp2.Distance != resp.Distance {
		t.Fatalf("cached answer differs: %+v vs %+v", resp2, resp)
	}
}

func TestShortestPathEndpointErrors(t *testing.T) {
	sv := newTestServer(t)
	for _, tc := range []struct {
		url    string
		status int
	}{
		{"/shortest-path?s=abc&t=2", http.StatusBadRequest},
		{"/shortest-path?s=1", http.StatusBadRequest},
		{"/shortest-path?s=1&t=2&alg=NOPE", http.StatusBadRequest},
		{"/shortest-path?s=1&t=99999999", http.StatusUnprocessableEntity},
	} {
		rec := httptest.NewRecorder()
		sv.handleShortestPath(rec, httptest.NewRequest(http.MethodGet, tc.url, nil))
		if rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.url, rec.Code, tc.status, rec.Body.String())
		}
	}
	rec := httptest.NewRecorder()
	sv.handleShortestPath(rec, httptest.NewRequest(http.MethodDelete, "/shortest-path", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("DELETE: status %d", rec.Code)
	}
}

func TestBatchEndpoint(t *testing.T) {
	sv := newTestServer(t)
	body := `{"alg":"BSDJ","queries":[{"s":1,"t":200},{"s":1,"t":200},{"s":-5,"t":2}]}`
	rec := httptest.NewRecorder()
	sv.handleShortestPath(rec, httptest.NewRequest(http.MethodPost, "/shortest-path", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Results []pathResponse `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("got %d results", len(out.Results))
	}
	if out.Results[0].Error != "" || out.Results[1].Error != "" {
		t.Fatalf("valid queries errored: %+v", out.Results[:2])
	}
	if out.Results[0].Distance != out.Results[1].Distance {
		t.Fatal("duplicate queries disagree")
	}
	if out.Results[2].Error == "" {
		t.Fatal("invalid pair must carry a per-query error")
	}
}

// TestApproxModeAndDistanceEndpoint: ?mode=approx and /distance must both
// return an interval bracketing the exact answer.
func TestApproxModeAndDistanceEndpoint(t *testing.T) {
	sv := newOracleServer(t)

	// Exact reference through the normal path.
	rec := httptest.NewRecorder()
	sv.handleShortestPath(rec, httptest.NewRequest(http.MethodGet, "/shortest-path?s=1&t=200", nil))
	var exact pathResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &exact); err != nil {
		t.Fatal(err)
	}
	if !exact.Found {
		t.Fatalf("reference pair should be connected: %+v", exact)
	}

	check := func(name string, rec *httptest.ResponseRecorder) {
		t.Helper()
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, rec.Code, rec.Body.String())
		}
		var resp distanceResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Mode != "approx" || resp.Unreachable {
			t.Fatalf("%s: unexpected response: %+v", name, resp)
		}
		if resp.Lower > exact.Distance {
			t.Errorf("%s: lower %d above exact %d", name, resp.Lower, exact.Distance)
		}
		if resp.Upper != nil && *resp.Upper < exact.Distance {
			t.Errorf("%s: upper %d below exact %d", name, *resp.Upper, exact.Distance)
		}
	}
	rec = httptest.NewRecorder()
	sv.handleShortestPath(rec, httptest.NewRequest(http.MethodGet, "/shortest-path?s=1&t=200&mode=approx", nil))
	check("mode=approx", rec)
	rec = httptest.NewRecorder()
	sv.handleDistance(rec, httptest.NewRequest(http.MethodGet, "/distance?s=1&t=200", nil))
	check("/distance", rec)

	// Unknown mode is a client error.
	rec = httptest.NewRecorder()
	sv.handleShortestPath(rec, httptest.NewRequest(http.MethodGet, "/shortest-path?s=1&t=200&mode=nope", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown mode: status %d", rec.Code)
	}
	// /distance without an oracle is a per-query error.
	bare := newTestServer(t)
	rec = httptest.NewRecorder()
	bare.handleDistance(rec, httptest.NewRequest(http.MethodGet, "/distance?s=1&t=200", nil))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("no-oracle /distance: status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestEdgesEndpoint: POST /edges applies a batch, re-queries reflect it,
// and the error paths return client errors without mutating anything.
func TestEdgesEndpoint(t *testing.T) {
	sv := newTestServer(t)
	if _, err := sv.eng.BuildSegTable(6); err != nil {
		t.Fatal(err)
	}

	// Baseline answer, also priming the cache.
	rec := httptest.NewRecorder()
	sv.handleShortestPath(rec, httptest.NewRequest(http.MethodGet, "/shortest-path?s=1&t=200", nil))
	var before pathResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &before); err != nil {
		t.Fatal(err)
	}
	if !before.Found {
		t.Fatalf("reference pair should be connected: %+v", before)
	}

	// A drastic shortcut must change the served answer post-mutation.
	edges0 := sv.eng.Edges()
	body := `{"mutations":[{"op":"insert","from":1,"to":200,"weight":1}]}`
	rec = httptest.NewRecorder()
	sv.handleEdges(rec, httptest.NewRequest(http.MethodPost, "/edges", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var mresp mutationResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &mresp); err != nil {
		t.Fatal(err)
	}
	if mresp.Applied != 1 || mresp.Error != "" {
		t.Fatalf("unexpected mutation response: %+v", mresp)
	}
	if sv.eng.Edges() != edges0+1 {
		t.Fatalf("edge count %d, want %d", sv.eng.Edges(), edges0+1)
	}
	rec = httptest.NewRecorder()
	sv.handleShortestPath(rec, httptest.NewRequest(http.MethodGet, "/shortest-path?s=1&t=200", nil))
	var after pathResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &after); err != nil {
		t.Fatal(err)
	}
	if after.Cached {
		t.Fatal("mutation must purge the cached answer")
	}
	if after.Distance != 1 {
		t.Fatalf("shortcut not served: %+v", after)
	}

	// Delete the shortcut again: the original distance returns with no
	// manual SegTable rebuild.
	rec = httptest.NewRecorder()
	sv.handleEdges(rec, httptest.NewRequest(http.MethodPost, "/edges",
		strings.NewReader(`{"mutations":[{"op":"delete","from":1,"to":200}]}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("delete status %d: %s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	sv.handleShortestPath(rec, httptest.NewRequest(http.MethodGet, "/shortest-path?s=1&t=200&alg=BSEG", nil))
	var restored pathResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &restored); err != nil {
		t.Fatal(err)
	}
	if restored.Distance != before.Distance {
		t.Fatalf("BSEG after delete: distance %d, want %d", restored.Distance, before.Distance)
	}

	// Error paths.
	for _, tc := range []struct {
		body   string
		status int
	}{
		{`{`, http.StatusBadRequest},
		{`{"mutations":[]}`, http.StatusBadRequest},
		{`{"mutations":[{"op":"upsert","from":1,"to":2}]}`, http.StatusBadRequest},
		{`{"mutations":[{"op":"insert","from":1,"to":999999,"weight":1}]}`, http.StatusUnprocessableEntity},
		{`{"mutations":[{"op":"delete","from":1,"to":200}]}`, http.StatusUnprocessableEntity}, // already gone
	} {
		rec := httptest.NewRecorder()
		sv.handleEdges(rec, httptest.NewRequest(http.MethodPost, "/edges", strings.NewReader(tc.body)))
		if rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.body, rec.Code, tc.status, rec.Body.String())
		}
	}
	rec = httptest.NewRecorder()
	sv.handleEdges(rec, httptest.NewRequest(http.MethodGet, "/edges", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /edges: status %d", rec.Code)
	}
}

// TestEdgesOracleInvalidation: a mutation on an oracle-backed server warns
// in the response and in /stats until a rebuild.
func TestEdgesOracleInvalidation(t *testing.T) {
	sv := newOracleServer(t)
	rec := httptest.NewRecorder()
	sv.handleEdges(rec, httptest.NewRequest(http.MethodPost, "/edges",
		strings.NewReader(`{"mutations":[{"op":"insert","from":0,"to":100,"weight":2}]}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var mresp mutationResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &mresp); err != nil {
		t.Fatal(err)
	}
	if !mresp.OracleInvalidated {
		t.Error("response must warn that the oracle went cold")
	}
	rec = httptest.NewRecorder()
	sv.handleDistance(rec, httptest.NewRequest(http.MethodGet, "/distance?s=1&t=200", nil))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("/distance on a cold oracle: status %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	sv.handleStats(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var stats struct {
		Graph struct {
			OracleInvalidated bool `json:"oracle_invalidated"`
		} `json:"graph"`
		Mutations struct {
			Applied             uint64 `json:"applied"`
			Inserts             uint64 `json:"inserts"`
			OracleInvalidations uint64 `json:"oracle_invalidations"`
		} `json:"mutations"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatalf("%v: %s", err, rec.Body.String())
	}
	if !stats.Graph.OracleInvalidated {
		t.Error("/stats must surface oracle_invalidated")
	}
	if stats.Mutations.Applied != 1 || stats.Mutations.Inserts != 1 || stats.Mutations.OracleInvalidations != 1 {
		t.Errorf("mutation counters: %+v", stats.Mutations)
	}
}

func TestStatsAndHealthz(t *testing.T) {
	sv := newTestServer(t)
	rec := httptest.NewRecorder()
	sv.handleHealthz(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	sv.handleShortestPath(rec, httptest.NewRequest(http.MethodGet, "/shortest-path?s=1&t=200", nil))
	rec = httptest.NewRecorder()
	sv.handleStats(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	var stats map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"server", "graph", "cache", "db", "mutations", "concurrency"} {
		if _, ok := stats[k]; !ok {
			t.Errorf("stats missing section %q", k)
		}
	}

	// The concurrency section must show the served search went through the
	// gate's shared side.
	var conc struct {
		Gate struct {
			SharedAdmits uint64 `json:"shared_admits"`
		} `json:"gate"`
	}
	if err := json.Unmarshal(stats["concurrency"], &conc); err != nil {
		t.Fatalf("concurrency section: %v", err)
	}
	if conc.Gate.SharedAdmits == 0 {
		t.Error("stats: expected a shared gate admission after serving a search")
	}

	// The DB section must expose the plan-cache counters, and a served
	// search must have produced hits (its FEM loop re-executes shapes).
	var db struct {
		PlanCache struct {
			Hits    uint64 `json:"hits"`
			Misses  uint64 `json:"misses"`
			Entries int    `json:"entries"`
		} `json:"plan_cache"`
	}
	if err := json.Unmarshal(stats["db"], &db); err != nil {
		t.Fatalf("db section: %v", err)
	}
	if db.PlanCache.Hits == 0 {
		t.Error("stats: expected plan-cache hits after serving a search")
	}
	if db.PlanCache.Entries == 0 {
		t.Error("stats: expected live plan-cache entries")
	}
}

// TestStatsCounters: /stats must surface the cache hit ratio and the
// per-algorithm query counts.
func TestStatsCounters(t *testing.T) {
	sv := newOracleServer(t)
	for i := 0; i < 2; i++ { // second round hits the cache
		rec := httptest.NewRecorder()
		sv.handleShortestPath(rec, httptest.NewRequest(http.MethodGet, "/shortest-path?s=1&t=200", nil))
		rec = httptest.NewRecorder()
		sv.handleShortestPath(rec, httptest.NewRequest(http.MethodGet, "/shortest-path?s=1&t=200&alg=ALT", nil))
	}
	rec := httptest.NewRecorder()
	sv.handleDistance(rec, httptest.NewRequest(http.MethodGet, "/distance?s=1&t=200", nil))

	rec = httptest.NewRecorder()
	sv.handleStats(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var stats struct {
		Server struct {
			ByAlg map[string]uint64 `json:"queries_by_algorithm"`
		} `json:"server"`
		Cache struct {
			Hits     uint64  `json:"hits"`
			Misses   uint64  `json:"misses"`
			HitRatio float64 `json:"hit_ratio"`
		} `json:"cache"`
		Graph struct {
			Oracle *struct {
				K    int `json:"k"`
				Rows int `json:"rows"`
			} `json:"oracle"`
		} `json:"graph"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatalf("%v: %s", err, rec.Body.String())
	}
	if stats.Server.ByAlg["BSDJ"] != 2 || stats.Server.ByAlg["ALT"] != 2 || stats.Server.ByAlg["approx"] != 1 {
		t.Errorf("per-algorithm counts wrong: %+v", stats.Server.ByAlg)
	}
	if stats.Cache.Hits == 0 || stats.Cache.HitRatio <= 0 || stats.Cache.HitRatio > 1 {
		t.Errorf("cache hit ratio not surfaced: %+v", stats.Cache)
	}
	if stats.Graph.Oracle == nil || stats.Graph.Oracle.K != 6 {
		t.Errorf("oracle info not surfaced: %+v", stats.Graph.Oracle)
	}
}

// TestQueryEndpoint: POST /query single and batch forms, auto planning,
// tolerance answers and input validation.
func TestQueryEndpoint(t *testing.T) {
	sv := newOracleServer(t)
	if _, err := sv.eng.BuildSegTable(20); err != nil {
		t.Fatal(err)
	}

	// Single query, alg=auto: the planner decision is surfaced.
	rec := httptest.NewRecorder()
	sv.handleQuery(rec, httptest.NewRequest(http.MethodPost, "/query",
		strings.NewReader(`{"source":1,"target":200,"alg":"auto"}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp pathResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Found || resp.Planner == "" || resp.Algo == "Auto" {
		t.Fatalf("auto query not planned: %+v", resp)
	}
	if resp.Lower == nil || resp.Upper == nil || *resp.Lower != resp.Distance {
		t.Fatalf("exact answer must carry closed bounds: %+v", resp)
	}

	// Tolerant query: with hub landmarks the oracle frequently answers
	// alone; either way the bounds must bracket the exact distance.
	rec = httptest.NewRecorder()
	sv.handleQuery(rec, httptest.NewRequest(http.MethodPost, "/query",
		strings.NewReader(`{"source":1,"target":200,"alg":"auto","max_rel_error":100}`)))
	var tol pathResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &tol); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || !tol.Found {
		t.Fatalf("tolerant query failed: %d %+v", rec.Code, tol)
	}
	if *tol.Lower > resp.Distance || *tol.Upper < resp.Distance {
		t.Fatalf("tolerant bounds [%d,%d] miss exact %d", *tol.Lower, *tol.Upper, resp.Distance)
	}

	// Batch form with a per-item algorithm override and one bad item.
	rec = httptest.NewRecorder()
	sv.handleQuery(rec, httptest.NewRequest(http.MethodPost, "/query",
		strings.NewReader(`{"workers":2,"queries":[
			{"source":1,"target":200},
			{"source":1,"target":200,"alg":"BSDJ"},
			{"source":-4,"target":2}]}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Results []pathResponse `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("got %d results", len(out.Results))
	}
	if out.Results[0].Error != "" || out.Results[1].Error != "" {
		t.Fatalf("valid batch items errored: %+v", out.Results[:2])
	}
	if out.Results[1].Algo != "BSDJ" {
		t.Errorf("per-item hint ignored: %+v", out.Results[1])
	}
	if out.Results[0].Distance != out.Results[1].Distance {
		t.Error("auto and hinted answers disagree")
	}
	if out.Results[2].Error == "" {
		t.Error("bad item must carry a per-item error")
	}

	// Validation and method errors.
	for _, tc := range []struct {
		body   string
		status int
	}{
		{`{`, http.StatusBadRequest},
		{`{"source":1,"target":2,"alg":"NOPE"}`, http.StatusBadRequest},
		{`{"queries":[{"source":1,"target":2,"alg":"NOPE"}]}`, http.StatusBadRequest},
		{`{"source":1,"target":99999999}`, http.StatusUnprocessableEntity},
	} {
		rec := httptest.NewRecorder()
		sv.handleQuery(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(tc.body)))
		if rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.body, rec.Code, tc.status, rec.Body.String())
		}
	}
	rec = httptest.NewRecorder()
	sv.handleQuery(rec, httptest.NewRequest(http.MethodGet, "/query", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /query: status %d", rec.Code)
	}
}

// TestQueryEndpointCancellation: a dead client context (disconnect) or an
// expired timeout kills the query — 504, queries_cancelled counted, and
// the server keeps serving.
func TestQueryEndpointCancellation(t *testing.T) {
	sv := newTestServer(t)

	// Client disconnected before the query ran.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/query",
		strings.NewReader(`{"source":1,"target":400}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	sv.handleQuery(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("disconnected client: status %d, want 504 (%s)", rec.Code, rec.Body.String())
	}

	// A timeout that cannot possibly be met.
	rec = httptest.NewRecorder()
	sv.handleQuery(rec, httptest.NewRequest(http.MethodPost, "/query",
		strings.NewReader(`{"source":1,"target":400,"timeout_ms":1}`)))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("timeout: status %d, want 504 (%s)", rec.Code, rec.Body.String())
	}

	// A disconnected /distance client classifies the same way (504 +
	// counted), not as a generic 422.
	osv := newOracleServer(t)
	dctx, dcancel := context.WithCancel(context.Background())
	dcancel()
	rec = httptest.NewRecorder()
	osv.handleDistance(rec, httptest.NewRequest(http.MethodGet, "/distance?s=1&t=200", nil).WithContext(dctx))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("cancelled /distance: status %d, want 504 (%s)", rec.Code, rec.Body.String())
	}
	if osv.cancelled.Load() != 1 {
		t.Errorf("cancelled /distance not counted: %d", osv.cancelled.Load())
	}

	// Both cancellations surfaced in /stats; the engine still answers.
	rec = httptest.NewRecorder()
	sv.handleStats(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var stats struct {
		Server struct {
			Cancelled uint64 `json:"queries_cancelled"`
		} `json:"server"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Server.Cancelled != 2 {
		t.Errorf("queries_cancelled = %d, want 2", stats.Server.Cancelled)
	}
	rec = httptest.NewRecorder()
	sv.handleQuery(rec, httptest.NewRequest(http.MethodPost, "/query",
		strings.NewReader(`{"source":1,"target":200}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("server unusable after cancellations: %d %s", rec.Code, rec.Body.String())
	}
}

// TestStatsPlannerDecisions: /stats reports what auto traffic chose;
// hinted traffic stays out of the map.
func TestStatsPlannerDecisions(t *testing.T) {
	sv := newTestServer(t)
	if _, err := sv.eng.BuildSegTable(20); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		sv.handleQuery(rec, httptest.NewRequest(http.MethodPost, "/query",
			strings.NewReader(`{"source":1,"target":200,"alg":"auto"}`)))
		if rec.Code != http.StatusOK {
			t.Fatalf("auto query %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	rec := httptest.NewRecorder()
	sv.handleQuery(rec, httptest.NewRequest(http.MethodPost, "/query",
		strings.NewReader(`{"source":1,"target":200,"alg":"BSDJ"}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("hinted query: %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	sv.handleStats(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var stats struct {
		Server struct {
			Planner map[string]uint64 `json:"planner_decisions"`
			ByAlg   map[string]uint64 `json:"queries_by_algorithm"`
		} `json:"server"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	var total uint64
	for d, n := range stats.Server.Planner {
		if d == core.DecisionHint {
			t.Errorf("hint decisions must not be counted: %+v", stats.Server.Planner)
		}
		total += n
	}
	if total != 3 {
		t.Errorf("planner_decisions total %d, want 3: %+v", total, stats.Server.Planner)
	}
	if stats.Server.ByAlg["BSEG"] == 0 {
		t.Errorf("resolved algorithm missing from queries_by_algorithm: %+v", stats.Server.ByAlg)
	}
}
