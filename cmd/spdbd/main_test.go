package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
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
	return newServer(eng)
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

// postQuery sends body to POST /query and decodes the single-query answer.
func postQuery(t *testing.T, sv *server, body string) (pathResponse, int) {
	t.Helper()
	rec := httptest.NewRecorder()
	sv.handleQuery(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
	var resp pathResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("POST /query %s: %d %v: %s", body, rec.Code, err, rec.Body)
	}
	return resp, rec.Code
}

const bsdjQuery = `{"source":1,"target":200,"alg":"BSDJ"}`

// TestShortestPathEndpoint: a search through POST /query, then the same
// pair again, answered from the cache without a statement.
func TestShortestPathEndpoint(t *testing.T) {
	sv := newTestServer(t)
	resp, code := postQuery(t, sv, bsdjQuery)
	if code != http.StatusOK || resp.Source != 1 || resp.Target != 200 || resp.Algo != "BSDJ" || resp.Cached {
		t.Fatalf("first query: %d %+v", code, resp)
	}
	again, _ := postQuery(t, sv, bsdjQuery)
	if !again.Cached || again.Statements != 0 || again.Found != resp.Found || again.Distance != resp.Distance {
		t.Fatalf("repeated query: %+v, want %+v from the cache with 0 statements", again, resp)
	}
}

// TestOverLimitBody: a body past maxBodyBytes — here a batch just long
// enough — is answered 413 in the JSON error shape on every endpoint that
// reads one, before anything runs, and /stats counts each as one request and
// one error.
func TestOverLimitBody(t *testing.T) {
	sv := newTestServer(t)
	batch := func(key, item string) string {
		return `{"` + key + `":[` + strings.Repeat(item+",", maxBodyBytes/len(item)) + item + `]}`
	}
	for _, c := range []struct {
		h         http.HandlerFunc
		url, body string
	}{
		{sv.handleQuery, "/query", batch("queries", `{"source":1,"target":2}`)},
		{sv.handleEdges, "/edges", batch("mutations", `{"op":"insert","from":1,"to":2,"weight":3}`)},
	} {
		rec := httptest.NewRecorder()
		c.h(rec, httptest.NewRequest(http.MethodPost, c.url, strings.NewReader(c.body)))
		var resp map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusRequestEntityTooLarge || resp["error"] == "" {
			t.Errorf("POST %s with %d bytes: %d %s, want 413 with an error", c.url, len(c.body), rec.Code, rec.Body)
		}
	}
	if st := sv.eng.MutationStats(); st.Batches != 0 {
		t.Errorf("an over-limit /edges body applied %d batches", st.Batches)
	}
	var stats struct {
		Server struct {
			Requests uint64 `json:"requests"`
			Errors   uint64 `json:"errors"`
			Served   uint64 `json:"queries_served"`
		} `json:"server"`
	}
	rec := httptest.NewRecorder()
	sv.handleStats(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if s := stats.Server; s.Requests != 3 || s.Errors != 2 || s.Served != 0 {
		t.Errorf("/stats server after two over-limit bodies: %+v, want 3 requests (one /stats), 2 errors, 0 served", s)
	}
}

// TestApproxModeAndDistanceEndpoint: /distance returns an interval
// bracketing the exact answer, and refuses without an oracle.
func TestApproxModeAndDistanceEndpoint(t *testing.T) {
	sv := newOracleServer(t)
	exact, _ := postQuery(t, sv, bsdjQuery)
	if !exact.Found {
		t.Fatalf("reference pair should be connected: %+v", exact)
	}
	rec := httptest.NewRecorder()
	sv.handleDistance(rec, httptest.NewRequest(http.MethodGet, "/distance?s=1&t=200", nil))
	var resp distanceResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("/distance: %d %v: %s", rec.Code, err, rec.Body)
	}
	if resp.Mode != "approx" || resp.Unreachable || resp.Lower > exact.Distance || resp.Upper != nil && *resp.Upper < exact.Distance {
		t.Errorf("/distance: %+v does not bracket the exact distance %d", resp, exact.Distance)
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
	before, _ := postQuery(t, sv, bsdjQuery)
	if !before.Found {
		t.Fatalf("reference pair should be connected: %+v", before)
	}

	// A drastic shortcut must change the served answer post-mutation.
	edges0 := sv.eng.Edges()
	body := `{"mutations":[{"op":"insert","from":1,"to":200,"weight":1}]}`
	rec := httptest.NewRecorder()
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
	after, _ := postQuery(t, sv, bsdjQuery)
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
	restored, _ := postQuery(t, sv, `{"source":1,"target":200,"alg":"BSEG"}`)
	if restored.Distance != before.Distance {
		t.Fatalf("BSEG after delete: distance %d, want %d", restored.Distance, before.Distance)
	}

	// Error paths: each is refused whole, so the graph, its version and
	// /stats' applied count stay where the delete left them.
	applied := func() uint64 {
		rec := httptest.NewRecorder()
		sv.handleStats(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		var stats struct {
			Mutations struct {
				Applied uint64 `json:"applied"`
			} `json:"mutations"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
			t.Fatalf("%v: %s", err, rec.Body.String())
		}
		return stats.Mutations.Applied
	}
	edges1, version1, applied1 := sv.eng.Edges(), sv.eng.GraphVersion(), applied()
	for _, tc := range []struct {
		body   string
		status int
	}{
		{`{`, http.StatusBadRequest},
		{`{"mutations":[]}`, http.StatusBadRequest},
		{`{"mutations":[{"op":"upsert","from":1,"to":2}]}`, http.StatusBadRequest},
		{`{"mutations":[{"op":"insert","from":1,"to":999999,"weight":1}]}`, http.StatusUnprocessableEntity},
		{`{"mutations":[{"op":"insert","from":1,"to":2,"weight":134217729}]}`, http.StatusUnprocessableEntity}, // above core.MaxWeight
		{`{"mutations":[{"op":"delete","from":1,"to":200}]}`, http.StatusUnprocessableEntity},                  // already gone
		{`{"mutations":[{"op":"insert","from":1,"to":2,"weight":3},{"op":"delete","from":1,"to":200}]}`, http.StatusUnprocessableEntity},
	} {
		rec := httptest.NewRecorder()
		sv.handleEdges(rec, httptest.NewRequest(http.MethodPost, "/edges", strings.NewReader(tc.body)))
		if rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.body, rec.Code, tc.status, rec.Body.String())
		}
		if e, v, a := sv.eng.Edges(), sv.eng.GraphVersion(), applied(); e != edges1 || v != version1 || a != applied1 {
			t.Errorf("%s: %d edges at v%d, %d applied; want %d at v%d, %d", tc.body, e, v, a, edges1, version1, applied1)
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

	postQuery(t, sv, bsdjQuery)
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
		Pool map[string]uint64 `json:"pool"`
		Temp struct {
			IO    map[string]uint64
			Pages int
		} `json:"temp"`
	}
	if err := json.Unmarshal(stats["db"], &db); err != nil {
		t.Fatalf("db section: %v", err)
	}
	// A search's scratch set is a TEMPORARY table set: its pages are the
	// temp space's.
	if db.Temp.Pages == 0 || db.Temp.IO == nil {
		t.Errorf("stats: db.temp %+v, want the scratch set's pages", db.Temp)
	}
	// Loading and searching return pages (DROP, truncation) and take them
	// back; none is leaked, and every pin was released exactly once.
	if p := db.Pool; p["Recycled"] == 0 || p["Leaked"] != 0 {
		t.Errorf("stats: db.pool %v, want pages recycled and none leaked", p)
	}
	for _, k := range []string{"Free", "BadUnpins"} {
		if _, ok := db.Pool[k]; !ok {
			t.Errorf("stats: db.pool %v has no %s count", db.Pool, k)
		}
	}
	if n := db.Pool["BadUnpins"]; n != 0 {
		t.Errorf("stats: db.pool counts %d unbalanced Unpin calls", n)
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
		postQuery(t, sv, bsdjQuery)
		postQuery(t, sv, `{"source":1,"target":200,"alg":"ALT"}`)
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

// TestQueryEndpoint: the POST /query single form, auto planning, tolerance
// answers and input validation; TestBatchEndpoint covers the batch form.
func TestQueryEndpoint(t *testing.T) {
	sv := newOracleServer(t)
	if _, err := sv.eng.BuildSegTable(20); err != nil {
		t.Fatal(err)
	}

	// Single query, no alg: the planner decides, and says so.
	resp, code := postQuery(t, sv, `{"source":1,"target":200}`)
	if code != http.StatusOK || !resp.Found || resp.Planner == "" || resp.Algo == "Auto" {
		t.Fatalf("auto query not planned: %d %+v", code, resp)
	}
	if resp.Lower == nil || resp.Upper == nil || *resp.Lower != resp.Distance {
		t.Fatalf("exact answer must carry closed bounds: %+v", resp)
	}

	// Tolerant query: with hub landmarks the oracle frequently answers
	// alone; either way the bounds must bracket the exact distance.
	tol, code := postQuery(t, sv, `{"source":1,"target":200,"alg":"auto","max_rel_error":100}`)
	if code != http.StatusOK || !tol.Found {
		t.Fatalf("tolerant query failed: %d %+v", code, tol)
	}
	if *tol.Lower > resp.Distance || *tol.Upper < resp.Distance {
		t.Fatalf("tolerant bounds [%d,%d] miss exact %d", *tol.Lower, *tol.Upper, resp.Distance)
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
	rec := httptest.NewRecorder()
	sv.handleQuery(rec, httptest.NewRequest(http.MethodGet, "/query", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /query: status %d", rec.Code)
	}
}

// TestBatchEndpoint: the POST /query batch form, with a per-item algorithm
// override, a pair asked before (answered from the cache) and one bad item.
func TestBatchEndpoint(t *testing.T) {
	sv := newTestServer(t)
	if _, code := postQuery(t, sv, `{"source":1,"target":200}`); code != http.StatusOK {
		t.Fatalf("priming query: status %d", code)
	}
	rec := httptest.NewRecorder()
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
	if r := out.Results[0]; !r.Cached || r.Statements != 0 {
		t.Errorf("a repeated pair must come from the cache with 0 statements: %+v", r)
	}
	if out.Results[2].Error == "" {
		t.Error("bad item must carry a per-item error")
	}
}

// stallCtx lets an index build take the engine's exclusive gate and then
// holds it there: the first cancellation poll made while a writer is
// active closes held and blocks until release is closed, after which the
// build is cancelled. A search queued behind it cannot finish in time.
type stallCtx struct {
	context.Context
	eng           *core.Engine
	held, release chan struct{}
	once          sync.Once
}

func (c *stallCtx) Err() error {
	if !c.eng.ConcurrencyStats().Gate.WriterActive {
		return nil
	}
	c.once.Do(func() { close(c.held); <-c.release })
	return context.Canceled
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

	// A timeout that cannot possibly be met: a stalled index build holds
	// the gate until the query has given up.
	stall := &stallCtx{Context: context.Background(), eng: sv.eng,
		held: make(chan struct{}), release: make(chan struct{})}
	built := make(chan error, 1)
	go func() { _, err := sv.eng.BuildSegTableContext(stall, 20); built <- err }()
	<-stall.held
	rec = httptest.NewRecorder()
	sv.handleQuery(rec, httptest.NewRequest(http.MethodPost, "/query",
		strings.NewReader(`{"source":1,"target":400,"timeout_ms":1}`)))
	close(stall.release)
	if err := <-built; !errors.Is(err, context.Canceled) {
		t.Fatalf("stalled build: %v, want context.Canceled", err)
	}
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

// TestSnapshotStatus: POST /admin/snapshot answers 409 only for what the
// engine refuses, 504 for a cancelled request and 500 for a failed write.
func TestSnapshotStatus(t *testing.T) {
	post := func(sv *server, ctx context.Context) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		sv.handleSnapshot(rec, httptest.NewRequest(http.MethodPost, "/admin/snapshot", nil).WithContext(ctx))
		return rec
	}
	if rec := post(newTestServer(t), context.Background()); rec.Code != http.StatusConflict ||
		!strings.Contains(rec.Body.String(), core.ErrNoDataDir.Error()) {
		t.Errorf("without -data-dir: %d %s, want 409 with %q", rec.Code, rec.Body, core.ErrNoDataDir)
	}

	dir := t.TempDir()
	db, err := rdb.Open(rdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	eng := core.NewEngine(db, core.Options{DataDir: dir})
	t.Cleanup(func() { eng.Close() })
	sv := newServer(eng)
	if rec := post(sv, context.Background()); rec.Code != http.StatusConflict ||
		!strings.Contains(rec.Body.String(), core.ErrNoGraph.Error()) {
		t.Errorf("no graph: %d %s, want 409 with %q", rec.Code, rec.Body, core.ErrNoGraph)
	}
	if err := eng.LoadGraph(graph.Power(200, 3, 42)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if rec := post(sv, ctx); rec.Code != http.StatusGatewayTimeout {
		t.Errorf("cancelled: %d %s, want 504", rec.Code, rec.Body)
	}
	if sv.cancelled.Load() != 1 {
		t.Errorf("cancelled snapshot not counted: %d", sv.cancelled.Load())
	}
	// A regular file where the snapshot directory belongs fails the write;
	// unlike a permission bit, root cannot write through it either.
	snaps := filepath.Join(dir, "snapshots")
	if err := os.RemoveAll(snaps); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snaps, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	if rec := post(sv, context.Background()); rec.Code != http.StatusInternalServerError {
		t.Errorf("snapshot directory is a file: %d %s, want 500", rec.Code, rec.Body)
	}
	if n := sv.errors.Load(); n != 3 {
		t.Errorf("errors = %d, want 3", n)
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
