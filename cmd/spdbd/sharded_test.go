package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/shard"
)

// TestShardedServer boots the server the way -shards does — shard.Open, then
// the same wiring main() performs — and drives the handlers every other test
// in this package drives: the server holds an engine, and nothing below the
// boot code knows it coordinates a partitioned graph.
func TestShardedServer(t *testing.T) {
	g := graph.Power(500, 3, 42)
	part, err := shard.Open(g, shard.Options{Shards: 2, Lthd: 20, Portals: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { part.Close() })
	sv := newServer(part.Engine(0), part, core.AlgBSDJ)

	do := func(h http.HandlerFunc, method, url, body string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(method, url, strings.NewReader(body)))
		return rec
	}
	checkPath := func(what string, resp pathResponse) {
		t.Helper()
		want := graph.MDJ(g, resp.Source, resp.Target)
		if resp.Error != "" || resp.Found != want.Found || resp.Found && resp.Distance != want.Distance {
			t.Fatalf("%s (%d,%d): found=%v distance=%d error=%q, MDJ says found=%v distance=%d",
				what, resp.Source, resp.Target, resp.Found, resp.Distance, resp.Error, want.Found, want.Distance)
		}
		if l, ok := g.PathLength(resp.Path); resp.Found && (!ok || l != want.Distance) {
			t.Fatalf("%s (%d,%d): path %v has length %d (valid=%v), want %d", what, resp.Source, resp.Target, resp.Path, l, ok, want.Distance)
		}
	}

	if rec := do(sv.handleReadyz, http.MethodGet, "/readyz", ""); rec.Code != http.StatusOK {
		t.Fatalf("/readyz: %d %s", rec.Code, rec.Body)
	}

	// Queries: the planner, a hint and a batch through POST /query, the
	// legacy adapter, all checked against the in-memory Dijkstra.
	pairs := graph.RandomQueries(g, 6, 7)
	var single pathResponse
	rec := do(sv.handleQuery, http.MethodPost, "/query", fmt.Sprintf(`{"source":%d,"target":%d}`, pairs[0][0], pairs[0][1]))
	if err := json.Unmarshal(rec.Body.Bytes(), &single); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("POST /query: %d %v %s", rec.Code, err, rec.Body)
	}
	checkPath("POST /query", single)
	if single.Algo != "BSEG" || single.Planner != core.DecisionBSEG {
		t.Errorf("auto on a sharded server with SegTables: algorithm %q planner %q, want the engine's BSEG / %q", single.Algo, single.Planner, core.DecisionBSEG)
	}
	var items []string
	for _, p := range pairs[1:] {
		items = append(items, fmt.Sprintf(`{"source":%d,"target":%d,"alg":"BSDJ"}`, p[0], p[1]))
	}
	var batch struct {
		Results []pathResponse `json:"results"`
	}
	rec = do(sv.handleQuery, http.MethodPost, "/query", `{"workers":2,"queries":[`+strings.Join(items, ",")+`]}`)
	if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil || rec.Code != http.StatusOK || len(batch.Results) != len(items) {
		t.Fatalf("POST /query batch: %d %v %s", rec.Code, err, rec.Body)
	}
	for _, r := range batch.Results {
		checkPath("POST /query batch", r)
	}
	var legacy pathResponse
	rec = do(sv.handleShortestPath, http.MethodGet, fmt.Sprintf("/shortest-path?s=%d&t=%d", pairs[1][0], pairs[1][1]), "")
	if err := json.Unmarshal(rec.Body.Bytes(), &legacy); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("GET /shortest-path: %d %v %s", rec.Code, err, rec.Body)
	}
	checkPath("GET /shortest-path", legacy)

	// What needs the whole graph in one database: 409 carrying the engine's
	// sentinel, counted as one error each. (mode=approx dereferenced a nil
	// engine before the server held one engine.)
	refusals := []struct {
		h                 http.HandlerFunc
		method, url, body string
	}{
		{sv.handleShortestPath, http.MethodGet, "/shortest-path?s=1&t=200&mode=approx", ""},
		{sv.handleDistance, http.MethodGet, "/distance?s=1&t=200", ""},
		{sv.handleEdges, http.MethodPost, "/edges", `{"mutations":[{"op":"insert","from":1,"to":2,"weight":3}]}`},
		{sv.handleSnapshot, http.MethodPost, "/admin/snapshot", ""},
	}
	for _, r := range refusals {
		before := sv.errors.Load()
		rec := do(r.h, r.method, r.url, r.body)
		if rec.Code != http.StatusConflict || !strings.Contains(rec.Body.String(), core.ErrPartitioned.Error()) {
			t.Errorf("%s %s: %d %s, want 409 with %q", r.method, r.url, rec.Code, rec.Body, core.ErrPartitioned)
		}
		if got := sv.errors.Load() - before; got != 1 {
			t.Errorf("%s %s: errors moved by %d, want 1", r.method, r.url, got)
		}
	}
	// A hint the partitioned graph cannot run is the query's own 422.
	if rec := do(sv.handleShortestPath, http.MethodGet, "/shortest-path?s=1&t=200&alg=ALT", ""); rec.Code != http.StatusUnprocessableEntity ||
		!strings.Contains(rec.Body.String(), core.ErrUnsupportedSuperstep.Error()) {
		t.Errorf("alg=ALT: %d %s, want 422 with %q", rec.Code, rec.Body, core.ErrUnsupportedSuperstep)
	}

	// /stats: the single-engine document, about the whole graph, plus shard.
	var stats struct {
		Graph struct {
			Nodes   int   `json:"nodes"`
			Edges   int   `json:"edges"`
			SegLthd int64 `json:"seg_lthd"`
		} `json:"graph"`
		Server struct {
			Served   uint64            `json:"queries_served"`
			Planner  map[string]uint64 `json:"planner_decisions"`
			Requests uint64            `json:"requests"`
		} `json:"server"`
		Concurrency *core.ConcurrencyStats `json:"concurrency"`
		Cache       *struct{}              `json:"cache"`
		DB          *struct{}              `json:"db"`
		Mutations   *struct{}              `json:"mutations"`
		Durability  *struct{}              `json:"durability"`
		Shard       *shard.Stats           `json:"shard"`
	}
	rec = do(sv.handleStats, http.MethodGet, "/stats", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("/stats: %d %v %s", rec.Code, err, rec.Body)
	}
	if stats.Concurrency == nil || stats.Cache == nil || stats.DB == nil || stats.Mutations == nil || stats.Durability == nil || stats.Shard == nil {
		t.Fatalf("/stats lacks a block: %s", rec.Body)
	}
	if stats.Graph.Nodes != int(g.N) || stats.Graph.Edges != g.M() || stats.Graph.SegLthd != 20 {
		t.Errorf("/stats graph: %+v, want the whole graph's %d nodes / %d edges at lthd 20", stats.Graph, g.N, g.M())
	}
	if want := uint64(1 + len(items) + 1); stats.Server.Served != want || stats.Server.Planner[core.DecisionBSEG] != 1 {
		t.Errorf("/stats server: %+v, want %d served and one %q decision", stats.Server, want, core.DecisionBSEG)
	}
	if got := stats.Concurrency.Gate.SharedAdmits; got != stats.Server.Served {
		t.Errorf("/stats concurrency: %d shared admissions at the coordinator for %d searches", got, stats.Server.Served)
	}
	if sh := stats.Shard; sh.Shards != 2 || sh.CutEdges == 0 || sh.Portals == 0 || sh.Supersteps == 0 ||
		sh.Exchanged == 0 || len(sh.PerShard) != 2 || sh.PerShard[1].Statements == 0 {
		t.Errorf("/stats shard: %+v", *sh)
	}

	// /metrics: every engine family and the partition families on one valid page.
	rec = do(sv.handleMetrics, http.MethodGet, "/metrics", "")
	page := rec.Body.String()
	if err := obs.CheckExposition(page); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d, exposition: %v\n%s", rec.Code, err, page)
	}
	for _, want := range []string{
		`spdb_query_duration_seconds_count{algorithm="BSDJ"} 6`,
		`spdb_query_duration_seconds_count{algorithm="BSEG"} 1`,
		`spdb_query_errors_total 1`,
		`spdb_gate_admissions_total{mode="shared"} 7`,
		`spdb_scratch_live 0`,
		`spdb_plan_cache_hits_total`,
		fmt.Sprintf(`spdb_graph_edges %d`, g.M()),
		`spdb_shard_count 2`,
		`spdb_shard_supersteps_total`,
		`spdb_shard_exchanged_candidates_total`,
		`spdb_shard_statements_total{shard="1"}`,
		`spdb_queries_served_total 7`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, gone := range []string{"spdb_shard_queries_total", "spdb_shard_query_errors_total", "spdb_shard_query_seconds"} {
		if strings.Contains(page, gone) {
			t.Errorf("/metrics still carries %s, replaced by the engine's own family", gone)
		}
	}
}
