// Command spdbd is the shortest path database server: it loads or generates
// a graph into the embedded relational engine and serves shortest path
// queries over HTTP to any number of concurrent clients. It is the online
// half of the system — the offline half (SegTable construction, bulk load)
// runs at startup — and leans on the engine's path cache for throughput:
// repeated queries are answered from memory without touching the database.
//
// Endpoints, one per capability:
//
//	POST /query                 one query or a batch (see below)
//	GET  /distance?s=17&t=4711  [lower, upper] landmark interval, no search
//	POST /edges                 {"mutations":[{"op":"insert","from":1,"to":2,"weight":3},
//	                             {"op":"delete","from":4,"to":5},
//	                             {"op":"update","from":6,"to":7,"weight":9}]}
//	POST /admin/snapshot        write a versioned snapshot now (-data-dir only)
//	GET  /stats                 engine, cache, DB, mutation and server counters
//	GET  /metrics               Prometheus text exposition (all layers)
//	GET  /healthz               liveness (200 while the process serves)
//	GET  /readyz                readiness (503 until the graph is loaded
//	                            and no index build is in flight)
//	GET  /debug/slowlog         recent queries over the -slow-query threshold
//
// A request body is read up to 1 MiB; a longer one is answered 413. It
// must be exactly one JSON value naming only the fields its endpoint reads,
// or it is answered 400.
//
// POST /query is the only search endpoint. A request names the endpoints
// and, optionally, an algorithm (default "auto": the engine's cost-based
// planner chooses), an error tolerance that allows landmark-oracle-only
// answers, a statement budget, and a per-request timeout:
//
//	{"source":17,"target":4711,"alg":"auto","max_rel_error":0.1,
//	 "max_statements":50000,"timeout_ms":250}
//	{"queries":[{"source":1,"target":2},{"source":3,"target":4}],"workers":4}
//
// A batch runs on at most GOMAXPROCS workers, whatever "workers" asks.
//
// Every query runs under the request's context: when the client
// disconnects or the timeout fires, the engine abandons the search within
// one frontier iteration (504 on timeout) instead of holding its query
// gate admission. /stats reports planner_decisions (what "auto" chose) and
// queries_cancelled (how often deadlines or disconnects fired).
//
// POST /query?debug=trace additionally attaches a stage-timing trace to
// each answer — gate wait, planning, SQL execution, frontier loop — the
// same decomposition the per-algorithm latency histograms on /metrics and
// the -slow-query ring use (docs/ARCHITECTURE.md §Observability).
//
// POST /edges applies the whole batch atomically with respect to queries:
// one exclusive gate admission, one version bump, one cache purge. Deleted
// and re-weighted edges repair the SegTable incrementally (falling back to
// a rebuild past the engine's repair threshold), so BSEG keeps answering
// exactly without a manual rebuild. Any mutation invalidates the landmark
// oracle; /stats reports oracle_invalidated until the operator rebuilds
// (restart with -landmarks, or accept exact-only service). The hub-label
// index (-labels) is hardier: a per-mutation keep-analysis proves most
// redundant changes harmless and keeps the index live, and only changes it
// cannot absorb send it cold (/stats labels_invalidated).
//
// The hub-label (2-hop) index (-labels) answers exact distances with one
// merge-join over two label scans — microseconds instead of a frontier
// loop — and the cost-based planner prefers it for every exact query while
// it is valid.
//
// Approximate answers come from the landmark oracle (-landmarks): they
// bracket the distance by landmark triangulation without touching the edge
// relation, so they stay microsecond-fast while exact searches run.
//
// With -data-dir the server is durable: every mutation batch is logged to
// a write-ahead log (fsynced before it applies), POST /admin/snapshot and
// the -snapshot-every ticker write versioned snapshots of the graph and
// every built index, and startup hydrates from the newest snapshot plus
// the WAL suffix — skipping CSV ingest and every index rebuild — falling
// back to -gen/-load only when the directory holds no snapshot yet.
//
// Examples:
//
//	spdbd -gen power:20000:3 -lthd 20 -landmarks 16 -labels -addr :8080
//	spdbd -gen power:20000:3 -lthd 20 -data-dir /var/lib/spdb -snapshot-every 5m
//	curl -X POST localhost:8080/query -d '{"source":17,"target":4711,"timeout_ms":250}'
//	curl -X POST localhost:8080/query -d '{"source":17,"target":4711,"max_rel_error":0.1}'
//	curl -X POST localhost:8080/query -d '{"queries":[{"source":1,"target":2,"alg":"BSDJ"}]}'
//	curl 'localhost:8080/distance?s=17&t=4711'
//	curl -X POST localhost:8080/edges -d '{"mutations":[{"op":"delete","from":17,"to":18}]}'
//
// The server shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// get a drain window before the listener closes.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/rdb"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "spdbd: "+format+"\n", args...)
	os.Exit(1)
}

// server holds the shared serving state: one engine and the request
// counters.
type server struct {
	eng   *core.Engine
	start time.Time

	requests atomic.Uint64
	errors   atomic.Uint64
	served   atomic.Uint64 // individual queries answered (batch counts each)
	// byAlg counts answered queries per algorithm (indexed by Algorithm);
	// approx counts landmark-interval answers, which run no algorithm.
	byAlg  [algSlots]atomic.Uint64
	approx atomic.Uint64
	// cancelled counts queries that died on a deadline, timeout or client
	// disconnect — operators read it against queries_served to see whether
	// the fleet's timeouts are tight enough to matter.
	cancelled atomic.Uint64
	// planner counts the cost-based planner's decisions for alg=auto
	// traffic (keyed by the engine's Decision* labels), so operators can
	// see what the planner is actually choosing.
	plannerMu sync.Mutex
	planner   map[string]uint64
	// mutations counts applied edge mutations (the engine keeps the
	// detailed per-op and repair counters).
	mutations atomic.Uint64
	// inflight gauges queries currently executing (batch items count
	// individually); /metrics exports it as spdb_queries_in_flight.
	inflight atomic.Int64

	// reg is the /metrics registry (engine + database + this server);
	// slowlog is the -slow-query ring, nil when the flag is off.
	reg     *obs.Registry
	slowlog *obs.SlowLog
}

// notePlanner records one planner decision (auto traffic only: explicit
// hints are already visible in queries_by_algorithm).
func (sv *server) notePlanner(decision string) {
	if decision == "" || decision == core.DecisionHint {
		return
	}
	sv.plannerMu.Lock()
	if sv.planner == nil {
		sv.planner = map[string]uint64{}
	}
	sv.planner[decision]++
	sv.plannerMu.Unlock()
}

// plannerDecisions snapshots the decision counters.
func (sv *server) plannerDecisions() map[string]uint64 {
	sv.plannerMu.Lock()
	defer sv.plannerMu.Unlock()
	out := make(map[string]uint64, len(sv.planner))
	for k, v := range sv.planner {
		out[k] = v
	}
	return out
}

// noteQueryError classifies an engine error: cancellations (deadline,
// timeout, client disconnect) count separately and map to 504, everything
// else to 422.
func (sv *server) noteQueryError(err error) int {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		sv.cancelled.Add(1)
		return http.StatusGatewayTimeout
	}
	return http.StatusUnprocessableEntity
}

// algSlots bounds the per-algorithm counter array; core.AlgLabel is the
// highest algorithm id.
const algSlots = int(core.AlgLabel) + 1

func (sv *server) countAlg(alg core.Algorithm) {
	if int(alg) < algSlots {
		sv.byAlg[alg].Add(1)
	}
}

// queriesByAlgorithm snapshots the per-algorithm counters, only reporting
// algorithms that served traffic.
func (sv *server) queriesByAlgorithm() map[string]uint64 {
	out := map[string]uint64{}
	for i := 0; i < algSlots; i++ {
		if n := sv.byAlg[i].Load(); n > 0 {
			out[core.Algorithm(i).String()] = n
		}
	}
	if n := sv.approx.Load(); n > 0 {
		out["approx"] = n
	}
	return out
}

// pathResponse is the JSON answer for one POST /query item.
type pathResponse struct {
	Source int64 `json:"source"`
	Target int64 `json:"target"`
	// Algo is the algorithm that actually ran — under alg=auto the
	// planner's choice, "Auto" when the landmark oracle answered alone.
	Algo string `json:"algorithm"`
	// Planner is the planner's decision label for auto queries
	// ("bseg", "alt-weak-seg", "oracle-approx", ...); empty for hints.
	Planner string `json:"planner,omitempty"`
	Found   bool   `json:"found"`
	// Distance is exact, or the oracle upper bound when Approximate.
	Distance int64 `json:"distance,omitempty"`
	// Approximate marks an oracle-only answer within the requested
	// max_rel_error; Lower/Upper bracket the true distance.
	Approximate bool    `json:"approximate,omitempty"`
	Lower       *int64  `json:"lower,omitempty"`
	Upper       *int64  `json:"upper,omitempty"`
	Path        []int64 `json:"path,omitempty"`
	Cached      bool    `json:"cached"`
	// Statements is the number of SQL statements the query issued
	// (0 on a cache hit).
	Statements int `json:"statements"`
	// Iterations counts frontier rounds the search used.
	Iterations int    `json:"iterations,omitempty"`
	DurationUS int64  `json:"duration_us"`
	Error      string `json:"error,omitempty"`
	// Trace is the ?debug=trace stage-timing timeline (nil otherwise).
	Trace *queryTrace `json:"trace,omitempty"`
}

// distanceResponse is the JSON answer for an approximate-distance query:
// the interval [lower, upper] always contains the exact distance. Upper is
// omitted when no landmark certifies a path; unreachable is a proof that
// no path exists at all.
type distanceResponse struct {
	Source      int64  `json:"source"`
	Target      int64  `json:"target"`
	Mode        string `json:"mode"`
	Lower       int64  `json:"lower"`
	Upper       *int64 `json:"upper,omitempty"`
	Exact       bool   `json:"exact"`
	Unreachable bool   `json:"unreachable"`
	DurationUS  int64  `json:"duration_us"`
	Error       string `json:"error,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// maxBodyBytes bounds every request body, and so every batch: a query item
// or a mutation is under 100 bytes of JSON, so this is some ten thousand of
// them, far above what any client of this repository sends in one request.
const maxBodyBytes = 1 << 20

// decodeBody decodes r's JSON body into v, reading at most maxBodyBytes of
// it. The body must be exactly one JSON value, naming no field v does not
// have: a misspelt field would otherwise read as its zero value, and a
// second value would go unanswered. On failure it answers the request
// itself — 413 for a body over the bound, 400 for one that is not the JSON
// asked for — counts the error and returns false.
func (sv *server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		if err == nil {
			err = errors.New("the body holds more than one JSON value")
		}
	}
	sv.errors.Add(1)
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeJSON(w, http.StatusRequestEntityTooLarge, map[string]string{
			"error": fmt.Sprintf("request body over %d bytes", maxBodyBytes)})
		return false
	}
	writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad JSON: " + err.Error()})
	return false
}

// answer runs one declarative query under ctx and renders the response,
// maintaining the serving counters. status is the HTTP code the caller
// should write (200, 422, or 504 for a deadline/disconnect). trace attaches
// the ?debug=trace stage timeline to the answer.
func (sv *server) answer(ctx context.Context, req core.QueryRequest, trace bool) (pathResponse, int) {
	sv.inflight.Add(1)
	defer sv.inflight.Add(-1)
	t0 := time.Now()
	res, err := sv.eng.Query(ctx, req)
	wall := time.Since(t0)
	if err != nil {
		sv.noteSlow(req, res.Stats, wall, err.Error())
		return pathResponse{
			Source:     req.Source,
			Target:     req.Target,
			Algo:       req.Alg.String(),
			DurationUS: wall.Microseconds(),
			Error:      err.Error(),
		}, sv.noteQueryError(err)
	}
	sv.noteSlow(req, res.Stats, wall, "")
	resp := sv.renderResult(req, res, trace)
	resp.DurationUS = wall.Microseconds()
	return resp, http.StatusOK
}

// answerApprox serves a landmark-interval answer. status is the HTTP code
// the caller should write; cancellations classify like POST /query's
// (504 + queries_cancelled) rather than a generic 422.
func (sv *server) answerApprox(ctx context.Context, s, t int64) (distanceResponse, int) {
	t0 := time.Now()
	iv, err := sv.eng.DistanceInterval(ctx, s, t)
	resp := distanceResponse{
		Source:     s,
		Target:     t,
		Mode:       "approx",
		DurationUS: time.Since(t0).Microseconds(),
	}
	if err != nil {
		resp.Error = err.Error()
		return resp, sv.noteQueryError(err)
	}
	if iv.Unreachable() {
		resp.Unreachable = true
	} else {
		resp.Lower = iv.Lower
		if iv.UpperKnown() {
			u := iv.Upper
			resp.Upper = &u
			resp.Exact = iv.Exact()
		}
	}
	sv.served.Add(1)
	sv.approx.Add(1)
	return resp, http.StatusOK
}

// handleDistance serves GET /distance: the approximate [lower, upper]
// interval from the landmark oracle.
func (sv *server) handleDistance(w http.ResponseWriter, r *http.Request) {
	sv.requests.Add(1)
	if r.Method != http.MethodGet {
		sv.errors.Add(1)
		w.Header().Set("Allow", "GET")
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "use GET"})
		return
	}
	q := r.URL.Query()
	s, errS := strconv.ParseInt(q.Get("s"), 10, 64)
	t, errT := strconv.ParseInt(q.Get("t"), 10, 64)
	if errS != nil || errT != nil {
		sv.errors.Add(1)
		writeJSON(w, http.StatusBadRequest, map[string]string{
			"error": "need integer query parameters s and t"})
		return
	}
	resp, status := sv.answerApprox(r.Context(), s, t)
	if status != http.StatusOK {
		sv.errors.Add(1)
	}
	writeJSON(w, status, resp)
}

// mutationSpec is one edge change in a POST /edges body.
type mutationSpec struct {
	Op     string `json:"op"` // insert | delete | update
	From   int64  `json:"from"`
	To     int64  `json:"to"`
	Weight int64  `json:"weight,omitempty"`
}

// mutationRequest is the POST /edges body: a batch of mutations applied
// under one latch acquisition and one version bump.
type mutationRequest struct {
	Mutations []mutationSpec `json:"mutations"`
}

// mutationResponse reports one applied batch.
type mutationResponse struct {
	Applied int `json:"applied"`
	// Affected counts SegTable rows improved by insertions plus rows in
	// decremental touch sets; Repaired the rows re-materialized in place.
	Affected int64 `json:"affected"`
	Repaired int64 `json:"repaired"`
	// Rebuilt reports a threshold-exceeded fallback to a full index build.
	Rebuilt bool `json:"rebuilt"`
	// OracleInvalidated warns that this batch killed the landmark oracle:
	// approx/ALT answers refuse until it is rebuilt.
	OracleInvalidated bool `json:"oracle_invalidated"`
	// LabelsInvalidated warns that this batch failed the hub-label
	// keep-analysis: LABEL answers (and the planner's labels preference)
	// refuse until the index is rebuilt.
	LabelsInvalidated bool   `json:"labels_invalidated"`
	Version           uint64 `json:"version"`
	Statements        int    `json:"statements"`
	DurationUS        int64  `json:"duration_us"`
	Error             string `json:"error,omitempty"`
}

// handleEdges serves POST /edges: batched inserts, deletes and weight
// updates with incremental SegTable repair. A batch is all or nothing: one
// with a node out of range, a weight out of bounds, or a delete or update
// of a pair with no edge is answered 422 and applies nothing.
func (sv *server) handleEdges(w http.ResponseWriter, r *http.Request) {
	sv.requests.Add(1)
	if r.Method != http.MethodPost {
		sv.errors.Add(1)
		w.Header().Set("Allow", "POST")
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "use POST"})
		return
	}
	var req mutationRequest
	if !sv.decodeBody(w, r, &req) {
		return
	}
	if len(req.Mutations) == 0 {
		sv.errors.Add(1)
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "empty mutation batch"})
		return
	}
	muts := make([]core.Mutation, len(req.Mutations))
	for i, m := range req.Mutations {
		op, err := core.ParseMutOp(m.Op)
		if err != nil {
			sv.errors.Add(1)
			writeJSON(w, http.StatusBadRequest, map[string]string{
				"error": fmt.Sprintf("mutation %d: %v", i, err)})
			return
		}
		muts[i] = core.Mutation{Op: op, From: m.From, To: m.To, Weight: m.Weight}
	}
	t0 := time.Now()
	st, err := sv.eng.ApplyMutations(muts)
	resp := mutationResponse{DurationUS: time.Since(t0).Microseconds()}
	if st != nil {
		// A refused batch has no stats. Stats beside an error come from an
		// execution error that stopped a logged batch mid-way: Applied is
		// the prefix that persisted.
		resp.Applied = st.Applied
		resp.Affected = st.Affected
		resp.Repaired = st.Repaired
		resp.Rebuilt = st.Rebuilt
		resp.OracleInvalidated = st.OracleInvalidated
		resp.LabelsInvalidated = st.LabelsInvalidated
		resp.Statements = st.Statements
		// The version this batch committed as, snapshotted under its
		// exclusive gate admission — GraphVersion() here could already
		// belong to a concurrent later batch.
		resp.Version = st.Version
		// Count what persisted, such a prefix included, as the engine's
		// own per-op counters do.
		sv.mutations.Add(uint64(st.Applied))
	}
	if err != nil {
		sv.errors.Add(1)
		resp.Error = err.Error()
		writeJSON(w, sv.noteQueryError(err), resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSnapshot serves POST /admin/snapshot: write a versioned snapshot
// of the graph and every built index right now. 409 when the engine refuses
// (no -data-dir, no graph), 504 when the request is cancelled, 500 when the
// write itself fails. A snapshot of an unmoved graph version reports
// skipped=true and costs nothing.
func (sv *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	sv.requests.Add(1)
	if r.Method != http.MethodPost {
		sv.errors.Add(1)
		w.Header().Set("Allow", "POST")
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "use POST"})
		return
	}
	st, err := sv.eng.Snapshot(r.Context())
	if err != nil {
		sv.errors.Add(1)
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, core.ErrNoDataDir) || errors.Is(err, core.ErrNoGraph):
			code = http.StatusConflict
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			code = sv.noteQueryError(err)
		}
		writeJSON(w, code, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// runBatch answers a request set through the engine's worker pool under
// ctx and renders the shared batch response shape. trace attaches the
// ?debug=trace stage timeline to every item.
func (sv *server) runBatch(ctx context.Context, reqs []core.QueryRequest, workers int, trace bool) map[string]any {
	sv.inflight.Add(int64(len(reqs)))
	defer sv.inflight.Add(-int64(len(reqs)))
	t0 := time.Now()
	results := sv.eng.QueryBatch(ctx, reqs, workers)
	out := make([]pathResponse, len(results))
	for i, res := range results {
		if res.Err != nil {
			out[i] = pathResponse{
				Source: res.Request.Source,
				Target: res.Request.Target,
				Algo:   res.Request.Alg.String(),
				Error:  res.Err.Error(),
			}
			sv.errors.Add(1)
			sv.noteQueryError(res.Err)
			sv.noteSlow(res.Request, res.Result.Stats, 0, res.Err.Error())
			continue
		}
		out[i] = sv.renderResult(res.Request, res.Result, trace)
		// Batch items carry no individual wall measurement; noteSlow falls
		// back to the stats-derived gate+plan+search sum.
		sv.noteSlow(res.Request, res.Result.Stats, 0, "")
	}
	return map[string]any{
		"results":     out,
		"duration_us": time.Since(t0).Microseconds(),
	}
}

// renderResult converts one successful QueryResult, maintaining counters
// (the single-query path goes through answer, which also measures latency).
// trace attaches the stage-timing timeline.
func (sv *server) renderResult(req core.QueryRequest, res core.QueryResult, trace bool) pathResponse {
	resp := pathResponse{
		Source:      req.Source,
		Target:      req.Target,
		Algo:        res.Algorithm.String(),
		Found:       res.Found,
		Distance:    res.Distance,
		Approximate: res.Approximate,
		Path:        res.Path.Nodes,
	}
	if res.Found || res.Approximate {
		l, u := res.Lower, res.Upper
		resp.Lower, resp.Upper = &l, &u
	}
	if qs := res.Stats; qs != nil {
		if qs.Planner != core.DecisionHint {
			resp.Planner = qs.Planner
		}
		resp.Cached = qs.CacheHit
		resp.Statements = qs.Statements
		resp.Iterations = qs.Iterations
		if req.Alg == core.AlgAuto {
			sv.notePlanner(qs.Planner)
		}
		if trace {
			resp.Trace = traceFromStats(qs)
		}
	}
	sv.served.Add(1)
	if res.Approximate {
		sv.approx.Add(1)
	} else {
		sv.countAlg(res.Algorithm)
	}
	return resp
}

// queryItem is one declarative query in a POST /query body.
type queryItem struct {
	Source        int64   `json:"source"`
	Target        int64   `json:"target"`
	Alg           string  `json:"alg,omitempty"`
	MaxRelError   float64 `json:"max_rel_error,omitempty"`
	MaxStatements int64   `json:"max_statements,omitempty"`
}

// queryRequestBody is the POST /query body: a single query, or a batch
// under "queries". TimeoutMS bounds the whole request; the client
// disconnecting cancels it either way.
type queryRequestBody struct {
	queryItem
	TimeoutMS int64       `json:"timeout_ms,omitempty"`
	Workers   int         `json:"workers,omitempty"`
	Queries   []queryItem `json:"queries,omitempty"`
}

// toRequest resolves one query item. An item that names no algorithm goes
// to the planner (AlgAuto), whatever -alg the server was started with.
func (sv *server) toRequest(it queryItem) (core.QueryRequest, error) {
	alg := core.AlgAuto
	if it.Alg != "" {
		var err error
		if alg, err = core.ParseAlgorithm(it.Alg); err != nil {
			return core.QueryRequest{}, err
		}
	}
	return core.QueryRequest{
		Source:        it.Source,
		Target:        it.Target,
		Alg:           alg,
		MaxRelError:   it.MaxRelError,
		MaxStatements: it.MaxStatements,
	}, nil
}

// handleQuery serves POST /query, the one search endpoint: a single query,
// or a batch under "queries". The request context (client disconnect) plus
// the optional timeout_ms bound every search: a dead client's query is
// abandoned within one frontier iteration instead of blocking the latch.
func (sv *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	sv.requests.Add(1)
	if r.Method != http.MethodPost {
		sv.errors.Add(1)
		w.Header().Set("Allow", "POST")
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "use POST"})
		return
	}
	var body queryRequestBody
	if !sv.decodeBody(w, r, &body) {
		return
	}
	ctx := r.Context()
	if body.TimeoutMS > 0 {
		// A timeout past what a Duration holds is as good as none; unclamped
		// it would wrap negative and time the request out at once.
		ms := min(body.TimeoutMS, math.MaxInt64/int64(time.Millisecond))
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
		defer cancel()
	}
	trace := r.URL.Query().Get("debug") == "trace"
	if len(body.Queries) == 0 {
		req, err := sv.toRequest(body.queryItem)
		if err != nil {
			sv.errors.Add(1)
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		resp, status := sv.answer(ctx, req, trace)
		if status != http.StatusOK {
			sv.errors.Add(1)
		}
		writeJSON(w, status, resp)
		return
	}
	reqs := make([]core.QueryRequest, len(body.Queries))
	for i, it := range body.Queries {
		req, err := sv.toRequest(it)
		if err != nil {
			sv.errors.Add(1)
			writeJSON(w, http.StatusBadRequest, map[string]string{
				"error": fmt.Sprintf("query %d: %v", i, err)})
			return
		}
		reqs[i] = req
	}
	// Each concurrent search holds a scratch-table set of its own, and a set
	// past the pool's is created and dropped by DDL that recompiles every
	// cached plan: more workers than processors only mint sets.
	workers := min(body.Workers, runtime.GOMAXPROCS(0))
	writeJSON(w, http.StatusOK, sv.runBatch(ctx, reqs, workers, trace))
}

// handleStats reports every layer's counters in one JSON document.
func (sv *server) handleStats(w http.ResponseWriter, r *http.Request) {
	sv.requests.Add(1)
	dbStats := sv.eng.DB().Stats()
	cacheStats := sv.eng.CacheStats()
	// Hit ratio over the lookups that could have hit (hits + misses);
	// 0 when the cache has seen no traffic.
	hitRatio := 0.0
	if lookups := cacheStats.Hits + cacheStats.Misses; lookups > 0 {
		hitRatio = float64(cacheStats.Hits) / float64(lookups)
	}
	graphStats := map[string]any{
		"nodes":    sv.eng.Nodes(),
		"edges":    sv.eng.Edges(),
		"wmin":     sv.eng.WMin(),
		"seg_lthd": sv.eng.SegLthd(),
		"version":  sv.eng.GraphVersion(),
		// oracle_invalidated warns operators that a mutation killed the
		// landmark oracle: approx/ALT traffic refuses until a rebuild.
		"oracle_invalidated": sv.eng.OracleInvalidated(),
		// labels_invalidated is the hub-label twin: a mutation the
		// keep-analysis could not absorb sent the 2-hop index cold.
		"labels_invalidated": sv.eng.LabelsInvalidated(),
	}
	if orc := sv.eng.Oracle(); orc != nil {
		graphStats["oracle"] = map[string]any{
			"landmarks": orc.Landmarks,
			"k":         orc.K,
			"rows":      orc.Rows,
		}
	}
	if lbl := sv.eng.Labels(); lbl != nil {
		graphStats["labels"] = map[string]any{
			"hubs":     lbl.Hubs,
			"rows_out": lbl.RowsOut,
			"rows_in":  lbl.RowsIn,
		}
	}
	doc := map[string]any{
		"server": map[string]any{
			"uptime_s":             int64(time.Since(sv.start).Seconds()),
			"requests":             sv.requests.Load(),
			"errors":               sv.errors.Load(),
			"queries_served":       sv.served.Load(),
			"queries_by_algorithm": sv.queriesByAlgorithm(),
			// planner_decisions shows what alg=auto actually chose
			// (engine Decision* labels); queries_cancelled how often
			// deadlines, timeouts or client disconnects killed a query.
			"planner_decisions": sv.plannerDecisions(),
			"queries_cancelled": sv.cancelled.Load(),
		},
		"graph": graphStats,
		"mutations": func() map[string]any {
			ms := sv.eng.MutationStats()
			return map[string]any{
				"applied":              sv.mutations.Load(),
				"inserts":              ms.Inserts,
				"deletes":              ms.Deletes,
				"updates":              ms.Updates,
				"batches":              ms.Batches,
				"seg_repairs":          ms.SegRepairs,
				"seg_rebuilds":         ms.SegRebuilds,
				"rows_repaired":        ms.RowsRepaired,
				"oracle_invalidations": ms.OracleInvalidations,
				"label_keeps":          ms.LabelKeeps,
				"label_invalidations":  ms.LabelInvalidations,
			}
		}(),
		// concurrency reports the query gate (parallel shared admissions
		// vs exclusive drains), the scratch-table pool, and the commit-time
		// version check's failures (0 unless the gate is broken).
		"concurrency": sv.eng.ConcurrencyStats(),
		// durability reports the WAL and snapshot counters (zero-valued
		// without -data-dir).
		"durability": sv.eng.DurabilityStats(),
		"cache": map[string]any{
			"hits":          cacheStats.Hits,
			"misses":        cacheStats.Misses,
			"hit_ratio":     hitRatio,
			"evictions":     cacheStats.Evictions,
			"invalidations": cacheStats.Invalidations,
			"entries":       cacheStats.Entries,
			"capacity":      cacheStats.Capacity,
		},
		"db": map[string]any{
			"statements":         dbStats.Statements,
			"session_statements": dbStats.SessionStatements,
			"sessions_opened":    dbStats.SessionsOpened,
			"active_sessions":    dbStats.ActiveSessions,
			"parse_plan_us":      dbStats.ParsePlanDur.Microseconds(),
			"exec_us":            dbStats.ExecDur.Microseconds(),
			"plan_cache": map[string]any{
				"hits":          dbStats.PlanCacheHits,
				"misses":        dbStats.PlanCacheMisses,
				"invalidations": dbStats.PlanCacheInvalidations,
				"entries":       dbStats.PlanCacheEntries,
				"schema_epoch":  dbStats.SchemaEpoch,
			},
			"pool": dbStats.Pool,
			"io":   dbStats.IO,
			"temp": dbStats.Temp,
		},
	}
	writeJSON(w, http.StatusOK, doc)
}

// newServer wires the serving state over an engine: the counters and the
// /metrics registry (engine, its database, the serving tier).
func newServer(eng *core.Engine) *server {
	sv := &server{eng: eng, start: time.Now(), reg: obs.NewRegistry()}
	sv.reg.Register(eng)
	sv.reg.Register(eng.DB())
	sv.reg.Register(sv)
	return sv
}

// handleHealthz is the liveness probe: 200 while the process can answer
// HTTP at all. Whether a graph is loaded or an index build is in flight is
// a readiness question — /readyz — not a liveness one: restarting a replica
// because it is mid-rebuild would only make it rebuild again.
func (sv *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// routes is what -addr serves.
func (sv *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", sv.handleQuery)
	mux.HandleFunc("/distance", sv.handleDistance)
	mux.HandleFunc("/edges", sv.handleEdges)
	mux.HandleFunc("/admin/snapshot", sv.handleSnapshot)
	mux.HandleFunc("/stats", sv.handleStats)
	mux.HandleFunc("/metrics", sv.handleMetrics)
	mux.HandleFunc("/healthz", sv.handleHealthz)
	mux.HandleFunc("/readyz", sv.handleReadyz)
	mux.HandleFunc("/debug/slowlog", sv.handleSlowlog)
	return mux
}

// debugRoutes is what -debug-addr serves: net/http/pprof's profiles, kept
// off the serving address, where any client could start a CPU profile or
// an execution trace.
func debugRoutes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		gen      = flag.String("gen", "", "generate a graph: power:N:D | random:N:M | dblp:PCT | web:PCT | lj:PERMILLE")
		load     = flag.String("load", "", "load a CSV graph (fid,tid,cost)")
		algName  = flag.String("alg", "BSDJ", "build at startup what this algorithm needs: BSEG a SegTable, ALT a landmark oracle, LABEL the hub labels; AUTO|DJ|BDJ|BSDJ|BBFS build nothing (queries name their own alg, default auto)")
		lthd     = flag.Int64("lthd", 0, "build SegTable with this threshold (required for BSEG)")
		lmk      = flag.Int("landmarks", 0, "build a landmark oracle with this many landmarks (required for ALT and /distance)")
		lbls     = flag.Bool("labels", false, "build the hub-label (2-hop) index at startup (required for LABEL; AUTO prefers it while valid)")
		cacheSz  = flag.Int("cache", 0, "path cache entries (0 = default, negative disables)")
		poolSz   = flag.Int("pool", 0, "buffer pool pages (0 = default)")
		seed     = flag.Int64("seed", 42, "generator seed")
		drainDur = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain window")
		slowThd  = flag.Duration("slow-query", 0, "log queries slower than this to /debug/slowlog (0 disables)")
		slowCap  = flag.Int("slow-query-log", obs.DefaultSlowLogSize, "slow-query ring capacity")
		dataDir  = flag.String("data-dir", "", "durability directory: WAL every mutation, hydrate from snapshots at startup")
		snapEvry = flag.Duration("snapshot-every", 0, "write a snapshot at this interval (-data-dir only, 0 disables)")
		snapExit = flag.Bool("snapshot-on-exit", true, "write a final snapshot during graceful shutdown (-data-dir only)")
		dbgAddr  = flag.String("debug-addr", "", "serve net/http/pprof's /debug/pprof/ on this second address (empty disables)")
	)
	flag.Parse()

	var g *graph.Graph
	var err error
	switch {
	case *gen != "":
		g, err = graph.ParseGen(*gen, *seed)
	case *load != "":
		g, err = graph.LoadFile(*load)
	default:
		if *dataDir == "" {
			fail("need -gen or -load (try -gen power:10000:3), or -data-dir with a snapshot")
		}
	}
	if err != nil {
		fail("%v", err)
	}
	alg, err := core.ParseAlgorithm(*algName)
	if err != nil {
		fail("%v", err)
	}

	// -alg BSEG implies a SegTable (ALT an oracle, LABEL the labels: below).
	th := *lthd
	if th <= 0 && alg == core.AlgBSEG {
		th = core.DefaultLthd
	}

	var eng *core.Engine
	db, err := rdb.Open(rdb.Options{BufferPoolPages: *poolSz})
	if err != nil {
		fail("%v", err)
	}
	defer db.Close()
	engOpts := core.Options{CacheSize: *cacheSz, DataDir: *dataDir}

	// Startup prefers hydration: the newest snapshot plus the WAL suffix
	// restores the graph AND every index recorded in the manifest without
	// re-ingesting CSV or rebuilding anything. Only when the data
	// directory holds no snapshot yet does the server fall back to
	// -gen/-load, and then it writes the first snapshot itself (below) so
	// the next start hydrates.
	if *dataDir != "" {
		e, err := core.OpenFromSnapshot(db, engOpts)
		switch {
		case err == nil:
			eng = e
			ds := eng.DurabilityStats()
			fmt.Printf("spdbd: hydrated %d nodes / %d edges from snapshot v%d (+%d WAL records replayed)\n",
				eng.Nodes(), eng.Edges(), ds.LastSnapshotVersion, ds.ReplayedRecords)
		case errors.Is(err, core.ErrNoSnapshot):
			if g == nil {
				fail("%v (and no -gen/-load to fall back to)", err)
			}
			fmt.Printf("spdbd: no snapshot in %s, loading from scratch\n", *dataDir)
		default:
			fail("hydrate: %v", err)
		}
	}
	if eng == nil {
		eng = core.NewEngine(db, engOpts)
		fmt.Printf("spdbd: loading graph (%d nodes, %d edges)...\n", g.N, g.M())
		if err := eng.LoadGraph(g); err != nil {
			fail("load: %v", err)
		}
	}
	defer eng.Close()

	// Index builds run only when requested AND missing: a hydrated engine
	// already carries every index its snapshot recorded.
	if th > 0 && eng.SegLthd() == 0 {
		fmt.Printf("spdbd: building SegTable (lthd=%d)...\n", th)
		st, err := eng.BuildSegTable(th)
		if err != nil {
			fail("segtable: %v", err)
		}
		fmt.Printf("spdbd: %s\n", st)
	}
	if (*lmk > 0 || alg == core.AlgALT) && eng.Oracle() == nil {
		k := *lmk
		if k <= 0 {
			k = oracle.DefaultK
		}
		fmt.Printf("spdbd: building landmark oracle (k=%d)...\n", k)
		st, err := eng.BuildOracle(oracle.Config{K: k})
		if err != nil {
			fail("oracle: %v", err)
		}
		fmt.Printf("spdbd: %s\n", st)
	}
	if (*lbls || alg == core.AlgLabel) && eng.Labels() == nil {
		fmt.Println("spdbd: building hub-label index...")
		st, err := eng.BuildLabels()
		if err != nil {
			fail("labels: %v", err)
		}
		fmt.Printf("spdbd: %s\n", st)
	}
	if *dataDir != "" {
		// Persist the startup state (fresh load, or hydration plus any
		// just-built indexes); skipped for free when nothing moved. A
		// failure here is a warning, not fatal: the WAL still guards every
		// mutation, only hydration speed is lost.
		if st, err := eng.Snapshot(context.Background()); err != nil {
			fmt.Fprintf(os.Stderr, "spdbd: warning: startup snapshot failed: %v\n", err)
		} else if !st.Skipped {
			fmt.Printf("spdbd: snapshot v%d written (%d tables, %d bytes)\n", st.Version, st.Tables, st.Bytes)
		}
	}

	sv := newServer(eng)
	if *slowThd > 0 {
		sv.slowlog = obs.NewSlowLog(*slowThd, *slowCap)
	}
	// A client gets ten seconds to send its request headers: a connection
	// that dribbles them holds no server goroutine past that.
	srv := &http.Server{Addr: *addr, Handler: sv.routes(), ReadHeaderTimeout: 10 * time.Second}
	if *dbgAddr != "" {
		dbg := &http.Server{Addr: *dbgAddr, Handler: debugRoutes(), ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := dbg.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "spdbd: warning: -debug-addr: %v\n", err)
			}
		}()
		defer dbg.Close()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Periodic snapshots run until shutdown begins; the Snapshot skip
	// logic makes idle ticks free.
	snapCtx, stopSnaps := context.WithCancel(ctx)
	var snapWG sync.WaitGroup
	if *dataDir != "" && *snapEvry > 0 {
		snapWG.Add(1)
		go func() {
			defer snapWG.Done()
			tick := time.NewTicker(*snapEvry)
			defer tick.Stop()
			for {
				select {
				case <-snapCtx.Done():
					return
				case <-tick.C:
					if st, err := sv.eng.Snapshot(snapCtx); err != nil {
						fmt.Fprintf(os.Stderr, "spdbd: warning: periodic snapshot failed: %v\n", err)
					} else if !st.Skipped {
						fmt.Printf("spdbd: snapshot v%d written (%d tables, %d bytes)\n",
							st.Version, st.Tables, st.Bytes)
					}
				}
			}
		}()
	}

	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()
	fmt.Printf("spdbd: serving graph with %d nodes / %d edges on %s (-alg %s chose the startup indexes; queries default to auto)\n",
		eng.Nodes(), eng.Edges(), *addr, alg)

	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fail("%v", err)
		}
	case <-ctx.Done():
		// Graceful shutdown, in order:
		//  1. srv.Shutdown drains in-flight requests (bounded by -drain) —
		//     every accepted mutation is already WAL-fsynced when its
		//     handler responds, so nothing accepted can be lost after this.
		//  2. The periodic snapshot ticker stops (and is awaited), so no
		//     snapshot races the exit snapshot.
		//  3. An optional exit snapshot persists everything since the last
		//     one — the next start hydrates instead of replaying the WAL.
		//  4. The deferred engine Close runs last: final WAL fsync+close, then
		//     session and database teardown (buffer-pool flush).
		fmt.Println("spdbd: shutting down...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainDur)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fail("shutdown: %v", err)
		}
		stopSnaps()
		snapWG.Wait()
		if *dataDir != "" && *snapExit {
			if st, err := sv.eng.Snapshot(context.Background()); err != nil {
				fmt.Fprintf(os.Stderr, "spdbd: warning: exit snapshot failed: %v\n", err)
			} else if !st.Skipped {
				fmt.Printf("spdbd: exit snapshot v%d written\n", st.Version)
			}
		}
		fmt.Printf("spdbd: served %d queries in %d requests (%d errors)\n",
			sv.served.Load(), sv.requests.Load(), sv.errors.Load())
	}
	stopSnaps()
}
