package main

import (
	"net/http"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// The server's observability surface: GET /metrics (Prometheus text over
// the obs.Registry: engine, database and serving-tier collectors), GET
// /readyz (load-balancer readiness, distinct from /healthz liveness), and
// GET /debug/slowlog (the -slow-query ring). The per-query stage trace
// (?debug=trace on POST /query) also lives here.

// queryTrace is the optional stage-timing timeline attached to a query
// response when the client asks for ?debug=trace: where one request's wall
// time went, using the engine's QueryStats decomposition. sql_us is the
// statement-execution share (PE+SC+FPR); frontier_us is the Go-side search
// loop (total minus SQL). gate_wait_us and plan_us sit outside total_us,
// which is the search wall time the paper's experiments measure.
type queryTrace struct {
	GateWaitUS int64 `json:"gate_wait_us"`
	PlanUS     int64 `json:"plan_us"`
	SQLUS      int64 `json:"sql_us"`
	FrontierUS int64 `json:"frontier_us"`
	PEUS       int64 `json:"pe_us"`
	SCUS       int64 `json:"sc_us"`
	FPRUS      int64 `json:"fpr_us"`
	TotalUS    int64 `json:"total_us"`
}

// traceFromStats renders the stage timeline of one answered query.
func traceFromStats(qs *core.QueryStats) *queryTrace {
	if qs == nil {
		return nil
	}
	frontier := qs.Total - qs.SQLDur()
	if frontier < 0 {
		frontier = 0
	}
	return &queryTrace{
		GateWaitUS: qs.GateWait.Microseconds(),
		PlanUS:     qs.PlanDur.Microseconds(),
		SQLUS:      qs.SQLDur().Microseconds(),
		FrontierUS: frontier.Microseconds(),
		PEUS:       qs.PE.Microseconds(),
		SCUS:       qs.SC.Microseconds(),
		FPRUS:      qs.FPR.Microseconds(),
		TotalUS:    qs.Total.Microseconds(),
	}
}

// noteSlow offers one finished query to the slow-query ring. wall is the
// measured request duration where the caller has one (the single-query
// path); batch items pass 0 and the entry falls back to the stats-derived
// gate+plan+search sum, which is the same wall time minus render overhead.
func (sv *server) noteSlow(req core.QueryRequest, qs *core.QueryStats, wall time.Duration, errStr string) {
	if sv.slowlog == nil {
		return
	}
	e := obs.SlowQueryEntry{
		Time:     time.Now(),
		Source:   req.Source,
		Target:   req.Target,
		Duration: wall,
		Err:      errStr,
	}
	if qs != nil {
		if e.Duration == 0 {
			e.Duration = qs.GateWait + qs.PlanDur + qs.Total
		}
		e.Algorithm = qs.Algorithm
		if qs.Planner != core.DecisionHint {
			e.Planner = qs.Planner
		}
		e.GateWaitUS = qs.GateWait.Microseconds()
		e.PlanUS = qs.PlanDur.Microseconds()
		e.SQLUS = qs.SQLDur().Microseconds()
		e.Statements = qs.Statements
		e.Iterations = qs.Iterations
		e.Cached = qs.CacheHit
	} else {
		e.Algorithm = req.Alg.String()
	}
	sv.slowlog.Note(e)
}

// handleMetrics serves GET /metrics: the Prometheus text exposition of
// every registered collector (engine, database, serving tier).
func (sv *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		http.Error(w, "use GET", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := sv.reg.WritePrometheus(w); err != nil {
		// A collector bug, not a client error; the page may be partially
		// written, so all we can do is log-equivalent surfacing via 500.
		http.Error(w, "metrics: "+err.Error(), http.StatusInternalServerError)
	}
}

// handleReadyz serves GET /readyz: readiness, as opposed to /healthz
// liveness. Not ready (503) while no graph is loaded or any index build or
// graph load is in flight — a replica rebuilding its SegTable or oracle
// holds the exclusive gate and answers slowly or not at all, so load
// balancers should route elsewhere until the build lands.
func (sv *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if sv.eng.Nodes() == 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"ready": false, "reason": "no graph loaded"})
		return
	}
	if n := sv.eng.BuildsInFlight(); n > 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"ready": false, "reason": "index build in flight", "builds_in_flight": n})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}

// handleSlowlog serves GET /debug/slowlog: the ring of recent queries
// slower than the -slow-query threshold, newest first.
func (sv *server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	sv.requests.Add(1)
	if sv.slowlog == nil {
		writeJSON(w, http.StatusOK, map[string]any{
			"enabled": false,
			"hint":    "start spdbd with -slow-query=<duration> to record slow queries",
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled":      true,
		"threshold_us": sv.slowlog.Threshold().Microseconds(),
		"capacity":     sv.slowlog.Cap(),
		"total":        sv.slowlog.Total(),
		"entries":      sv.slowlog.Entries(),
	})
}

// CollectMetrics implements obs.Collector for the serving tier itself:
// HTTP traffic, per-algorithm answer counts, planner decisions, in-flight
// queries and the slowlog's admission counters. The engine and database
// register their own collectors beside this one.
func (sv *server) CollectMetrics(x *obs.Exporter) {
	x.Counter("spdb_http_requests_total", "HTTP requests received.",
		float64(sv.requests.Load()))
	x.Counter("spdb_http_errors_total", "HTTP requests answered with an error status.",
		float64(sv.errors.Load()))
	x.Counter("spdb_queries_served_total",
		"Individual queries answered (batches count each item).", float64(sv.served.Load()))
	// Every algorithm emits every scrape (plus the no-algorithm approx
	// series) so dashboards never see series appear mid-flight.
	for i := 0; i < algSlots; i++ {
		x.Counter("spdb_queries_served_by_algorithm_total",
			"Answered queries by the algorithm that ran.",
			float64(sv.byAlg[i].Load()), obs.L("algorithm", core.Algorithm(i).String()))
	}
	x.Counter("spdb_queries_served_by_algorithm_total",
		"Answered queries by the algorithm that ran.",
		float64(sv.approx.Load()), obs.L("algorithm", "approx"))
	x.Counter("spdb_queries_cancelled_total",
		"Queries killed by a deadline, timeout or client disconnect.",
		float64(sv.cancelled.Load()))
	// Sorted for a deterministic page; decisions only appear once chosen
	// (the label set is open — planner labels are data, not schema).
	dec := sv.plannerDecisions()
	keys := make([]string, 0, len(dec))
	for k := range dec {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		x.Counter("spdb_planner_decisions_total",
			"Cost-based planner decisions for alg=auto traffic.",
			float64(dec[k]), obs.L("decision", k))
	}
	x.Counter("spdb_server_mutations_total",
		"Edge mutations applied through POST /edges.", float64(sv.mutations.Load()))
	x.Gauge("spdb_queries_in_flight",
		"Queries currently executing (batch items count individually).",
		float64(sv.inflight.Load()))
	x.Gauge("spdb_uptime_seconds", "Seconds since the server started.",
		time.Since(sv.start).Seconds())
	if sv.slowlog != nil {
		x.Counter("spdb_slowlog_admitted_total",
			"Queries ever admitted to the slow-query ring.", float64(sv.slowlog.Total()))
		x.Gauge("spdb_slowlog_entries", "Slow-query ring occupancy.",
			float64(len(sv.slowlog.Entries())))
		x.Gauge("spdb_slowlog_threshold_seconds",
			"Admission threshold of the slow-query ring.",
			sv.slowlog.Threshold().Seconds())
	}
}
