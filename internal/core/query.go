package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/rdb"
)

// The unified query surface: one declarative entry point (Engine.Query)
// replaces the pick-an-algorithm toolbox. A QueryRequest names the
// endpoints and, optionally, an algorithm hint, an error tolerance and a
// statement budget; the context carries deadlines and cancellation. With
// AlgAuto (the zero value) a cost-based planner chooses among the
// relational algorithms — or answers from the landmark oracle alone —
// using only statistics the engine already tracks: graph size, wmin, the
// SegTable threshold, oracle validity, the landmark bounds for the
// concrete s–t pair, and the path-cache state. This mirrors the paper's
// central move of pushing search decisions into the database layer, and
// the ALT/landmark planning ideas of Goldberg & Harrelson (PAPERS.md).

// ErrBudgetExceeded reports that a query spent its QueryRequest.MaxStatements
// budget before finishing. Identify it with errors.Is.
var ErrBudgetExceeded = errors.New("core: statement budget exceeded")

// ErrNoGraph reports an operation against an engine with no loaded graph.
// Callers branch on it with errors.Is instead of matching the message text.
var ErrNoGraph = errors.New("core: no graph loaded")

// Planner thresholds. They are deliberately coarse: the planner's inputs
// are cheap scalars, and the differential suite pins every choice to exact
// answers, so a misprediction costs latency, never correctness.
const (
	// PlannerTinyNodes is the graph size below which the planner always
	// picks BSDJ: on tiny graphs the set-Dijkstra finishes in a handful of
	// statements and index indirection (SegTable probes, landmark bound
	// subqueries) costs more than it saves.
	PlannerTinyNodes = 256
	// PlannerWeakSegFactor compares the SegTable threshold against wmin:
	// a frontier round advances roughly lthd under BSEG and wmin under the
	// Dijkstra family, so with lthd < PlannerWeakSegFactor×wmin the
	// segments compress almost nothing (they are mostly single edges) and
	// ALT's goal-directed pruning wins; with real compression BSEG's
	// fewer, fatter rounds win (the paper's Fig 7; the iteration counts
	// are asserted by internal/bench's TestPaperClaims).
	PlannerWeakSegFactor = 2
)

// Planner decision labels, recorded in QueryStats.Planner and surfaced by
// spdbd /stats as the planner_decisions map.
const (
	// DecisionHint: the request named a concrete algorithm; no planning ran.
	DecisionHint = "hint"
	// DecisionCached: an auto query answered from the path cache before any
	// planning (a previously resolved algorithm's exact answer is exact for
	// every hint).
	DecisionCached = "cache"
	// DecisionTrivial: s == t, answered without touching the database.
	DecisionTrivial = "trivial"
	// DecisionLabels: a valid hub-label index answers exactly with no
	// frontier loop — it beats every other row, so a valid index
	// short-circuits the rest of the table (landmark interval reads
	// included: labels answer unreachable and tolerant queries exactly).
	DecisionLabels = "labels"
	// DecisionUnreachable: the landmark oracle proved no s–t path exists.
	DecisionUnreachable = "oracle-unreachable"
	// DecisionApprox: the oracle interval met MaxRelError; no search ran.
	DecisionApprox = "oracle-approx"
	// DecisionTinyBSDJ: graph under PlannerTinyNodes, plain set-Dijkstra.
	DecisionTinyBSDJ = "bsdj-tiny"
	// DecisionALT: oracle valid, no SegTable — goal-directed search.
	DecisionALT = "alt"
	// DecisionALTWeakSeg: oracle and SegTable both valid, but the SegTable
	// threshold is too close to wmin to compress anything.
	DecisionALTWeakSeg = "alt-weak-seg"
	// DecisionBSEG: SegTable valid with real compression.
	DecisionBSEG = "bseg"
	// DecisionBSDJ: no index helps; the paper's best index-free algorithm.
	DecisionBSDJ = "bsdj"
)

// QueryRequest is one declarative shortest-path question.
type QueryRequest struct {
	// Source and Target are the path endpoints.
	Source int64
	Target int64
	// Alg hints the algorithm. The zero value AlgAuto engages the planner;
	// a concrete algorithm bypasses it (recorded as a "hint" decision).
	Alg Algorithm
	// MaxRelError is the acceptable relative error of the answer. 0 demands
	// an exact path. A positive tolerance allows the planner to answer from
	// the landmark oracle alone when the interval [lower, upper] satisfies
	// (upper-lower)/lower <= MaxRelError — microseconds instead of a
	// relational search, with QueryResult.Approximate set and the bounds
	// reported. Only meaningful with AlgAuto.
	MaxRelError float64
	// MaxStatements caps the SQL statements one search may issue (a cost
	// budget); past it the query fails with ErrBudgetExceeded. 0 = unlimited.
	MaxStatements int64
}

// QueryResult is the unified answer shape.
type QueryResult struct {
	// Found reports that an s–t path exists (exact searches and oracle
	// answers alike; an oracle-certified unreachable pair reports false).
	Found bool
	// Distance is the path length: exact when Approximate is false, the
	// upper bound of the oracle interval (a real path length through a
	// landmark) when true.
	Distance int64
	// Path is the full node sequence for exact answers; zero-valued for
	// approximate ones (the oracle knows lengths, not routes).
	Path Path
	// Approximate reports an oracle-only answer within MaxRelError.
	Approximate bool
	// Lower and Upper bracket the true distance. Exact found answers have
	// Lower == Upper == Distance; certified-unreachable answers have both
	// at MaxDist.
	Lower int64
	Upper int64
	// Algorithm is the concrete algorithm that ran (AlgAuto when the
	// oracle answered without a search).
	Algorithm Algorithm
	// Stats carries the per-query metrics, including the planner decision
	// and the iteration count.
	Stats *QueryStats
}

// queryPlan is one planning outcome: either a resolved algorithm or a
// complete answer from the oracle alone.
type queryPlan struct {
	alg      Algorithm
	decision string
	// answer short-circuits the search (oracle-approx / oracle-unreachable).
	answer *QueryResult
	// snap is the statistics snapshot the plan was computed against; any
	// drift after acquiring the latch forces a replan. Comparing the whole
	// snapshot (not just the version) matters: a failed or cancelled index
	// build clears segBuilt / the oracle WITHOUT bumping the version, and a
	// stale plan would then hard-error on a missing index instead of
	// degrading the way the decision table promises.
	snap statSnapshot
}

// snapshotRetryLimit is how many shared-mode attempts a query makes before
// degrading to an exclusive admission. Commit-time validation failing is
// already exceptional (the gate excludes writers while readers run), so two
// optimistic rounds before the guaranteed-progress fallback is plenty.
const snapshotRetryLimit = 2

// stageRec accumulates the per-query stage timings Engine.Query threads
// through admission and planning: the serving-path decomposition the
// latency histograms and the slow-query log report. One recorder lives on
// Query's stack per call — recording costs two duration adds, no
// allocation, no locking.
type stageRec struct {
	gate time.Duration // queued on the admission gate (all attempts)
	plan time.Duration // planQuery wall time (initial plan + replans)
}

// Query answers one declarative shortest-path request. It is the single
// context-aware entry point the serving tier builds on:
//
//   - ctx carries the deadline; a cancelled context returns ctx.Err()
//     within one frontier iteration (or immediately, while still queued on
//     the admission gate), releasing its slot and caching nothing.
//   - req.Alg == AlgAuto lets the cost-based planner pick the algorithm or
//     answer from the landmark oracle (see the Decision* labels).
//   - cache hits return from memory without touching gate or database.
//
// Safe for any number of concurrent callers: read-only searches enter the
// shared side of the query gate and run in parallel, each over a private
// scratch-table set, while mutations take the exclusive side.
//
// Every call — success, error or cancellation — is recorded in the
// engine's observability instruments: the per-algorithm latency histogram,
// the gate-wait histogram, and the stage timings attached to
// QueryResult.Stats (GateWait, PlanDur).
func (e *Engine) Query(ctx context.Context, req QueryRequest) (QueryResult, error) {
	t0 := time.Now()
	var rec stageRec
	res, err := e.runQuery(ctx, req, &rec)
	if res.Stats != nil {
		res.Stats.GateWait = rec.gate
		res.Stats.PlanDur = rec.plan
	}
	e.observeQuery(req, res, err, rec, time.Since(t0))
	return res, err
}

// runQuery is Query's body; the wrapper owns timing and observation.
func (e *Engine) runQuery(ctx context.Context, req QueryRequest, rec *stageRec) (QueryResult, error) {
	if err := e.guard(req.Alg); err != nil {
		return QueryResult{}, err
	}
	if err := rdb.ContextErr(ctx); err != nil {
		return QueryResult{}, err
	}
	if math.IsNaN(req.MaxRelError) || req.MaxRelError < 0 {
		return QueryResult{}, fmt.Errorf("core: MaxRelError must be non-negative, got %v", req.MaxRelError)
	}
	if req.MaxStatements < 0 {
		return QueryResult{}, fmt.Errorf("core: MaxStatements must be non-negative, got %d", req.MaxStatements)
	}
	s, t := req.Source, req.Target
	snap := e.snapshotStats()
	if snap.nodes == 0 {
		return QueryResult{}, ErrNoGraph
	}
	if s < 0 || t < 0 || int(s) >= snap.nodes || int(t) >= snap.nodes {
		return QueryResult{}, fmt.Errorf("core: node out of range (n=%d)", snap.nodes)
	}
	// s == t needs no statement at all under the planner. Explicit hints
	// keep the legacy behavior (the algorithm's own trivial-path handling)
	// so their QueryStats stay comparable across releases.
	if s == t && req.Alg == AlgAuto {
		p := Path{Found: true, Length: 0, Nodes: []int64{s}}
		return exactResult(p, AlgAuto, &QueryStats{Algorithm: AlgAuto.String(), Planner: DecisionTrivial}), nil
	}

	// Serve auto traffic from the cache before consulting the oracle: any
	// concrete algorithm's cached answer for this pair is exact on the
	// current graph, so repeated queries stay zero-SQL even though the
	// planner would otherwise read landmark bounds first.
	if req.Alg == AlgAuto && e.cache != nil {
		if p, alg, ok := e.cacheProbeAuto(snap.version, s, t); ok {
			return exactResult(p, alg, &QueryStats{Algorithm: alg.String(), Planner: DecisionCached, CacheHit: true}), nil
		}
	}

	tp := time.Now()
	pl, err := e.planQuery(ctx, req, snap)
	rec.plan += time.Since(tp)
	if err != nil {
		return QueryResult{}, err
	}
	if pl.answer != nil {
		return *pl.answer, nil
	}
	key := cacheKey{version: pl.snap.version, alg: pl.alg, s: s, t: t}
	if e.cache != nil {
		if p, ok := e.cache.get(key); ok {
			return exactResult(p, pl.alg, &QueryStats{Algorithm: pl.alg.String(), Planner: pl.decision, CacheHit: true}), nil
		}
	}

	// Optimistic snapshot execution: run under a shared admission, then
	// validate at commit that the graph version the plan saw is still
	// current. The gate already excludes writers while readers run, so a
	// failed validation is a safety net (for any future mutation path that
	// bypasses the gate), not the normal case — it discards the attempt and
	// retries, the DistanceInterval optimistic pattern, degrading to an
	// exclusive admission on the final attempt so progress is guaranteed.
	for attempt := 0; ; attempt++ {
		res, retry, aerr := e.queryAttempt(ctx, req, &pl, attempt >= snapshotRetryLimit, rec)
		if aerr != nil || !retry {
			return res, aerr
		}
		e.snapRetries.Add(1)
	}
}

// queryAttempt runs one admission-to-commit round of Query. It reports
// retry=true when commit-time validation found the graph version moved
// under the search (the answer is discarded). exclusive requests the
// writer side of the gate — the degraded, guaranteed-stable mode.
func (e *Engine) queryAttempt(ctx context.Context, req QueryRequest, pl *queryPlan, exclusive bool, rec *stageRec) (QueryResult, bool, error) {
	s, t := req.Source, req.Target
	tg := time.Now()
	if exclusive {
		err := e.gate.lockExclusive(ctx)
		rec.gate += time.Since(tg)
		if err != nil {
			return QueryResult{}, false, err
		}
		// Counted only once admission succeeds: a degraded attempt cancelled
		// while still queued ran no exclusive search and must not inflate
		// the stat.
		e.degraded.Add(1)
		defer e.gate.unlockExclusive()
	} else {
		err := e.lockShared(ctx)
		rec.gate += time.Since(tg)
		if err != nil {
			return QueryResult{}, false, err
		}
		defer e.unlockShared()
	}
	// The graph may have changed while we waited for admission (edge
	// mutation, index rebuild, full reload). Re-validate against the
	// current generation — and replan, since the decision inputs (oracle
	// validity, SegTable, size) may have moved — so the answer we compute
	// belongs to the graph we actually query. Once admitted the replan is
	// stable: every mutator needs the exclusive side of the gate.
	snap := e.snapshotStats()
	if snap.nodes == 0 {
		return QueryResult{}, false, ErrNoGraph
	}
	if int(s) >= snap.nodes || int(t) >= snap.nodes {
		return QueryResult{}, false, fmt.Errorf("core: node out of range (n=%d)", snap.nodes)
	}
	if snap != pl.snap {
		tp := time.Now()
		npl, err := e.planQuery(ctx, req, snap)
		rec.plan += time.Since(tp)
		if err != nil {
			return QueryResult{}, false, err
		}
		*pl = npl
		if pl.answer != nil {
			return *pl.answer, false, nil
		}
	}
	key := cacheKey{version: pl.snap.version, alg: pl.alg, s: s, t: t}
	// Re-check after admission: a concurrent caller may have computed and
	// cached this exact answer while we waited.
	if e.cache != nil {
		if p, ok := e.cache.recheck(key); ok {
			return exactResult(p, pl.alg, &QueryStats{Algorithm: pl.alg.String(), Planner: pl.decision, CacheHit: true}), false, nil
		}
	}
	// Lease a private scratch set: concurrent readers write disjoint
	// working tables, which is what lets them share the gate at all.
	sc, err := e.scratch.acquire()
	if err != nil {
		return QueryResult{}, false, err
	}
	defer e.scratch.release(sc)
	if h := e.hookSearchStart; h != nil {
		h()
	}
	p, qs, err := e.search(ctx, sc, pl.alg, s, t, req.MaxStatements)
	if qs != nil {
		qs.Planner = pl.decision
	}
	if err != nil {
		return QueryResult{Stats: qs}, false, err
	}
	// Commit-time validation: the answer is only published (and cached) if
	// the graph version is still the one the plan snapshot saw.
	if e.GraphVersion() != pl.snap.version {
		return QueryResult{}, true, nil
	}
	if e.cache != nil {
		e.cache.put(key, p)
	}
	return exactResult(p, pl.alg, qs), false, nil
}

// exactResult wraps a relational-search path in the unified answer shape.
func exactResult(p Path, alg Algorithm, qs *QueryStats) QueryResult {
	res := QueryResult{Found: p.Found, Path: p, Algorithm: alg, Stats: qs}
	if p.Found {
		res.Distance = p.Length
		res.Lower, res.Upper = p.Length, p.Length
	} else {
		res.Lower, res.Upper = MaxDist, MaxDist
	}
	return res
}

// statSnapshot is the planner's input: the cheap scalars the engine
// already maintains, read under one metadata lock acquisition.
type statSnapshot struct {
	nodes   int
	wmin    int64
	version uint64
	indexes
}

func (e *Engine) snapshotStats() statSnapshot {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return statSnapshot{nodes: e.nodes, wmin: e.wmin, version: e.version, indexes: e.indexes}
}

// planQuery resolves a request to a concrete algorithm — or a complete
// oracle answer — from the statistics snapshot. The decision table (also
// in docs/ARCHITECTURE.md §Query planning & cancellation):
//
//	hint             Alg != AlgAuto                       run the hint
//	labels           hub-label index valid                Label (exact, no loop)
//	oracle-unreachable  landmark bounds prove no path     answer, no search
//	oracle-approx    interval within MaxRelError          answer, no search
//	bsdj-tiny        nodes <= PlannerTinyNodes            BSDJ
//	alt              oracle valid, no SegTable            ALT
//	alt-weak-seg     oracle+SegTable, lthd < 2*wmin       ALT
//	bseg             SegTable valid                       BSEG
//	bsdj             no index available                   BSDJ
//
// The landmark bounds for the concrete pair come from the same latch-free
// interval reads ApproxDistance uses; when they fail (oracle went cold
// mid-read) the planner degrades to the index-driven rows of the table.
func (e *Engine) planQuery(ctx context.Context, req QueryRequest, snap statSnapshot) (queryPlan, error) {
	if req.Alg != AlgAuto {
		return queryPlan{alg: req.Alg, decision: DecisionHint, snap: snap}, nil
	}
	// A valid hub-label index dominates: exact answers (unreachability and
	// tolerant requests included) in a constant number of statements, so
	// planning skips even the landmark interval reads.
	if snap.lbl != nil {
		return queryPlan{alg: AlgLabel, decision: DecisionLabels, snap: snap}, nil
	}
	s, t := req.Source, req.Target
	var iv Interval
	var ivStmts int
	var ivDur time.Duration
	haveIV := false
	if snap.orc != nil {
		t0 := time.Now()
		v, n, err := e.distanceIntervalStats(ctx, s, t)
		ivStmts, ivDur = n, time.Since(t0)
		if err == nil {
			iv, haveIV = v, true
		} else if cerr := rdb.ContextErr(ctx); cerr != nil {
			return queryPlan{}, cerr
		}
		// Other interval errors (oracle invalidated between the snapshot
		// and the read) just mean planning proceeds without bounds.
	}
	// Oracle-only answers report the landmark reads as their cost — they
	// ran real statements, and a comparison against the hinted algorithms
	// must not flatter AlgAuto with a zero-statement row.
	oracleStats := func(decision string) *QueryStats {
		return &QueryStats{Algorithm: AlgAuto.String(), Planner: decision,
			Statements: ivStmts, SC: ivDur, Total: ivDur}
	}
	if haveIV && iv.Unreachable() {
		return queryPlan{decision: DecisionUnreachable, snap: snap, answer: &QueryResult{
			Found: false, Lower: iv.Lower, Upper: iv.Upper, Algorithm: AlgAuto,
			Stats: oracleStats(DecisionUnreachable),
		}}, nil
	}
	if haveIV && req.MaxRelError > 0 && iv.UpperKnown() && iv.Lower > 0 &&
		float64(iv.Upper-iv.Lower) <= req.MaxRelError*float64(iv.Lower) {
		return queryPlan{decision: DecisionApprox, snap: snap, answer: &QueryResult{
			Found: true, Distance: iv.Upper, Approximate: true,
			Lower: iv.Lower, Upper: iv.Upper, Algorithm: AlgAuto,
			Stats: oracleStats(DecisionApprox),
		}}, nil
	}
	pick := func(alg Algorithm, decision string) (queryPlan, error) {
		return queryPlan{alg: alg, decision: decision, snap: snap}, nil
	}
	if snap.nodes <= PlannerTinyNodes {
		return pick(AlgBSDJ, DecisionTinyBSDJ)
	}
	if snap.orc != nil {
		switch {
		case !snap.segBuilt:
			return pick(AlgALT, DecisionALT)
		case snap.segLthd < PlannerWeakSegFactor*snap.wmin:
			return pick(AlgALT, DecisionALTWeakSeg)
		default:
			return pick(AlgBSEG, DecisionBSEG)
		}
	}
	if snap.segBuilt {
		return pick(AlgBSEG, DecisionBSEG)
	}
	return pick(AlgBSDJ, DecisionBSDJ)
}

// cacheProbeAuto looks for a cached exact answer for (s, t) under any
// concrete algorithm at the given graph version. Misses are not counted —
// this is an opportunistic pre-planning probe, and the planner's own
// lookup accounts for the query's single miss.
func (e *Engine) cacheProbeAuto(version uint64, s, t int64) (Path, Algorithm, bool) {
	for _, alg := range []Algorithm{AlgLabel, AlgBSEG, AlgALT, AlgBSDJ, AlgBBFS, AlgBDJ, AlgDJ} {
		if p, ok := e.cache.recheck(cacheKey{version: version, alg: alg, s: s, t: t}); ok {
			return p, alg, true
		}
	}
	return Path{}, AlgAuto, false
}

// QueryResponse pairs one batch request with its outcome. Err is
// per-request: one bad request does not fail the batch.
type QueryResponse struct {
	Request QueryRequest
	Result  QueryResult
	Err     error
}

// QueryBatch answers a set of requests, fanning them across a pool of
// worker goroutines (workers <= 0 means GOMAXPROCS). Results come back in
// input order. Cancelling ctx stops the batch: requests not yet started
// fail fast with ctx.Err(), the in-flight ones die within a frontier
// iteration.
//
// The pool's parallelism pays off throughout: requests answered by the
// path cache (or the oracle) complete concurrently without touching the
// admission gate, duplicate pairs in the same batch collapse — the first
// worker to finish populates the cache, the rest hit it on the post-
// admission re-check — and distinct uncached searches run in parallel
// under shared admissions, each over its own scratch-table set.
func (e *Engine) QueryBatch(ctx context.Context, reqs []QueryRequest, workers int) []QueryResponse {
	results := make([]QueryResponse, len(reqs))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(reqs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				res, err := e.Query(ctx, reqs[i])
				results[i] = QueryResponse{Request: reqs[i], Result: res, Err: err}
			}
		}()
	}
feed:
	for i := range reqs {
		select {
		case next <- i:
		case <-ctx.Done():
			// Stop feeding; this and every remaining request is abandoned.
			for j := i; j < len(reqs); j++ {
				results[j] = QueryResponse{Request: reqs[j], Err: ctx.Err()}
			}
			break feed
		}
	}
	close(next)
	wg.Wait()
	return results
}
