package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rdb"
	"repro/internal/storage"
)

// sizes fixes the work of every workload. full is what BENCHMARK.json's
// numbers are measured at; smoke is the self-test's scaled-down copy.
type sizes struct {
	hotN, coldN, mutN, srvN int64
	coldPool                int // buffer-pool pages of cold_bseg
	lthd                    int64

	// A workload's measured phase replays one seeded list of operations in
	// whole passes, so every pass is the same work.
	hotPairs, coldPairs int // pair list of the read workloads
	mutRounds           int // rounds of mutate_mix's mutation cycle
	srvRequests         int // requests per pass of serve_http
	srvHot, srvCold     int // distinct pairs asked: cached ones, and ones the cache cannot keep
	srvCache            int // spdbd -cache

	// fixed is the number of passes every run completes whatever the time
	// limit: the counts reported as exact come from these passes only.
	fixed  int
	warmup int

	ladderKeys  int   // keys and rows of the storage/btree/heapfile/record rungs
	ladderPages int   // pages of the file the fetch-miss rung cycles through
	ladderN     int64 // graph of the oracle/labels/shard/operator rungs
	ladderPairs int
}

var fullSizes = sizes{
	hotN: 2000, coldN: 20000, mutN: 4000, srvN: 4000,
	coldPool: 128, lthd: 20,
	hotPairs: 120, coldPairs: 72, mutRounds: 8,
	srvRequests: 1500, srvHot: 64, srvCold: 300, srvCache: 256,
	fixed: 2, warmup: 10,
	ladderKeys: 100_000, ladderPages: 4096, ladderN: 400, ladderPairs: 20,
}

var smokeSizes = sizes{
	hotN: 300, coldN: 300, mutN: 300, srvN: 300,
	coldPool: 16, lthd: 20,
	hotPairs: 8, coldPairs: 8, mutRounds: 3,
	srvRequests: 100, srvHot: 8, srvCold: 40, srvCache: 32,
	fixed: 2, warmup: 2,
	ladderKeys: 1000, ladderPages: 256, ladderN: 120, ladderPairs: 5,
}

// clientCap is the most load-generating goroutines a workload may use.
const clientCap = 2

// env is what one workload run works with.
type env struct {
	ctx     context.Context
	name    string
	seed    int64
	seconds float64
	trace   bool
	sz      sizes
	clients int
	workdir string // scratch directory of this run, removed when it ends
	spdbd   string // path of the built server binary (serve_http)

	tr      *tracer
	cal     *calibrator
	metrics map[string]float64
	check   checker
	samples int       // latency samples behind the percentiles
	rss     []float64 // resident set after each operation of the fixed passes, MiB
	rssErr  error     // the first failure to read it
}

// runResult is what a child process hands back to the process that started
// it, and what a result file stores per workload.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Samples   int                `json:"samples"`
	WallS     float64            `json:"wall_s"`
	Metrics   map[string]float64 `json:"metrics"`
}

// checker is the correctness gate: every measured answer is compared with
// graph.MDJ on the benchmark's own mirror of the graph.
type checker struct {
	attempted int
	failed    int
	failures  []string
}

const maxListedFailures = 50

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < maxListedFailures {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// answer checks one reply for the pair (s, t) asked as operation idx of the
// workload: the call succeeded, found and distance match MDJ, and the path is
// a real s→t walk in g whose weights sum to the distance.
func (c *checker) answer(workload string, idx int, g *graph.Graph, p [2]int64, r core.QueryResult, err error) {
	s, t, found, dist, path := p[0], p[1], r.Found, r.Distance, r.Path.Nodes
	c.attempted++
	where := fmt.Sprintf("%s pair #%d (%d->%d)", workload, idx, s, t)
	if err != nil {
		c.fail("%s: %v", where, err)
		return
	}
	want := graph.MDJ(g, s, t)
	switch {
	case found != want.Found:
		c.fail("%s: found=%v, MDJ says %v", where, found, want.Found)
	case !found:
	case dist != want.Distance:
		c.fail("%s: distance %d, MDJ says %d", where, dist, want.Distance)
	case len(path) == 0 || path[0] != s || path[len(path)-1] != t:
		c.fail("%s: path %v does not run from source to target", where, path)
	default:
		if l, ok := g.PathLength(path); !ok || l != dist {
			c.fail("%s: path %v is not a walk of length %d (walk ok=%v, length %d)", where, path, dist, ok, l)
		}
	}
}

// warmUp asks the unmeasured warm-up pairs (plan cache, scratch-table pool)
// and checks their answers like any other.
func (e *env) warmUp(in *inputs, ask func(p [2]int64) (core.QueryResult, error)) {
	for k, p := range in.warmupPairs(e.sz.warmup) {
		r, err := ask(p)
		e.check.answer(e.name+" warm-up", k, in.mirror, p, r, err)
	}
}

// ask runs one Engine.Query, timed from the caller's side; it folds the
// query's stats into agg and, in a traced pass, records its span with the
// counter deltas taken around it (outside the timed interval).
func (e *env) ask(eng *core.Engine, req core.QueryRequest, agg *queryAgg, traced bool, root, idx int) (core.QueryResult, time.Duration, error) {
	var before rdb.Stats
	if traced {
		before = eng.DB().Stats()
	}
	t0 := time.Now()
	res, err := eng.Query(e.ctx, req)
	d := time.Since(t0)
	agg.add(res.Stats)
	if traced {
		e.tr.query(root, idx, t0, d, res.Stats, counterDelta(before, eng.DB().Stats()))
	}
	return res, d, err
}

// counterDelta is the per-query counter snapshot a traced pass attaches to
// its query spans.
func counterDelta(before, after rdb.Stats) map[string]uint64 {
	return map[string]uint64{
		"statements":  after.Statements - before.Statements,
		"page_hits":   after.Pool.Hits - before.Pool.Hits,
		"page_misses": after.Pool.Misses - before.Pool.Misses,
		"page_reads":  after.IO.Reads - before.IO.Reads,
		"page_writes": after.IO.Writes - before.IO.Writes,
	}
}

// beginTrace opens the traced run's root span (0 when the run is untraced),
// and endTrace closes it.
func (e *env) beginTrace() int {
	if !e.trace {
		return 0
	}
	return e.tr.add(0, "workload", -1, e.tr.at(time.Now()), 0, false)
}

func (e *env) endTrace(root int) {
	if e.trace {
		e.tr.spans[root-1].End = e.tr.at(time.Now())
	}
}

// passStat is one pass over the workload's operation list.
type passStat struct {
	queries int
	busy    time.Duration // wall time spent inside the program under test
	cpu     time.Duration // its CPU time over the same interval
	latMS   []float64     // latency of each read query, in list order
	traced  bool
	calWall time.Duration // the calibration kernel's runs during the pass
	calRuns int
}

// speed is how fast the host ran during the pass.
func (p passStat) speed() float64 { return calSpeed(p.calWall, p.calRuns) }

// calSetupTicks is how often the kernel runs before a set-up and after it.
const calSetupTicks = 40

// setupDone reports the set-up time d at reference speed, like the times of
// the measured phase: the kernel ran calSetupTicks times before the set-up
// began (runWorkload) and runs as often now that it has ended.
func (e *env) setupDone(d time.Duration) {
	e.cal.tick(calSetupTicks)
	wall, _, runs := e.cal.take()
	e.metrics["setup_s"] = d.Seconds() * calSpeed(wall, runs)
	e.metrics["raw.setup_s"] = d.Seconds()
}

// runPasses replays the workload's operation list in whole passes: sz.fixed
// of them always, then more until the run's time limit is reached. Every pass
// is the same work. In a traced run every other pass records spans, so the
// two halves give the tracing overhead.
func (e *env) runPasses(pass func(i int, traced bool) (passStat, error)) ([]passStat, error) {
	start := time.Now()
	limit := time.Duration(e.seconds * float64(time.Second))
	var out []passStat
	e.cal.take() // kernel runs of the warm-up belong to no pass
	for i := 0; i < e.sz.fixed || time.Since(start) < limit; i++ {
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
		traced := e.trace && i%2 == 0
		st, err := pass(i, traced)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i, err)
		}
		st.traced = traced
		st.calWall, _, st.calRuns = e.cal.take()
		out = append(out, st)
	}
	return out, nil
}

// perOperation reduces replays of one operation list (replays[p][k] is
// operation k's latency in pass p) to one latency per operation: its median
// over the replays, which drops a stall that hit it once.
func perOperation(replays [][]float64) []float64 {
	out := make([]float64, len(replays[0]))
	col := make([]float64, len(replays))
	for k := range out {
		for p := range replays {
			col[p] = replays[p][k]
		}
		out[k] = median(col)
	}
	return out
}

// timing turns the passes into the timing metrics every workload reports.
// Passes are the same work, so throughput and CPU cost are medians over
// passes, and the percentiles are over each operation's median latency. Every
// time is taken at reference speed (see calibrate.go): multiplied by the
// speed the host ran at during its pass. raw.* are the same figures
// uncorrected.
func (e *env) timing(passes []passStat) {
	var qps, cpu, rawQPS, rawCPU, speeds, on, off []float64
	var replays, rawReplays [][]float64
	for _, p := range passes {
		speed := p.speed()
		speeds = append(speeds, speed)
		lat := make([]float64, len(p.latMS))
		for k, v := range p.latMS {
			lat[k] = v * speed
		}
		replays, rawReplays = append(replays, lat), append(rawReplays, p.latMS)
		v := float64(p.queries) / p.busy.Seconds()
		c := ms(p.cpu) / float64(p.queries)
		rawQPS, rawCPU = append(rawQPS, v), append(rawCPU, c)
		qps, cpu = append(qps, v/speed), append(cpu, c*speed)
		if p.traced {
			on = append(on, v/speed)
		} else {
			off = append(off, v/speed)
		}
		e.samples += len(p.latMS)
	}
	lat, rawLat := perOperation(replays), perOperation(rawReplays)
	e.metrics["qps"] = median(qps)
	e.metrics["query_p50_ms"] = quantile(lat, 0.50)
	e.metrics["query_p95_ms"] = quantile(lat, 0.95)
	e.metrics["cpu_ms_per_query"] = median(cpu)
	e.metrics["bench.host_speed"] = median(speeds)
	e.metrics["raw.qps"] = median(rawQPS)
	e.metrics["raw.query_p50_ms"] = quantile(rawLat, 0.50)
	e.metrics["raw.query_p95_ms"] = quantile(rawLat, 0.95)
	e.metrics["raw.cpu_ms_per_query"] = median(rawCPU)
	if len(on) > 0 && len(off) > 0 {
		e.metrics["bench.trace_overhead_ratio"] = median(on) / median(off)
	}
}

// queryAgg sums the core.QueryStats of the searches of some passes.
type queryAgg struct {
	queries, searches                     int
	total, pe, sc, fpr, gate, plan        time.Duration
	iters, expansions, visited, cacheHits int
	tuples                                int64
}

func (a *queryAgg) add(qs *core.QueryStats) {
	a.queries++
	if qs == nil {
		return
	}
	if qs.CacheHit {
		a.cacheHits++
		return
	}
	a.searches++
	a.total += qs.Total
	a.pe += qs.PE
	a.sc += qs.SC
	a.fpr += qs.FPR
	a.gate += qs.GateWait
	a.plan += qs.PlanDur
	a.iters += qs.Iterations
	a.expansions += qs.Expansions
	a.visited += qs.VisitedRows
	a.tuples += qs.TuplesAffected
}

func (a *queryAgg) merge(b queryAgg) {
	a.queries += b.queries
	a.searches += b.searches
	a.total += b.total
	a.pe += b.pe
	a.sc += b.sc
	a.fpr += b.fpr
	a.gate += b.gate
	a.plan += b.plan
	a.iters += b.iters
	a.expansions += b.expansions
	a.visited += b.visited
	a.cacheHits += b.cacheHits
	a.tuples += b.tuples
}

// coreMetrics reports the engine's own per-query decomposition (Fig 6(b)
// units). times come from all passes, counts from the fixed passes.
func (e *env) coreMetrics(times, counts queryAgg) {
	q := float64(times.queries)
	sql := times.pe + times.sc + times.fpr
	e.metrics["core.sql_share"] = ratio(float64(sql), float64(times.total))
	e.metrics["core.go_loop_ms_per_query"] = ratio(ms(times.total-sql), q)
	e.metrics["core.pe_ms_per_query"] = ratio(ms(times.pe), q)
	e.metrics["core.sc_ms_per_query"] = ratio(ms(times.sc), q)
	e.metrics["core.fpr_ms_per_query"] = ratio(ms(times.fpr), q)
	e.metrics["core.gate_wait_ms_per_query"] = ratio(ms(times.gate), q)
	e.metrics["core.plan_ms_per_query"] = ratio(ms(times.plan), q)
	cq := float64(counts.queries)
	e.metrics["core.iterations_per_query"] = ratio(float64(counts.iters), cq)
	e.metrics["core.expansions_per_query"] = ratio(float64(counts.expansions), cq)
	e.metrics["core.visited_rows_per_query"] = ratio(float64(counts.visited), cq)
	e.metrics["core.tuples_affected_per_query"] = ratio(float64(counts.tuples), cq)
}

// engineMetrics is coreMetrics plus what an in-process engine also tells:
// cache hits, gate counters, and how long the harness took between queries.
func (e *env) engineMetrics(eng *core.Engine, times, counts queryAgg, lag time.Duration) {
	e.coreMetrics(times, counts)
	e.metrics["bench.generator_lag_ms"] = ms(lag) / float64(times.queries)
	e.metrics["core.cache_hit_ratio"] = ratio(float64(times.cacheHits), float64(times.queries))
	cs := eng.ConcurrencyStats()
	e.metrics["core.snapshot_retries"] = float64(cs.SnapshotRetries)
	e.metrics["core.peak_readers"] = float64(cs.Gate.PeakReaders)
}

// dbCounts reports what the relational and storage layers did for `queries`
// operations, from two snapshots of the database's public counters.
func (e *env) dbCounts(before, after rdb.Stats, queries int) {
	q := float64(queries)
	pool := func(f func(storage.PoolStats) uint64) float64 { return float64(f(after.Pool) - f(before.Pool)) }
	hits := pool(func(p storage.PoolStats) uint64 { return p.Hits })
	misses := pool(func(p storage.PoolStats) uint64 { return p.Misses })
	e.metrics["phys_reads_per_query"] = float64(after.IO.Reads-before.IO.Reads) / q
	e.metrics["phys_writes_per_query"] = float64(after.IO.Writes-before.IO.Writes) / q
	e.metrics["storage.fetches_per_query"] = (hits + misses) / q
	e.metrics["storage.miss_ratio"] = ratio(misses, hits+misses)
	e.metrics["storage.evictions_per_query"] = pool(func(p storage.PoolStats) uint64 { return p.Evictions }) / q
	e.metrics["storage.flushes_per_query"] = pool(func(p storage.PoolStats) uint64 { return p.Flushes }) / q
	e.metrics["storage.fence_waits"] = pool(func(p storage.PoolStats) uint64 { return p.FenceWaits })
	e.metrics["rdb.stmts_per_query"] = float64(after.Statements-before.Statements) / q
	e.metrics["rdb.exec_ms_per_query"] = ms(after.ExecDur-before.ExecDur) / q
	e.metrics["rdb.parse_plan_ms_total"] = ms(after.ParsePlanDur - before.ParsePlanDur)
	planHits := float64(after.PlanCacheHits - before.PlanCacheHits)
	planMisses := float64(after.PlanCacheMisses - before.PlanCacheMisses)
	e.metrics["rdb.plan_cache_hit_ratio"] = ratio(planHits, planHits+planMisses)
}

// sampleRSS notes the resident set of the process under test (0 = this one).
// Workloads call it after every operation of the fixed passes.
func (e *env) sampleRSS(pid int) {
	v, err := rssMiB(pid)
	if err != nil && e.rssErr == nil {
		e.rssErr = err
	}
	e.rss = append(e.rss, v)
}

// memory reports the resident set of the process under test over the fixed
// passes, so the figures belong to a fixed amount of work and not to however
// many more passes the machine got through: rss_mb is the median of the
// samples, peak_rss_mb the high-water mark. The peak depends on when the
// garbage collector happened to run (one seed repeated: 35 to 52 MiB on
// hot_bsdj), so the median is what BENCHMARK.json bounds.
func (e *env) memory(pid int) error {
	peak, err := peakRSSMiB(pid)
	e.metrics["peak_rss_mb"] = peak
	e.metrics["rss_mb"] = median(e.rss)
	if e.rssErr != nil {
		return e.rssErr
	}
	return err
}

// mdjBaseline times the in-memory Dijkstra on the same pairs: the reference
// every relational number is read against.
func (e *env) mdjBaseline(g *graph.Graph, pairs [][2]int64) {
	t0 := time.Now()
	for _, p := range pairs {
		graph.MDJ(g, p[0], p[1])
	}
	e.metrics["graph.mdj_us_per_query"] = us(time.Since(t0)) / float64(len(pairs))
}

// tempDir makes a directory under the run's work directory.
func (e *env) tempDir(name string) (string, error) {
	dir := filepath.Join(e.workdir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}
