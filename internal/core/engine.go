package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fem"
	"repro/internal/labels"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/rdb"
	"repro/internal/sweep"
)

// MaxDist is the sentinel for "not yet reached" distances stored in
// TVisited (d2s/d2t). Sums of two sentinels stay far below int64 overflow.
const MaxDist = int64(1) << 50

// NoParent marks an unset p2s/p2t link.
const NoParent = int64(-1)

// Algorithm selects one of the paper's five relational path finders, the
// ALT extension, or — the zero value — the cost-based planner.
type Algorithm int

// The implemented approaches (§5.1 "Implementation Details"):
const (
	// AlgAuto delegates the choice to the cost-based planner (Engine.Query).
	// It is deliberately the zero value, so a QueryRequest without an
	// explicit hint is planned.
	AlgAuto Algorithm = iota
	// AlgDJ is the single-directional relational Dijkstra (Algorithm 1).
	AlgDJ
	// AlgBDJ is the bi-directional relational Dijkstra (node-at-a-time).
	AlgBDJ
	// AlgBSDJ is the bi-directional set Dijkstra (set-at-a-time, §4.1).
	AlgBSDJ
	// AlgBBFS is the bi-directional breadth-first relaxation.
	AlgBBFS
	// AlgBSEG is the selective expansion over SegTable (Algorithm 2, §4.3).
	AlgBSEG
	// AlgALT is the bi-directional set Dijkstra with ALT goal-directed
	// pruning over the landmark oracle (requires BuildOracle).
	AlgALT
	// AlgLabel answers from the pruned 2-hop label index: the distance is
	// one merge-join over the label scans, the route a greedy certified
	// walk — no frontier loop at all (requires BuildLabels).
	AlgLabel
)

// numAlgs bounds per-algorithm arrays (AlgLabel is the highest id; AlgAuto,
// the zero value, indexes oracle-only and trivial answers).
const numAlgs = int(AlgLabel) + 1

func (a Algorithm) String() string {
	switch a {
	case AlgAuto:
		return "Auto"
	case AlgDJ:
		return "DJ"
	case AlgBDJ:
		return "BDJ"
	case AlgBSDJ:
		return "BSDJ"
	case AlgBBFS:
		return "BBFS"
	case AlgBSEG:
		return "BSEG"
	case AlgALT:
		return "ALT"
	case AlgLabel:
		return "Label"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ParseAlgorithm maps a case-insensitive algorithm name (AUTO, DJ, BDJ,
// BSDJ, BBFS, BSEG, ALT, LABEL) to its Algorithm; the commands share this
// parser.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch strings.ToUpper(s) {
	case "AUTO":
		return AlgAuto, nil
	case "DJ":
		return AlgDJ, nil
	case "BDJ":
		return AlgBDJ, nil
	case "BSDJ":
		return AlgBSDJ, nil
	case "BBFS":
		return AlgBBFS, nil
	case "BSEG":
		return AlgBSEG, nil
	case "ALT":
		return AlgALT, nil
	case "LABEL":
		return AlgLabel, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q (AUTO|DJ|BDJ|BSDJ|BBFS|BSEG|ALT|LABEL)", s)
}

// IndexStrategy is the physical design axis of Fig 8(c), shared with the
// index builds below the engine.
type IndexStrategy = sweep.IndexStrategy

// Index strategies for TEdges(fid)/TOutSegs(fid)/TInSegs(tid)/TVisited(nid).
const (
	ClusteredIndex = sweep.ClusteredIndex
	SecondaryIndex = sweep.SecondaryIndex
	NoIndex        = sweep.NoIndex
)

// Options configures an Engine.
type Options struct {
	// Strategy picks the physical design (default ClusteredIndex).
	Strategy IndexStrategy
	// TraditionalSQL replaces the window function + MERGE statements with
	// the pre-2003 formulation (aggregate + join-back, UPDATE + INSERT):
	// the paper's TSQL baseline of Fig 6(d) and Fig 9(f).
	TraditionalSQL bool
	// SeparateOperators runs F, E and M as distinct SQL statements and
	// times them individually (Fig 6(c)). Slightly slower than the fused
	// MERGE form.
	SeparateOperators bool
	// DisablePruning turns off the Theorem-1 bound in expansions
	// (ablation; the paper always prunes).
	DisablePruning bool
	// AlternateDirections replaces the paper's fewer-frontier direction
	// policy with strict alternation (ablation of the §4.1 heuristic).
	AlternateDirections bool
	// MaxIters caps FEM iterations per search or build as a safety net.
	// 0 selects the default of 16×nodes+1024 once a graph is loaded;
	// negative values are rejected (NewEngine records the validation error
	// and every subsequent call returns it). QueryStats.Iterations reports
	// how much of the bound a query actually used.
	MaxIters int
	// CacheSize bounds the shortest-path result cache in entries
	// (default 4096; negative disables caching). The cache is keyed by
	// (graph version, algorithm, source, target) and invalidated whenever
	// the graph or the SegTable index changes.
	CacheSize int
	// RepairThreshold caps the decremental SegTable repair: when a
	// deletion or weight increase touches more rows than this, the engine
	// falls back to a full rebuild instead of repairing in place
	// (0 = DefaultRepairThreshold; negative = always rebuild).
	RepairThreshold int
	// ScratchRetain bounds the free list of pooled per-query scratch-table
	// sets: released sets up to this count stay warm (no DDL per query),
	// extras are dropped. 0 = DefaultScratchRetain; negative = retain none,
	// dropping every set on release (exercises the drop path; the
	// cancellation-leak tests run in this mode).
	ScratchRetain int
	// DataDir arms the durability subsystem (durability.go): every
	// ApplyMutations batch appends to an fsynced write-ahead log under this
	// directory before touching TEdges, Engine.Snapshot writes versioned
	// manifest-led snapshots of the graph and built indexes there, and
	// OpenFromSnapshot hydrates a fresh engine from the newest snapshot
	// plus the WAL suffix instead of LoadGraph + Build*. Empty disables
	// durability (the pre-existing in-memory-only behavior).
	DataDir string
}

// DefaultCacheSize is the path-cache capacity when Options.CacheSize is 0.
const DefaultCacheSize = 4096

// DefaultRepairThreshold is the decremental-repair row cap when
// Options.RepairThreshold is 0. It bounds what one mutation may repair in
// place, below the crossover: as measured (PR 20, graph.Random(1500, 6000),
// 197k and 613k SegTable rows) a repair of 64 / 512 / ~4096 touched rows
// costs 0.02-0.09 / 0.12-0.2 / 0.3-0.5 of a rebuild, so a rebuild only wins
// somewhere past twice this many.
const DefaultRepairThreshold = 4096

// Engine runs the relational algorithms against one database. It keeps
// only scalar state between statements — the RDB carries all per-node data.
//
// An Engine is safe for concurrent callers. Read-only searches admit in
// parallel through the shared side of a reader/writer query gate, each
// leasing a private scratch-table set from a pool so their frontier
// scribbling lands in disjoint tables; mutators (LoadGraph, ApplyMutations,
// index builds, MST, Reachable) take the exclusive side, draining readers
// first. The path cache still answers repeat queries from memory without
// touching gate or database, and QueryBatch fans a query set across a
// worker pool. The unified entry point is Query (query.go): a declarative
// request with an algorithm hint (AlgAuto engages the cost-based planner),
// an error tolerance, a statement budget, and cooperative cancellation
// through context.Context. See docs/ARCHITECTURE.md §Concurrency model and
// §Query planning & cancellation.
type Engine struct {
	db *rdb.DB
	// sess is the engine's own connection — the analogue of the paper's
	// single JDBC session — so engine statements show up in the DB's
	// per-session accounting alongside any other sessions.
	sess *rdb.Session
	opts Options
	// level is the SQL level every E- and M-operator statement is rendered
	// for, resolved once from the profile and Options.TraditionalSQL.
	level fem.Level
	// optErr records an Options validation failure from NewEngine; every
	// public entry point returns it instead of running with a bad config.
	optErr error
	// part is the peer set this engine belongs to (peers.go); nil for the
	// single engine. Written once by SetPeers, before the engine serves.
	part *partition

	// mu guards the graph metadata below; queries take the read side.
	mu    sync.RWMutex
	wmin  int64
	nodes int
	edges int

	indexes
	// muts counts the mutation subsystem's activity for the serving tier.
	muts MutationCounters
	// version stamps the (graph, index) generation; bumped by LoadGraph,
	// BuildSegTable, BuildOracle and every mutation (InsertEdge,
	// DeleteEdge, UpdateEdgeWeight, ApplyMutations) so cached answers can
	// never outlive the data they were computed from.
	version uint64

	// gate is the admission control: searches enter shared (parallel),
	// mutators exclusive (drain readers, run alone). Waiters of either
	// kind abandon the queue when their context is cancelled.
	gate *queryGate
	// scratch pools the per-query working-table sets readers lease;
	// scratchGlobal is the original TVisited set, reserved for exclusive
	// operations (MST, Reachable, degraded searches).
	scratch       scratchPool
	scratchGlobal *scratchSet
	// snapRetries counts searches re-run because the graph version moved
	// between admission and commit (a safety net: the gate excludes writers
	// while readers run, so this staying 0 is the expected steady state);
	// degraded counts searches that fell back to exclusive admission after
	// exhausting their retries.
	snapRetries atomic.Uint64
	degraded    atomic.Uint64
	// hookSearchStart, when set (tests only), runs after shared admission
	// and scratch lease, before the search issues its first statement. The
	// concurrency battery uses it to prove two queries are in flight
	// simultaneously without relying on timing.
	hookSearchStart func()
	cache           *pathCache

	// Observability instruments (metrics.go). Always on: recording one
	// query costs a handful of atomic adds. queryDur is indexed by the
	// Algorithm that answered (AlgAuto for oracle-only and trivial
	// answers); gateWaitDur captures admission queueing across all
	// queries. building counts index builds and graph loads in flight —
	// the readiness signal /readyz serves 503 on.
	queryDur    [numAlgs]*obs.Histogram
	gateWaitDur *obs.Histogram
	queryErrs   atomic.Uint64
	building    atomic.Int32

	// dur carries the durability subsystem's state (WAL, snapshot store,
	// counters); nil unless Options.DataDir is set. See durability.go.
	dur *durability

	// stmts caches the engine's prepared statements by SQL text: every
	// statement shape the algorithms issue is prepared once per engine and
	// re-executed with fresh bound parameters. Statement texts are stable
	// by construction (per-iteration values bind as ? parameters, never as
	// rendered literals), so the set is small and bounded by the number of
	// shapes in the codebase. Stale plans are the rdb layer's problem: a
	// DDL epoch bump makes every handle re-compile transparently.
	stmtMu    sync.RWMutex
	stmtCache map[string]*rdb.Stmt
}

// indexes is what the engine knows of its three distance indexes; the rows
// live in the relations each one owns. A load or hydration resets it to the
// zero value, a mutation batch that wrote nothing restores its copy, and a
// snapshot's manifest carries it.
type indexes struct {
	// segBuilt says TOutSegs / TInSegs hold a complete SegTable, built at
	// threshold segLthd.
	segBuilt bool
	segLthd  int64
	// orc is the landmark oracle metadata (nil until BuildOracle; reset to
	// nil — invalidated — by every edge mutation, whose graph changes can
	// move landmark distances and would make the stored bounds unsound).
	orc *oracle.Oracle
	// orcStale records that a mutation killed a previously built oracle:
	// operators (spdbd /stats) can tell "approx/ALT went cold, rebuild" from
	// "never built". Cleared by BuildOracle.
	orcStale bool
	// lbl is the hub-label index metadata (nil until BuildLabels; reset to
	// nil when a mutation fails the keep-analysis of labels.go — unlike
	// the oracle, a label index can survive mutations the labels
	// themselves prove distance-preserving).
	lbl *labels.Labels
	// lblStale records that a mutation killed a previously built label
	// index. Cleared by BuildLabels.
	lblStale bool
}

// indexState copies the record out from under mu.
func (e *Engine) indexState() indexes {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.indexes
}

// live reports whether owner o's snapshotted relations hold valid rows.
func (ix indexes) live(o sweep.Owner) bool {
	return o == sweep.Graph || o == sweep.Seg && ix.segBuilt ||
		o == sweep.Oracle && ix.orc != nil || o == sweep.Labels && ix.lbl != nil
}

// NewEngine wraps db. Call LoadGraph before running queries.
func NewEngine(db *rdb.DB, opts Options) *Engine {
	if opts.CacheSize == 0 {
		opts.CacheSize = DefaultCacheSize
	}
	e := &Engine{db: db, sess: db.Session(), opts: opts,
		level:         fem.LevelOf(db.Profile(), opts.TraditionalSQL),
		gate:          newQueryGate(),
		scratchGlobal: newScratchSet(-1),
		stmtCache:     make(map[string]*rdb.Stmt)}
	e.scratch.e = e
	for i := range e.queryDur {
		e.queryDur[i] = obs.NewHistogram(obs.DefLatencyBuckets...)
	}
	e.gateWaitDur = obs.NewHistogram(obs.DefLatencyBuckets...)
	if opts.MaxIters < 0 {
		e.optErr = fmt.Errorf("core: Options.MaxIters must be non-negative, got %d", opts.MaxIters)
	}
	if opts.DataDir != "" {
		e.dur = &durability{dir: opts.DataDir}
	}
	if opts.CacheSize > 0 {
		e.cache = newPathCache(opts.CacheSize)
	}
	return e
}

// lockQuery takes the EXCLUSIVE side of the query gate — mutators and
// whole-graph operations drain every in-flight reader and run alone — or
// gives up when ctx is cancelled first: a request still waiting in line
// dies cleanly without ever touching the working tables. Callers that must
// not be interrupted pass context.Background(). (The name predates the
// reader/writer gate: every historical lockQuery caller wanted exclusion,
// and read-only searches now use lockShared instead.)
func (e *Engine) lockQuery(ctx context.Context) error {
	return e.gate.lockExclusive(ctx)
}

// unlockQuery releases the exclusive side of the query gate.
func (e *Engine) unlockQuery() { e.gate.unlockExclusive() }

// lockShared admits a read-only search; any number run concurrently.
func (e *Engine) lockShared(ctx context.Context) error {
	return e.gate.lockShared(ctx)
}

// unlockShared releases one shared admission.
func (e *Engine) unlockShared() { e.gate.unlockShared() }

// DB exposes the underlying database.
func (e *Engine) DB() *rdb.DB { return e.db }

// Close shuts the engine down durably: the WAL (when armed) takes a final
// fsync and releases its file, the engine's DB session closes so
// ActiveSessions accounting stays meaningful, and the underlying database
// closes — flushing every dirty buffer-pool page and releasing the disk
// manager — so a clean shutdown leaves recoverable on-disk state.
// DB.Close is idempotent, so callers that also close the database
// themselves keep working.
func (e *Engine) Close() error {
	var errs []error
	if e.dur != nil {
		if log := e.dur.walLog(); log != nil {
			if err := log.Close(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	if err := e.sess.Close(); err != nil {
		errs = append(errs, err)
	}
	if err := e.db.Close(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// WMin returns the minimal edge weight of the loaded graph.
func (e *Engine) WMin() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.wmin
}

// Nodes returns the loaded node count.
func (e *Engine) Nodes() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.nodes
}

// Edges returns the loaded edge count.
func (e *Engine) Edges() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.edges
}

// SegLthd returns the threshold of the built SegTable (0 when absent).
func (e *Engine) SegLthd() int64 {
	if ix := e.indexState(); ix.segBuilt {
		return ix.segLthd
	}
	return 0
}

// Oracle returns the landmark oracle metadata, or nil when no oracle is
// built (or the last one was invalidated by a graph change).
func (e *Engine) Oracle() *oracle.Oracle { return e.indexState().orc }

// OracleInvalidated reports that a previously built oracle was killed by a
// graph mutation and has not been rebuilt: ALT and ApproxDistance refuse
// to run until BuildOracle is called again. The serving tier surfaces this
// so operators know approximate answers went cold.
func (e *Engine) OracleInvalidated() bool { return e.indexState().orcStale }

// MutationStats snapshots the mutation subsystem's counters.
func (e *Engine) MutationStats() MutationCounters {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.muts
}

// GraphVersion returns the current (graph, index) generation, bumped by
// LoadGraph, BuildSegTable and every edge mutation.
func (e *Engine) GraphVersion() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.version
}

// CacheStats snapshots the path cache (zero-valued when caching is off).
func (e *Engine) CacheStats() CacheStats {
	if e.cache == nil {
		return CacheStats{}
	}
	return e.cache.snapshot()
}

// ConcurrencyStats bundles the admission gate, the scratch-table pool and
// the snapshot-validation counters for the serving tier (spdbd /stats).
type ConcurrencyStats struct {
	Gate    GateStats    `json:"gate"`
	Scratch ScratchStats `json:"scratch"`
	// SnapshotRetries counts searches re-run because the graph version
	// moved between admission and commit; Degraded counts searches that
	// fell back to exclusive admission after exhausting retries. Both stay
	// 0 while the gate excludes writers correctly — they are the optimistic
	// pattern's safety net, not its hot path.
	SnapshotRetries uint64 `json:"snapshot_retries"`
	Degraded        uint64 `json:"degraded"`
}

// ConcurrencyStats snapshots the engine's parallel-admission machinery.
func (e *Engine) ConcurrencyStats() ConcurrencyStats {
	return ConcurrencyStats{
		Gate:            e.gate.stats(),
		Scratch:         e.scratch.stats(),
		SnapshotRetries: e.snapRetries.Load(),
		Degraded:        e.degraded.Load(),
	}
}

// bumpVersion invalidates every cached answer; callers hold e.mu.
func (e *Engine) bumpVersionLocked() {
	e.version++
	if e.cache != nil {
		e.cache.purge()
	}
}

// stmt resolves a statement text to the engine's prepared handle for it,
// preparing through the engine session on first use. Handles are shared
// (rdb.Stmt is concurrency-safe) and survive for the engine's lifetime.
func (e *Engine) stmt(q string) (*rdb.Stmt, error) {
	e.stmtMu.RLock()
	st := e.stmtCache[q]
	e.stmtMu.RUnlock()
	if st != nil {
		return st, nil
	}
	st, err := e.sess.Prepare(q)
	if err != nil {
		return nil, err
	}
	e.stmtMu.Lock()
	if prev, ok := e.stmtCache[q]; ok {
		st = prev // a concurrent caller prepared it first; share theirs
	} else {
		e.stmtCache[q] = st
	}
	e.stmtMu.Unlock()
	return st, nil
}

// exec runs a write statement through its prepared handle, charging its
// latency to the given phase accumulators (any of which may be nil).
// Cancellation and the statement budget are enforced here at the
// bind/execute boundary — every statement the engine issues passes through
// exec or queryInt, so a cancelled context or an exhausted budget stops the
// query at the next statement.
func (e *Engine) exec(ctx context.Context, qs *QueryStats, phase *time.Duration, op *time.Duration, q string, args ...any) (int64, error) {
	if err := e.checkBudget(ctx, qs); err != nil {
		return 0, err
	}
	st, err := e.stmt(q)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	res, err := st.ExecContext(ctx, args...)
	dt := time.Since(t0)
	if qs != nil {
		qs.Statements++
	}
	if phase != nil {
		*phase += dt
	}
	if op != nil {
		*op += dt
	}
	if err != nil {
		return 0, err
	}
	if qs != nil {
		qs.TuplesAffected += res.RowsAffected
	}
	return res.RowsAffected, nil
}

// queryInt runs a scalar query through its prepared handle with the same
// accounting.
func (e *Engine) queryInt(ctx context.Context, qs *QueryStats, phase *time.Duration, q string, args ...any) (int64, bool, error) {
	if err := e.checkBudget(ctx, qs); err != nil {
		return 0, false, err
	}
	st, err := e.stmt(q)
	if err != nil {
		return 0, false, err
	}
	t0 := time.Now()
	v, null, err := st.QueryIntContext(ctx, args...)
	dt := time.Since(t0)
	if qs != nil {
		qs.Statements++
	}
	if phase != nil {
		*phase += dt
	}
	return v, null, err
}

// checkBudget refuses the next statement when the context is cancelled or
// the query's statement budget (QueryRequest.MaxStatements) is spent.
func (e *Engine) checkBudget(ctx context.Context, qs *QueryStats) error {
	if err := rdb.ContextErr(ctx); err != nil {
		return err
	}
	if qs != nil && qs.budget > 0 && int64(qs.Statements) >= qs.budget {
		return fmt.Errorf("%w after %d statements", ErrBudgetExceeded, qs.Statements)
	}
	return nil
}

// search dispatches to the relational algorithms over the leased scratch
// set; callers hold the query gate (shared for reads, exclusive for the
// degraded path). budget is the per-query statement cap (0 = unlimited),
// applied to each handle's statement stream. The bi-directional algorithms
// are the FEM loop over this engine's handle and, when it coordinates a
// partitioned graph, one more per peer, admitted here in owner order (peers
// only ever admit shared, so the order cannot deadlock).
func (e *Engine) search(ctx context.Context, sc *scratchSet, alg Algorithm, s, t int64, budget int64) (Path, *QueryStats, error) {
	switch alg {
	case AlgDJ:
		return e.dj(ctx, sc, s, t, budget)
	case AlgLabel:
		if e.Labels() == nil {
			return Path{}, nil, fmt.Errorf("core: Label requires BuildLabels first (rebuild after graph changes)")
		}
		return e.labelSearch(ctx, s, t, budget)
	}
	spec, err := e.specFor(alg, sc, s, t)
	if err != nil {
		return Path{}, nil, err
	}
	hs := []*superstep{e.newSuperstep(sc, spec, budget)}
	owner, upper := soleOwner, int64(4*MaxDist)
	var witness func() []int64
	if pt := e.part; pt != nil {
		owner = pt.Owner
		for _, peer := range pt.Others {
			h, err := peer.admit(ctx, alg, budget)
			if err != nil {
				return Path{}, nil, err
			}
			defer h.release()
			hs = append(hs, h)
		}
		if pt.Bound != nil {
			if u, w := pt.Bound(s, t); w != nil {
				upper, witness = u, w
			}
		}
	}
	p, qs, err := runSupersteps(ctx, hs, owner, s, t, upper)
	if e.part != nil {
		e.part.supersteps.Add(uint64(qs.Iterations))
		e.part.exchanged.Add(uint64(qs.Exchanged))
	}
	if err == nil && p.Found && p.Nodes == nil {
		// The search stopped against the bound before recording a meeting at
		// that cost; the bound's owner holds the path.
		p.Nodes = witness()
	}
	return p, qs, err
}

// soleOwner is the owner function of a one-handle loop.
func soleOwner(int64) int { return 0 }

// specFor renders a bi-directional algorithm's femSpec over sc, refusing
// the ones whose index is not built.
func (e *Engine) specFor(alg Algorithm, sc *scratchSet, s, t int64) (femSpec, error) {
	ix := e.indexState()
	switch alg {
	case AlgBDJ:
		return specBDJ(sc), nil
	case AlgBSDJ:
		return specBSDJ(sc), nil
	case AlgBBFS:
		return specBBFS(sc), nil
	case AlgBSEG:
		if !ix.segBuilt {
			return femSpec{}, fmt.Errorf("core: BSEG requires BuildSegTable first")
		}
		return specBSEG(sc, ix.segLthd), nil
	case AlgALT:
		if ix.orc == nil {
			return femSpec{}, fmt.Errorf("core: ALT requires BuildOracle first (rebuild after graph changes)")
		}
		return specALT(sc, s, t), nil
	}
	return femSpec{}, fmt.Errorf("core: unknown algorithm %v", alg)
}

// maxIters resolves Options.MaxIters: an explicit positive cap wins, the
// default scales with the loaded graph (16×nodes+1024).
func (e *Engine) maxIters() int {
	if e.opts.MaxIters > 0 {
		return e.opts.MaxIters
	}
	if e.nodes > 0 {
		return 16*e.nodes + 1024
	}
	return 1 << 30
}
