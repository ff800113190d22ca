// Package core implements the paper's contribution: the relational FEM
// (Frontier-select / Expand / Merge) framework and the five shortest-path
// algorithms built on it — DJ (Algorithm 1), BDJ, BSDJ (bi-directional set
// Dijkstra), BBFS, and BSEG (Algorithm 2, selective expansion over the
// SegTable index) — plus the SegTable construction of §4.2. All graph work
// happens in SQL against rdb.DB; the Go side only holds scalar loop state,
// exactly like the paper's JDBC client.
package core

import (
	"fmt"
	"time"
)

// Phase identifies the paper's Fig 6(b) decomposition of a query.
type Phase int

// Query phases.
const (
	PhasePE  Phase = iota // path expansion (F/E/M statements)
	PhaseSC               // statistics collection (mins, counts, termination)
	PhaseFPR              // full path recovery
)

// QueryStats aggregates one shortest-path discovery, covering every metric
// the paper reports: expansions (Table 2/3), statement counts, visited-node
// counts (Table 3), phase split (Fig 6(b)) and operator split (Fig 6(c)).
type QueryStats struct {
	Algorithm string
	// Planner records the planner decision that selected this algorithm
	// (one of the core.Decision* labels; "hint" when the caller named the
	// algorithm, empty for engine-internal work like index builds).
	Planner string
	// Iterations counts main-loop rounds (frontier selections for the
	// bi-directional algorithms, node expansions for DJ) — how much of the
	// Options.MaxIters bound the query actually used.
	Iterations int
	// Expansions counts E-operator executions (forward + backward).
	Expansions         int
	ForwardExpansions  int
	BackwardExpansions int
	// Statements counts SQL statements issued.
	Statements int
	// TuplesAffected totals the affected-row counts of every write
	// statement the query issued (the SQLCA sums) — the work metric the
	// ALT-vs-BSDJ experiments compare. A frontier row counts once, for the
	// F that stamps it: the bi-directional loop has no un-mark statement.
	TuplesAffected int64
	// PrunedRows counts candidates settled without expansion by the ALT
	// landmark bound (zero for the other algorithms).
	PrunedRows int64
	// VisitedRows is |TVisited| when the search stops (search space).
	VisitedRows int
	// Exchanged counts expansion candidates routed between peer handles
	// (zero unless the loop ran over more than one engine).
	Exchanged int
	// Phase timings (Fig 6(b)).
	PE, SC, FPR time.Duration
	// Operator timings (Fig 6(c); populated when SeparateOperators is on,
	// where F, E and M run as distinct statements).
	FOp, EOp, MOp time.Duration
	// Total wall time of the query.
	Total time.Duration
	// Stage timings of the serving path around the search itself (the
	// observability decomposition; see docs/ARCHITECTURE.md §Observability).
	// GateWait is the time spent queued on the admission gate (summed over
	// snapshot retries and the degraded exclusive fallback); PlanDur the
	// planner's wall time including its landmark-bound reads (summed over
	// replans). Both are zero for engine-internal work that bypasses
	// Engine.Query.
	GateWait time.Duration
	PlanDur  time.Duration
	// CacheHit reports that the answer came from the path cache: no SQL
	// ran, and every other counter is zero.
	CacheHit bool

	// budget is the per-query statement cap (QueryRequest.MaxStatements);
	// exec/queryInt enforce it. 0 = unlimited.
	budget int64
}

// fold adds one handle's accounting — what exec, queryInt and queryRows
// charge — into the query's stats.
func (q *QueryStats) fold(h *QueryStats) {
	q.Statements += h.Statements
	q.TuplesAffected += h.TuplesAffected
	q.PE += h.PE
	q.SC += h.SC
	q.FPR += h.FPR
	q.FOp += h.FOp
	q.EOp += h.EOp
	q.MOp += h.MOp
}

// SQLDur is the time the query spent executing SQL statements: the sum of
// the three phase accumulators (every statement charges exactly one). The
// remainder of Total is the Go-side frontier loop — scalar bookkeeping,
// direction choice, termination tests.
func (q *QueryStats) SQLDur() time.Duration { return q.PE + q.SC + q.FPR }

func (q *QueryStats) String() string {
	if q.CacheHit {
		return fmt.Sprintf("%s: cache hit", q.Algorithm)
	}
	pruned := ""
	if q.PrunedRows > 0 {
		pruned = fmt.Sprintf(" pruned=%d", q.PrunedRows)
	}
	return fmt.Sprintf("%s: exps=%d (f=%d b=%d) stmts=%d affected=%d visited=%d%s total=%v [PE=%v SC=%v FPR=%v]",
		q.Algorithm, q.Expansions, q.ForwardExpansions, q.BackwardExpansions,
		q.Statements, q.TuplesAffected, q.VisitedRows, pruned, q.Total.Round(time.Microsecond),
		q.PE.Round(time.Microsecond), q.SC.Round(time.Microsecond), q.FPR.Round(time.Microsecond))
}

// Path is a discovered shortest path.
type Path struct {
	Found  bool
	Length int64
	Nodes  []int64 // s..t inclusive; nil when !Found
}

// SegTableStats reports one SegTable construction (§5.3's metrics).
type SegTableStats struct {
	Lthd       int64
	OutSegs    int // rows in TOutSegs (pre-computed segments + edges)
	InSegs     int
	Iterations int
	Statements int
	BuildTime  time.Duration
}

func (s *SegTableStats) String() string {
	return fmt.Sprintf("SegTable(lthd=%d): out=%d in=%d iters=%d stmts=%d time=%v",
		s.Lthd, s.OutSegs, s.InSegs, s.Iterations, s.Statements, s.BuildTime.Round(time.Millisecond))
}

// EncodingNumber is the index-size metric of Fig 9(a)/9(b): the total
// number of encoded segment tuples.
func (s *SegTableStats) EncodingNumber() int { return s.OutSegs + s.InSegs }
