package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/rdb"
	"repro/internal/sweep"
)

// Statements around the construction sweep (internal/sweep renders the
// sweep's own): texts are compile-time constants, so every build
// re-executes cached plans.
const (
	segCountOutQ = "SELECT COUNT(*) FROM " + TblOutSegs
	segCountInQ  = "SELECT COUNT(*) FROM " + TblInSegs

	// Materialization of the finished sweep (Definition 4(1)).
	segInsOutQ = "INSERT INTO " + TblOutSegs +
		" (fid, tid, pid, cost) SELECT src, nid, par, dist FROM " + TblSeg + " WHERE src <> nid"
	// Backward pass computed paths nid -> src; store as (fid=nid, tid=src,
	// pid=successor of nid).
	segInsInQ = "INSERT INTO " + TblInSegs +
		" (fid, tid, pid, cost) SELECT nid, src, par, dist FROM " + TblSeg + " WHERE src <> nid"
)

// sweeper builds the index-build kernel over the engine's statement path:
// every statement a build issues runs through exec / queryInt (prepared
// handles, cancellation) and counts into qs, which may be nil. Callers
// hold the exclusive gate.
func (e *Engine) sweeper(qs *QueryStats) *sweep.Runner {
	return sweep.New(e.db,
		func(ctx context.Context, q string, args ...any) (rdb.Result, error) {
			n, err := e.exec(ctx, qs, nil, nil, q, args...)
			return rdb.Result{RowsAffected: n}, err
		},
		func(ctx context.Context, q string, args ...any) (int64, bool, error) {
			return e.queryInt(ctx, qs, nil, q, args...)
		},
		e.WMin(), e.maxIters(), e.level, e.opts.Strategy)
}

// DefaultLthd is the SegTable threshold the commands build with when BSEG
// is asked for and no -lthd is given.
const DefaultLthd = 20

// BuildSegTable constructs the SegTable index of Definition 4: TOutSegs
// holds every pre-computed shortest segment (u,v) with δ(u,v) <= lthd plus
// the original edges not dominated by a segment; TInSegs is the symmetric
// incoming-direction table. Construction itself runs through the FEM
// framework (§4.2): all nodes start as sources in a working table TSeg
// keyed on (src, nid), bounded multi-source set-Dijkstra expands until the
// minimal unfinalized distance exceeds lthd, and a final MERGE folds in the
// remaining original edges.
func (e *Engine) BuildSegTable(lthd int64) (*SegTableStats, error) {
	return e.BuildSegTableContext(context.Background(), lthd)
}

// BuildSegTableContext is BuildSegTable with cooperative cancellation: a
// cancelled ctx aborts the construction at the next statement or sweep
// round, leaving the engine with no SegTable (segBuilt stays false, so
// BSEG refuses cleanly) rather than a partial index.
func (e *Engine) BuildSegTableContext(ctx context.Context, lthd int64) (*SegTableStats, error) {
	release, err := e.beginBuild(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	return e.buildSegTableLocked(ctx, lthd, true)
}

// beginBuild is the prologue every index build shares: refuse a
// misconfigured engine and a partition of a graph; count as in flight from entry, the wait for the
// gate included, so /readyz routes traffic away while the index is cold;
// take the exclusive gate, since a build rewrites relations searches read
// and invalidates every cached answer; require a loaded graph. The
// returned func releases the gate and the in-flight count.
func (e *Engine) beginBuild(ctx context.Context) (release func(), err error) {
	if err := e.guard(wholeGraph); err != nil {
		return nil, err
	}
	done := e.trackBuild()
	if err := e.lockQuery(ctx); err != nil {
		done()
		return nil, err
	}
	release = func() {
		e.unlockQuery()
		done()
	}
	if e.Nodes() == 0 {
		release()
		return nil, ErrNoGraph
	}
	return release, nil
}

// buildSegTableLocked is the construction body; callers hold queryMu. The
// decremental repair fallback calls it with bump=false: the mutation batch
// already bumped the graph version, concurrent searches are latched out,
// and the path cache is empty, so a second invalidation would only distort
// the stats.
func (e *Engine) buildSegTableLocked(ctx context.Context, lthd int64, bump bool) (*SegTableStats, error) {
	if lthd < 1 {
		return nil, fmt.Errorf("core: lthd must be positive, got %d", lthd)
	}
	st := &SegTableStats{Lthd: lthd}
	start := time.Now()
	qs := &QueryStats{Algorithm: "SegBuild"} // reuse the statement counter

	db := e.sess
	// The previous index dies the moment its tables are dropped: a failed
	// or cancelled build must leave segBuilt false (BSEG refuses cleanly)
	// rather than pointing the planner and searches at a partial index.
	// Cached BSEG answers stay sound — they are real shortest paths of the
	// unchanged graph — so no version bump is needed here.
	e.mu.Lock()
	e.segBuilt = false
	e.mu.Unlock()
	if err := e.createSegTables(qs); err != nil {
		return nil, err
	}

	// Forward pass: shortest segments in the outgoing direction. par holds
	// pre(v), the predecessor of v on the path src -> v, which becomes
	// TOutSegs.pid (Definition 4(1)).
	itF, err := e.segPass(ctx, qs, lthd, true)
	if err != nil {
		return nil, err
	}
	// Backward pass over incoming edges. par holds the successor of v on
	// the path v -> src, which becomes TInSegs.pid.
	itB, err := e.segPass(ctx, qs, lthd, false)
	if err != nil {
		return nil, err
	}
	st.Iterations = itF + itB

	outCnt, _, err := db.QueryInt(segCountOutQ)
	if err != nil {
		return nil, err
	}
	inCnt, _, err := db.QueryInt(segCountInQ)
	if err != nil {
		return nil, err
	}
	qs.Statements += 2
	st.OutSegs = int(outCnt)
	st.InSegs = int(inCnt)
	st.Statements = qs.Statements
	st.BuildTime = time.Since(start)
	e.mu.Lock()
	e.segBuilt = true
	e.segLthd = lthd
	if bump {
		e.bumpVersionLocked()
	}
	e.mu.Unlock()
	return st, nil
}

// createSegTables (re)creates TOutSegs/TInSegs under the engine's strategy,
// the TSeg working set and, below the MERGE level, the maintenance staging
// table, counting the statements into a non-nil qs. Shared by the
// construction path and snapshot hydration (durability.go), which
// bulk-loads the segment rows instead of sweeping.
func (e *Engine) createSegTables(qs *QueryStats) error {
	s, rels := e.schema(qs), sweep.Owned(sweep.Seg)
	if err := s.Drop(rels...); err != nil {
		return err
	}
	return s.Create(rels...)
}

// segPass runs one direction of the construction and materializes the
// segment table plus the original-edge merge.
func (e *Engine) segPass(ctx context.Context, qs *QueryStats, lthd int64, forward bool) (int, error) {
	// Every node is a source at distance 0 from itself.
	iterations, _, err := e.sweeper(qs).Run(ctx, forward, lthd, sweep.Q(TblNodes), sweep.Query{})
	if err != nil {
		return 0, err
	}

	// Materialize the segments (Definition 4(1)) ...
	insQ := segInsOutQ
	if !forward {
		insQ = segInsInQ
	}
	if _, err := e.exec(ctx, qs, nil, nil, insQ); err != nil {
		return 0, err
	}

	// ... and fold in the remaining original edges (Definition 4(2)): an
	// edge is discarded when a recorded segment already dominates it; a
	// cheaper parallel edge updates the recorded cost.
	if err := e.foldEdges(ctx, qs, forward, ""); err != nil {
		return 0, err
	}
	return iterations, nil
}

// foldEdges merges the original edges into the segment table
// (Definition 4(2)): an edge is discarded when a recorded segment already
// dominates it, a cheaper edge updates the recorded cost, and parallel
// edges collapse to their minimum. A non-empty touchTable restricts the
// fold to the (fid, tid) pairs recorded there, uniquely — the decremental
// repair path, which only re-materializes touched pairs and reaches their
// edges from the touch table through TEdges' fid index.
func (e *Engine) foldEdges(ctx context.Context, qs *QueryStats, forward bool, touchTable string) error {
	target := TblOutSegs
	pid := "s.fid"
	if !forward {
		target = TblInSegs
		pid = "s.tid" // successor of fid on the single-edge path
	}
	from := TblEdges + " s"
	if touchTable != "" {
		from = touchTable + " m, " + TblEdges + " s WHERE s.fid = m.fid AND s.tid = m.tid"
	}
	src := "SELECT s.fid, s.tid, " + pid + ", MIN(s.cost) FROM " + from + " GROUP BY s.fid, s.tid"
	_, err := e.mergeSegs(ctx, qs, target, src, nil)
	return err
}
