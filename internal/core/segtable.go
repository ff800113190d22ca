package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/rdb"
	"repro/internal/storage"
	"repro/internal/sweep"
)

// Statements around the construction sweep (internal/sweep renders the
// sweep's own): texts are compile-time constants, so every build
// re-executes cached plans.
const (
	segCountOutQ = "SELECT COUNT(*) FROM " + TblOutSegs
	segCountInQ  = "SELECT COUNT(*) FROM " + TblInSegs

	// The finished sweep's segments (Definition 4(1)) as segMerge
	// candidates. The backward pass computed paths nid -> src: stored as
	// (fid=nid, tid=src, pid=successor of nid).
	segSweptOutQ = "SELECT src, nid, par, dist FROM " + TblSeg + " WHERE src <> nid"
	segSweptInQ  = "SELECT nid, src, par, dist FROM " + TblSeg + " WHERE src <> nid"

	// A batch's sources: a range [lo, hi) of the node order.
	segBatchSeed = TblNodes + " WHERE nid >= ? AND nid < ?"
)

// segLeafRows is how many TSeg rows the first batch assumes a page holds:
// a leaf half full of 43-byte cells (the 40-byte tuple, which holds its
// (src, nid) key, a length byte and a 2-byte slot).
const segLeafRows = storage.PageSize / 2 / 43

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
// framework (§4.2), one direction at a time: the original edges are folded
// into the direction's table first, then the nodes start as sources in a
// working table TSeg keyed on (src, nid), a batch of them at a time sized
// to a sixth of the buffer pool; bounded multi-source set-Dijkstra
// expands over the table's direct hops until the minimal unfinalized
// distance exceeds lthd, and a MERGE writes the batch's segments over the
// table, whose leaves it touched are then packed full, before the next
// batch starts (segPass).
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
	itF, batchF, err := e.segPass(ctx, qs, lthd, true)
	if err != nil {
		return nil, err
	}
	// Backward pass over incoming edges. par holds the successor of v on
	// the path v -> src, which becomes TInSegs.pid.
	itB, batchB, err := e.segPass(ctx, qs, lthd, false)
	if err != nil {
		return nil, err
	}
	st.Iterations = itF + itB
	st.Batches = max(batchF, batchB)

	outCnt, _, err := e.queryInt(ctx, qs, nil, segCountOutQ)
	if err != nil {
		return nil, err
	}
	inCnt, _, err := e.queryInt(ctx, qs, nil, segCountInQ)
	if err != nil {
		return nil, err
	}
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

// segPass runs one direction of the construction: fold the original edges
// into the direction's table (Definition 4(2)), then sweep over that table
// in batches of sources and merge each batch's segments (Definition 4(1))
// over it before the next batch starts. It returns the rounds summed over
// the batches and the batches.
//
// A batch is a contiguous range of the node order, sized so that its TSeg
// stays within a sixth of the buffer pool: every round's F and E passes
// read the whole working set, and one that outgrows the pool misses on
// every pass. (A sixth in 43-byte rows holds about the sources a quarter
// held when each row stored its key twice in 62 bytes; at a cold build of
// graph.Power(20000) behind 128 pages it takes 14 batches to a quarter's
// 10, with 3128 misses to 3144.) The first batch assumes the fold's rows
// per node plus one per source; each later one the pages per source the
// batch before it left. A pool that holds the whole sweep gives one batch.
//
// The merge lands each segment between the fold's direct hops of its
// source and splits the leaves it fills; the table is keyed on the
// direction's source column first, so the leaves of the batch's range are
// packed (rdb.DB.Pack) before the next batch, which leaves the table as
// full as a key-ordered load would and adds at most a batch's worth of
// half-empty leaves to the pages the file ever holds.
//
// The sweep expands the table's direct hops only (sweep.Run), which for
// the first batch are exactly the fold. A later batch sees the fold minus
// the edges a strictly cheaper segment replaced; such an edge lies on no
// shortest path, so every batch reaches the fixpoint it would reach over
// the fold, and so over TEdges (a cost tie keeps the direct hop). The
// point is the access path: TOutSegs is keyed on (fid, tid) and TInSegs on
// (tid, fid), so the expansion probes the prefix it joins on and every
// merge is a point probe, where TEdges is clustered on fid and a backward
// sweep over it fetches a page per incoming edge through tedges_tid.
func (e *Engine) segPass(ctx context.Context, qs *QueryStats, lthd int64, forward bool) (iterations, batches int, err error) {
	target, swept := TblOutSegs, segSweptOutQ
	if !forward {
		target, swept = TblInSegs, segSweptInQ
	}
	if err := e.foldEdges(ctx, qs, forward, ""); err != nil {
		return 0, 0, err
	}
	cat := e.db.Catalog()
	folded, _ := cat.Get(target)
	n := e.Nodes()
	budget := max(float64(e.db.Pool().Capacity())/6, 1)
	perSource := (float64(folded.RowCount())/float64(n) + 1) / segLeafRows // pages
	sw := e.sweeper(qs)
	for lo := 0; lo < n; batches++ {
		hi := min(n, lo+max(1, int(budget/perSource)))
		// Each source is at distance 0 from itself.
		it, _, err := sw.Run(ctx, target, forward, lthd, sweep.Q(segBatchSeed, lo, hi), sweep.Query{})
		if err != nil {
			return 0, 0, err
		}
		if _, err := e.mergeSegs(ctx, qs, target, swept, nil); err != nil {
			return 0, 0, err
		}
		if err := e.db.Pack(target, int64(lo), int64(hi)); err != nil {
			return 0, 0, err
		}
		iterations += it
		work, _ := cat.Get(TblSeg)
		perSource = float64(len(work.Pages())) / float64(hi-lo)
		lo = hi
	}
	return iterations, batches, nil
}

// foldEdges merges the original edges into the segment table
// (Definition 4(2)): an edge is discarded when a recorded segment already
// dominates it, a cheaper edge updates the recorded cost, and parallel
// edges collapse to their minimum. A build folds every edge into the empty
// table before its sweep. A non-empty touchTable restricts the
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
