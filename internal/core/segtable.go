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
	// The finished sweep's segments (Definition 4(1)) as segMerge
	// candidates, paths src -> nid with par the predecessor of nid.
	segSweptQ = "SELECT src, nid, par, dist FROM " + TblSeg + " WHERE src <> nid"
	// The fold's direct hops a sweep can take, each a row of the first
	// round's TSeg.
	segFoldWithinQ = "SELECT COUNT(*) FROM " + TblOutSegs + " WHERE cost <= ?"

	// A batch's sources: a range [lo, hi) of the node order.
	segBatchSeed = TblNodes + " WHERE nid >= ? AND nid < ?"
)

// segLeafRows is how many TSeg rows a leaf holds at the build's leaf fill:
// two thirds full, where leaves that inserts split in halves and refill
// settle, of 43-byte cells (the 40-byte tuple, which holds its (src, nid)
// key, a length byte and a 2-byte slot).
const segLeafRows = storage.PageSize * 2 / 3 / 43

// sweeper builds the index-build kernel over the engine's statement path:
// every statement a build issues runs through exec / queryInt (cached
// plans, cancellation) and counts into qs, which may be nil. Callers
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
// the original edges not dominated by a segment, keyed on (fid, tid); its
// tid index, whose entries hold (tid, fid, cost), is the incoming
// direction's access path. Construction itself runs through the FEM
// framework (§4.2) in the forward direction only: the original edges are
// folded into TOutSegs first, then the nodes start as sources in a working
// table TSeg keyed on (src, nid), a batch of them at a time sized to a
// sixth of the buffer pool; bounded multi-source set-Dijkstra expands over
// TOutSegs' direct hops until the minimal unfinalized distance exceeds
// lthd, and a MERGE writes the batch's segments over TOutSegs, whose leaves
// it touched are then packed full, before the next batch starts (segPass).
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
	err := e.createSegTables(qs)
	if err != nil {
		return nil, err
	}

	// One forward pass: shortest segments src -> v, par holding pre(v), the
	// predecessor of v on the path, which becomes TOutSegs' pid
	// (Definition 4(1)).
	st.Iterations, st.BatchSources, err = e.segPass(ctx, qs, lthd)
	if err != nil {
		return nil, err
	}
	st.Batches = len(st.BatchSources)

	// InSegs counts the tid index's entries, or under NoIndex the rows the
	// backward search scans.
	out, _ := e.db.Catalog().Get(TblOutSegs)
	st.OutSegs, st.InSegs = out.RowCount(), out.RowCount()
	if n := len(out.Secondary); n > 0 { // the tid index is declared last
		st.InSegs = out.Secondary[n-1].Tree().Len()
	}
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

// createSegTables (re)creates TOutSegs and its index under the engine's strategy,
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

// segPass runs the construction: fold the original edges into TOutSegs
// (Definition 4(2)), then sweep forward over it in batches of sources and
// merge each batch's segments (Definition 4(1)) over it before the next
// batch starts. It returns the rounds summed over the batches and each
// batch's source count.
//
// One direction serves both searches: a shortest path x -> y is a shortest
// path x -> y whichever end the search starts from. The backward search and
// the maintenance's prefixes probe TOutSegs' tid index, which every merge
// keeps.
//
// A batch is a contiguous range of the node order, sized so that its TSeg
// stays within a sixth of the buffer pool: every round's F and E passes
// read the whole working set, and one that outgrows the pool misses on
// every pass. The size is counted in rows: the sixth less the root page,
// at segLeafRows rows a leaf. The first batch assumes one row per source
// plus the fold's direct hops within lthd per node, the rows its first
// round adds; each later one the rows per source the batch before it left.
// (The pages TSeg left are page-granular on a small pool — a one-leaf TSeg
// is one page, a two-leaf one three — and swung an 8-page pool's batches
// by a factor of five.) A pool that holds the whole sweep gives one batch.
//
// The merge lands each segment between the fold's direct hops and splits
// the leaves it fills. TOutSegs is keyed on fid first, so a batch writes
// the contiguous key range of its sources, which is packed (rdb.DB.Pack)
// before the next batch: that leaves it as full as a key-ordered load
// would and adds at most a batch's worth of half-empty leaves to the pages
// the file ever holds. The tid index is keyed on tid first, and a batch's
// segments end across most of the node order, so packing a batch's range
// would read nearly the whole index every batch; it is packed once, after
// the last batch (rdb.DB.PackIndexes), and its split leaves fill up between
// batches instead.
//
// The sweep expands TOutSegs' direct hops only (sweep.Run), which for the
// first batch are exactly the fold. A later batch sees the fold minus the
// edges a strictly cheaper segment replaced; such an edge lies on no
// shortest path, so every batch reaches the fixpoint it would reach over
// the fold, and so over TEdges (a cost tie keeps the direct hop). The
// point is the access path: TOutSegs is keyed on (fid, tid), so the
// expansion probes the prefix it joins on and every merge is a point
// probe.
func (e *Engine) segPass(ctx context.Context, qs *QueryStats, lthd int64) (iterations int, batches []int, err error) {
	if err := e.foldEdges(ctx, qs, ""); err != nil {
		return 0, nil, err
	}
	hops, _, err := e.queryInt(ctx, qs, nil, segFoldWithinQ, lthd)
	if err != nil {
		return 0, nil, err
	}
	n := e.Nodes()
	budget := (float64(e.db.Pool().Capacity())/6 - 1) * segLeafRows // rows
	perSource := float64(hops)/float64(n) + 1                       // rows
	cat := e.db.Catalog()
	sw := e.sweeper(qs)
	for lo := 0; lo < n; {
		hi := min(n, lo+max(1, int(budget/perSource)))
		// Each source is at distance 0 from itself.
		it, _, err := sw.Run(ctx, TblOutSegs, true, lthd, sweep.Q(segBatchSeed, lo, hi), sweep.Query{})
		if err != nil {
			return 0, nil, err
		}
		if _, err := e.mergeSegs(ctx, qs, segSweptQ, nil); err != nil {
			return 0, nil, err
		}
		if err := e.db.Pack(TblOutSegs, int64(lo), int64(hi)); err != nil {
			return 0, nil, err
		}
		iterations += it
		batches = append(batches, hi-lo)
		work, _ := cat.Get(TblSeg)
		perSource = float64(work.RowCount()) / float64(hi-lo)
		lo = hi
	}
	if err := e.db.PackIndexes(TblOutSegs); err != nil {
		return 0, nil, err
	}
	return iterations, batches, sw.Clear()
}

// foldEdges merges the original edges into TOutSegs (Definition 4(2)),
// pid the direct hop's fid: an edge is discarded when a recorded segment
// already dominates it, and a cheaper edge updates the recorded cost.
// TEdges holds one row a pair, so the fold projects it. A build folds
// every edge into the empty table before its sweep. A non-empty touchTable
// restricts the fold to the (fid, tid) pairs recorded there, uniquely —
// the decremental repair path, which only re-materializes touched pairs
// and reaches their edges from the touch table through TEdges' pair key.
func (e *Engine) foldEdges(ctx context.Context, qs *QueryStats, touchTable string) error {
	from := " FROM " + TblEdges + " s"
	if touchTable != "" {
		from = " FROM " + touchTable + " m, " + TblEdges + " s WHERE s.fid = m.fid AND s.tid = m.tid"
	}
	_, err := e.mergeSegs(ctx, qs, "SELECT s.fid, s.tid, s.fid, s.cost"+from, nil)
	return err
}
