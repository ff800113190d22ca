package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/graph"
	"repro/internal/labels"
	"repro/internal/oracle"
	"repro/internal/sweep"
)

// Table names used throughout (paper §2.1, §3.3, §4.2).
const (
	TblNodes   = sweep.TblNodes
	TblEdges   = sweep.TblEdges
	TblVisited = "TVisited"
	TblOutSegs = "TOutSegs"
	TblInSegs  = "TInSegs"
	TblExpand  = "TExpand"     // materialized E-operator output (non-fused paths)
	TblExpCost = "TExpCost"    // TSQL intermediate: per-node minimal cost
	TblSeg     = sweep.TblWork // index-build working set, (src, nid, dist, par, f)
)

const insertBatch = 400

// LoadGraph creates the relational representation of g (Figure 1 of the
// paper) under the engine's index strategy and bulk-loads it, then creates
// the per-query working tables.
func (e *Engine) LoadGraph(g *graph.Graph) error {
	if e.optErr != nil {
		return e.optErr
	}
	// A load in flight means the replica is not ready to serve: /readyz
	// reports 503 until it completes.
	defer e.trackBuild()()
	// Loading excludes searches and starts a fresh graph version: every
	// cached answer is invalidated. Loads are not cancellable — a partial
	// load would leave the engine with no graph at all.
	if err := e.lockQuery(context.Background()); err != nil {
		return err
	}
	defer e.unlockQuery()
	db := e.sess
	// Invalidate before touching any table: if the load fails partway the
	// engine must read as "no graph loaded" (and serve no cached answers
	// for the dropped tables), not as a stale hybrid of old and new.
	e.mu.Lock()
	e.nodes = 0
	e.edges = 0
	e.wmin = 0
	e.segBuilt = false
	e.orc = nil
	// A fresh graph starts with a clean oracle and label slate (the
	// mutation counters are engine-lifetime and survive reloads).
	e.orcStale = false
	e.lbl = nil
	e.lblStale = false
	e.bumpVersionLocked()
	e.mu.Unlock()
	// Reloading replaces any previously loaded graph (and its index):
	// drop the old tables so a serving engine can swap graphs in place.
	if err := e.dropAllTables(); err != nil {
		return err
	}
	if err := e.createGraphTables(); err != nil {
		return err
	}
	if err := e.createScratchTables(e.scratchGlobal); err != nil {
		return err
	}

	// Bulk-load nodes.
	var sb strings.Builder
	flushNodes := func() error {
		if sb.Len() == 0 {
			return nil
		}
		q := "INSERT INTO " + TblNodes + " (nid) VALUES " + sb.String()
		sb.Reset()
		_, err := db.Exec(q)
		return err
	}
	count := 0
	for nid := int64(0); nid < g.N; nid++ {
		if count > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d)", nid)
		count++
		if count == insertBatch {
			if err := flushNodes(); err != nil {
				return err
			}
			count = 0
		}
	}
	if err := flushNodes(); err != nil {
		return err
	}

	// Bulk-load edges.
	count = 0
	flushEdges := func() error {
		if sb.Len() == 0 {
			return nil
		}
		q := "INSERT INTO " + TblEdges + " (fid, tid, cost) VALUES " + sb.String()
		sb.Reset()
		_, err := db.Exec(q)
		return err
	}
	for _, ed := range g.Edges {
		if count > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d,%d,%d)", ed.From, ed.To, ed.Weight)
		count++
		if count == insertBatch {
			if err := flushEdges(); err != nil {
				return err
			}
			count = 0
		}
	}
	if err := flushEdges(); err != nil {
		return err
	}

	wmin, null, err := db.QueryInt("SELECT MIN(cost) FROM " + TblEdges)
	if err != nil {
		return err
	}
	if null || wmin < 1 {
		wmin = 1
	}
	e.mu.Lock()
	e.wmin = wmin
	e.nodes = int(g.N)
	e.edges = g.M()
	e.mu.Unlock()
	// Arm (or re-arm) durability for the fresh graph. The WAL resets: its
	// old records describe mutations over a different base and must never
	// replay on top of this one.
	return e.armDurabilityLocked(true)
}

// dropAllTables drops every engine-owned relation that exists — graph,
// working set, SegTable, oracle, labels, the builds' and the mutations'
// working and staging tables — so a reload or snapshot hydration starts
// from a clean catalog.
func (e *Engine) dropAllTables() error {
	dropList := append([]string{TblNodes, TblEdges, TblVisited, TblExpand, TblExpCost,
		TblOutSegs, TblInSegs, tblSegMaint, tblMutTouch, tblMutSrc}, sweep.WorkTables()...)
	dropList = append(dropList, oracle.Tables()...)
	dropList = append(dropList, labels.Tables()...)
	for _, tbl := range dropList {
		if _, ok := e.db.Catalog().Get(tbl); ok {
			if _, err := e.sess.Exec("DROP TABLE " + tbl); err != nil {
				return err
			}
		}
	}
	return nil
}

// createGraphTables creates TNodes and TEdges under the engine's index
// strategy (Fig 8(c)'s physical-design axis).
func (e *Engine) createGraphTables() error {
	stmts := []string{
		"CREATE TABLE " + TblNodes + " (nid INT PRIMARY KEY)",
		"CREATE TABLE " + TblEdges + " (fid INT, tid INT, cost INT)",
	}
	switch e.opts.Strategy {
	case ClusteredIndex:
		stmts = append(stmts,
			"CREATE CLUSTERED INDEX tedges_fid ON "+TblEdges+" (fid)",
			"CREATE INDEX tedges_tid ON "+TblEdges+" (tid)",
		)
	case SecondaryIndex:
		stmts = append(stmts,
			"CREATE INDEX tedges_fid ON "+TblEdges+" (fid)",
			"CREATE INDEX tedges_tid ON "+TblEdges+" (tid)",
		)
	case NoIndex:
		// bare heap
	}
	for _, s := range stmts {
		if _, err := e.sess.Exec(s); err != nil {
			return err
		}
	}
	return nil
}

// resetVisited clears sc's working tables (counted in PE since the paper's
// per-query setup happens inside the measured loop).
func (e *Engine) resetVisited(ctx context.Context, qs *QueryStats, sc *scratchSet) error {
	for _, q := range sc.resets {
		if _, err := e.exec(ctx, qs, nil, nil, q); err != nil {
			return err
		}
	}
	return nil
}

// visitedCount reads |TVisited| for the search-space metric (Table 3).
func (e *Engine) visitedCount(ctx context.Context, qs *QueryStats, sc *scratchSet) (int, error) {
	v, _, err := e.queryInt(ctx, qs, nil, sc.count)
	return int(v), err
}
