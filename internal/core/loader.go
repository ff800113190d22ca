package core

import (
	"context"
	"strconv"

	"repro/internal/graph"
	"repro/internal/sweep"
)

// Table names used throughout (paper §2.1, §3.3, §4.2), declared in
// internal/sweep.
const (
	TblNodes   = sweep.TblNodes
	TblEdges   = sweep.TblEdges
	TblVisited = sweep.TblVisited
	TblOutSegs = sweep.TblOutSegs
	TblInSegs  = sweep.TblInSegs
	TblExpand  = sweep.TblExpand  // materialized E-operator output (non-fused paths)
	TblExpCost = sweep.TblExpCost // TSQL intermediate: per-node minimal cost
	TblSeg     = sweep.TblWork    // index-build working set, (src, nid, dist, par, f)
)

const insertBatch = 400

// LoadGraph creates the relational representation of g (Figure 1 of the
// paper) under the engine's index strategy and bulk-loads it, then creates
// the per-query working tables.
func (e *Engine) LoadGraph(g *graph.Graph) error {
	if err := e.guard(wholeGraph); err != nil {
		return err
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
	if err := e.resetLocked(int(g.N)); err != nil {
		return err
	}
	if err := e.bulkInsert(sweep.Rel(TblEdges), len(g.Edges), func(i int, row []int64) {
		row[0], row[1], row[2] = g.Edges[i].From, g.Edges[i].To, g.Edges[i].Weight
	}); err != nil {
		return err
	}

	wmin, null, err := e.sess.QueryInt("SELECT MIN(cost) FROM " + TblEdges)
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

// resetLocked is how a load and a hydration start; callers hold the
// exclusive gate. It invalidates first — if what follows fails partway the
// engine must read as "no graph loaded" with no index and no cached answer
// (the mutation counters are engine-lifetime and survive), not as a stale
// hybrid of old and new — then drops every declared relation that exists,
// so a serving engine swaps graphs in place and nothing it created lazily
// survives, creates the graph relations and the global scratch set, and
// fills TNodes with the dense ids 0..nodes-1.
func (e *Engine) resetLocked(nodes int) error {
	e.mu.Lock()
	e.nodes, e.edges, e.wmin = 0, 0, 0
	e.indexes = indexes{}
	e.bumpVersionLocked()
	e.mu.Unlock()
	s := e.schema(nil)
	if err := s.Drop(sweep.Relations...); err != nil {
		return err
	}
	if err := s.Create(sweep.Owned(sweep.Graph)...); err != nil {
		return err
	}
	if err := e.createScratchTables(e.scratchGlobal); err != nil {
		return err
	}
	return e.bulkInsert(sweep.Rel(TblNodes), nodes, func(i int, row []int64) { row[0] = int64(i) })
}

// schema issues DDL over the engine's session under its physical design
// (Fig 8(c)'s axis) and SQL level, counting the statements into a non-nil
// qs.
func (e *Engine) schema(qs *QueryStats) sweep.Schema {
	return sweep.Schema{Catalog: e.db.Catalog(), Strategy: e.opts.Strategy, Level: e.level,
		Exec: func(q string) error {
			_, err := e.sess.Exec(q)
			if err == nil && qs != nil {
				qs.Statements++
			}
			return err
		}}
}

// bulkInsert loads n rows into rel, insertBatch literal tuples to the
// INSERT; row fills in the i-th one's columns, in declaration order.
func (e *Engine) bulkInsert(rel sweep.Relation, n int, row func(i int, vals []int64)) error {
	head := "INSERT INTO " + rel.Name + " (" + rel.Cols + ") VALUES "
	q, vals := []byte(head), make([]int64, rel.Width())
	for i := 0; i < n; i++ {
		row(i, vals)
		sep := byte('(')
		if len(q) > len(head) {
			q = append(q, ',')
		}
		for _, v := range vals {
			q = strconv.AppendInt(append(q, sep), v, 10)
			sep = ','
		}
		q = append(q, ')')
		if (i+1)%insertBatch == 0 || i == n-1 {
			if _, err := e.sess.Exec(string(q)); err != nil {
				return err
			}
			q = q[:len(head)]
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
