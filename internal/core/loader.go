package core

import (
	"context"
	"fmt"
	"strings"

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
	TblExpand  = sweep.TblExpand  // materialized E-operator output (non-fused paths)
	TblExpCost = sweep.TblExpCost // TSQL intermediate: per-node minimal cost
	TblSeg     = sweep.TblWork    // index-build working set, (src, nid, dist, par, f)
)

const insertBatch = 400

// LoadGraph creates the relational representation of g (Figure 1 of the
// paper) under the engine's index strategy and bulk-loads it, then creates
// the per-query working tables. The relations number g's nodes in
// graph.LocalityOrder; callers keep speaking g's ids (ARCHITECTURE §Node
// order).
func (e *Engine) LoadGraph(g *graph.Graph) error {
	toInt, toExt := graph.LocalityOrder(g)
	return e.LoadPartition(g, toInt, toExt)
}

// LoadPartition is LoadGraph over a node order computed elsewhere: toInt and
// toExt must be inverse permutations of g's ids. shard.Open loads every
// partition of a graph over the whole graph's graph.LocalityOrder, so the
// members of a peer set share one internal id space (SetPeers checks it).
func (e *Engine) LoadPartition(g *graph.Graph, toInt, toExt []int64) error {
	if err := e.guard(wholeGraph); err != nil {
		return err
	}
	ord := order{toInt: toInt, toExt: toExt}
	if err := ord.check(g.N); err != nil {
		return err
	}
	for _, ed := range g.Edges {
		if ed.Weight > MaxWeight {
			return fmt.Errorf("core: edge (%d,%d) weighs %d, above MaxWeight %d", ed.From, ed.To, ed.Weight, MaxWeight)
		}
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
	if err := e.resetLocked(); err != nil {
		return err
	}
	// Both relations load in key order: TNodes by nid, TEdges by internal
	// (fid, tid), one row a pair at its cheapest parallel edge's cost.
	// Key-ordered inserts leave the B+tree's leaves full (btree's split
	// rule), and a node's edges land next to its neighbours'.
	if err := e.bulkInsert(sweep.Rel(TblNodes), len(toExt), func(i int, row []int64) {
		row[0], row[1] = int64(i), toExt[i]
	}); err != nil {
		return err
	}
	pairs := make([]graph.Edge, len(g.Edges))
	for i, ed := range g.Edges {
		pairs[i] = graph.Edge{From: toInt[ed.From], To: toInt[ed.To], Weight: ed.Weight}
	}
	pairs = graph.Collapse(pairs)
	if err := e.bulkInsert(sweep.Rel(TblEdges), len(pairs), func(i int, row []int64) {
		row[0], row[1], row[2] = pairs[i].From, pairs[i].To, pairs[i].Weight
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
	e.edges = len(pairs)
	e.ord = ord
	e.mu.Unlock()
	// Arm (or re-arm) durability for the fresh graph. The WAL resets: its
	// old records describe mutations over a different base and must never
	// replay on top of this one.
	return e.armDurabilityLocked(true)
}

// order is one generation's node numbering (ARCHITECTURE §Node order):
// toInt maps a caller's — external — id to the internal id every relation
// stores, toExt maps back. A load sets it and a hydration reads it back from
// TNodes, both under the exclusive gate; the public entry points translate,
// nothing below them does.
type order struct{ toInt, toExt []int64 }

// check refuses an order that is not a pair of inverse permutations of
// 0..n-1.
func (o order) check(n int64) error {
	if int64(len(o.toInt)) != n || int64(len(o.toExt)) != n {
		return fmt.Errorf("core: a node order of %d / %d ids for %d nodes", len(o.toInt), len(o.toExt), n)
	}
	for i, x := range o.toExt {
		if x < 0 || x >= n || o.toInt[x] != int64(i) {
			return fmt.Errorf("core: the node order is not a permutation (internal id %d)", i)
		}
	}
	return nil
}

// external rewrites internal ids as external ones, in place.
func (o order) external(ids []int64) []int64 {
	for i, v := range ids {
		ids[i] = o.toExt[v]
	}
	return ids
}

// nodeOrder reads the loaded generation's order.
func (e *Engine) nodeOrder() order {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.ord
}

// resetLocked is how a load and a hydration start; callers hold the
// exclusive gate. It invalidates first — if what follows fails partway the
// engine must read as "no graph loaded" with no index and no cached answer
// (the mutation counters are engine-lifetime and survive), not as a stale
// hybrid of old and new — then drops every declared relation that exists,
// so a serving engine swaps graphs in place and nothing it created lazily
// survives, and creates the graph relations, which the caller fills.
func (e *Engine) resetLocked() error {
	e.mu.Lock()
	e.nodes, e.edges, e.wmin = 0, 0, 0
	e.ord = order{}
	e.indexes = indexes{}
	e.bumpVersionLocked()
	e.mu.Unlock()
	s := e.schema(nil)
	if err := s.Drop(sweep.Relations...); err != nil {
		return err
	}
	return s.Create(sweep.Owned(sweep.Graph)...)
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

// bulkInsert loads n rows into rel through two statement shapes, an INSERT
// of insertBatch rows and one of a single row for the tail; row fills in
// the i-th one's columns, in declaration order. The rows bind as
// parameters, so every load of rel runs the same two texts.
func (e *Engine) bulkInsert(rel sweep.Relation, n int, row func(i int, vals []int64)) error {
	head := "INSERT INTO " + rel.Name + " (" + rel.Cols + ") VALUES "
	tuple := "(?" + strings.Repeat(", ?", rel.Width()-1) + ")"
	one, batch := head+tuple, head+tuple+strings.Repeat(", "+tuple, insertBatch-1)
	vals, args := make([]int64, rel.Width()), make([]any, 0, insertBatch*rel.Width())
	full := n - n%insertBatch
	for i := 0; i < n; i++ {
		row(i, vals)
		for _, v := range vals {
			args = append(args, v)
		}
		q := one
		if i < full {
			if (i+1)%insertBatch != 0 {
				continue
			}
			q = batch
		}
		if _, err := e.sess.Exec(q, args...); err != nil {
			return err
		}
		args = args[:0]
	}
	return nil
}

// resetVisited clears sc's visited table for a new search. The expand and
// expCost tables need no reset: each of their writers (the fem staging
// round, Plain's cost staging, superstep.inject) clears them before it
// fills them.
func (e *Engine) resetVisited(ctx context.Context, qs *QueryStats, sc *scratchSet) error {
	_, err := e.exec(ctx, qs, nil, nil, sc.reset)
	return err
}

// visitedCount reads |TVisited| for the search-space metric (Table 3).
func (e *Engine) visitedCount(ctx context.Context, qs *QueryStats, sc *scratchSet) (int, error) {
	v, _, err := e.queryInt(ctx, qs, nil, sc.count)
	return int(v), err
}
