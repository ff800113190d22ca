package labels

import (
	"context"
	"fmt"
	"time"

	"repro/internal/sweep"
)

// The prune test: label-query the distance between the current hub (bound
// as the parameter) and each settled candidate, oriented with the pass
// direction, and flag the candidates an earlier hub already covers.
const (
	labelQ        = "(SELECT MIN(a.dist + b.dist) FROM " + TblOut + " a, " + TblIn + " b WHERE "
	pruneForwardQ = "UPDATE " + sweep.TblWork + " SET f = 3 WHERE f = 2 AND " + labelQ +
		"a.nid = ? AND b.nid = " + sweep.TblWork + ".nid AND a.hub = b.hub) <= " + sweep.TblWork + ".dist"
	pruneBackwardQ = "UPDATE " + sweep.TblWork + " SET f = 3 WHERE f = 2 AND " + labelQ +
		"a.nid = " + sweep.TblWork + ".nid AND b.nid = ? AND a.hub = b.hub) <= " + sweep.TblWork + ".dist"
	// Every settled, unpruned node of a finished pass gets a label row for
	// its hub (including the hub's own (hub, hub, 0) — the root settles at 0
	// and no earlier-hub detour beats 0 with positive weights). Unreached
	// nodes get no row: the distance join treats a missing hub pair as
	// unreachable, which is exact.
	labelRowsQ = " (nid, hub, dist) SELECT nid, ?, dist FROM " + sweep.TblWork + " WHERE f <> 3"
)

// Build constructs the pruned 2-hop label index over the graph tables,
// issuing every statement through r. The caller is responsible for
// exclusion against concurrent searches and graph mutation (the engine
// holds its query gate across the build). A cancelled ctx aborts the build
// at the next statement or sweep round; the caller must then treat the
// index as not built (the engine leaves its label pointer nil, so partial
// label sets are never consulted).
func Build(ctx context.Context, r *sweep.Runner) (*Labels, *BuildStats, error) {
	lbl, st, err := build(ctx, r)
	if err != nil {
		return nil, nil, fmt.Errorf("labels: %w", err)
	}
	return lbl, st, nil
}

func build(ctx context.Context, r *sweep.Runner) (*Labels, *BuildStats, error) {
	st := &BuildStats{}
	start := time.Now()

	if err := CreateTables(ctx, r); err != nil {
		return nil, nil, err
	}
	if err := r.RankDegrees(ctx); err != nil {
		return nil, nil, err
	}

	// Process every node carrying at least one edge as a hub, in
	// degree-descending order — high-degree hubs first maximizes pruning
	// on power-law graphs (most shortest paths route through them, so
	// later passes collapse after a few waves). Isolated nodes need no
	// labels: they reach nothing and nothing reaches them, and the
	// distance query correctly yields NULL (unreachable) for them.
	for {
		hub, ok, err := r.PopMaxDegree(ctx)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			break
		}
		// Forward pass dist(hub, x) over outgoing edges feeds the
		// in-labels of every unpruned x; the backward pass dist(x, hub)
		// over incoming edges feeds the out-labels. Forward runs first so
		// the backward pass's prune queries already see (hub, hub, 0) in
		// TLabelIn — harmless, since no out-label for the current hub
		// exists yet and the prune join needs both sides.
		if err := pass(ctx, r, st, hub, true); err != nil {
			return nil, nil, err
		}
		if err := pass(ctx, r, st, hub, false); err != nil {
			return nil, nil, err
		}
		st.Hubs++
	}

	rowsOut, _, err := r.QueryInt(ctx, "SELECT COUNT(*) FROM "+TblOut)
	if err != nil {
		return nil, nil, err
	}
	rowsIn, _, err := r.QueryInt(ctx, "SELECT COUNT(*) FROM "+TblIn)
	if err != nil {
		return nil, nil, err
	}
	st.RowsOut = int(rowsOut)
	st.RowsIn = int(rowsIn)
	st.Statements = r.Statements()
	st.BuildTime = time.Since(start)
	lbl := &Labels{Hubs: st.Hubs, RowsOut: st.RowsOut, RowsIn: st.RowsIn}
	return lbl, st, nil
}

// CreateTables (re)creates the label relations under the runner's physical
// design, plus the two keep-analysis scratch tables the engine relies on
// whenever a label index is live. Snapshot hydration calls it to restore
// the DDL and bulk-load the label sets without running a build.
func CreateTables(ctx context.Context, r *sweep.Runner) error {
	s, rels := r.Schema(ctx), sweep.Owned(sweep.Labels)
	if err := s.Drop(rels...); err != nil {
		return err
	}
	return s.Create(rels...)
}

// pass runs one pruned sweep from hub — forward over outgoing edges
// (dist(hub, x), feeding TLabelIn) or backward over incoming ones
// (dist(x, hub), feeding TLabelOut) — and materializes its label rows.
//
// The PLL twist is the prune step between settling and expansion: a
// settled candidate x whose distance is already matched by a detour
// through an earlier (higher-ranked) hub — the correlated label query
// d(hub, x) over the materialized TLabelOut/TLabelIn — flips to flag 3:
// never expanded, never labeled, so its whole subtree is left to the
// earlier hubs. The sweep may later reopen a pruned node at a smaller
// distance; it then re-enters a wave and the prune test re-applies at the
// improved distance, which is exactly the test the sequential algorithm
// would have run. Because this pass's own rows are materialized only at
// pass end, in-pass prune queries see earlier hubs' labels only — pruning
// is never more aggressive than classic PLL, so the Theorem-1 exactness
// induction holds, at the cost of slightly larger label sets.
func pass(ctx context.Context, r *sweep.Runner, st *BuildStats, hub int64, forward bool) error {
	pruneQ, labelTbl := pruneForwardQ, TblIn
	if !forward {
		pruneQ, labelTbl = pruneBackwardQ, TblOut
	}
	iters, pruned, err := r.Run(ctx, forward, sweep.NoBound, sweep.One(hub), sweep.Q(pruneQ, hub))
	if err != nil {
		return err
	}
	st.Iterations += iters
	st.Pruned += pruned
	_, err = r.Exec(ctx, "INSERT INTO "+labelTbl+labelRowsQ, hub)
	return err
}
