package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/fem"
)

// Prim's minimal spanning tree via the FEM framework (§3.1's second
// worked example): each node carries (w, p2s, f) where w is the cheapest
// edge weight connecting it to the growing tree, p2s that edge's tree-side
// endpoint, and f the membership flag. The frontier rule picks all
// candidates at the minimal connection weight (set-at-a-time, like BSDJ);
// the E-operator offers each neighbour the connecting edge's weight (not a
// cumulative distance); the M-operator keeps the cheaper offer and discards
// nodes already in the tree.
//
// The graph is treated as undirected using the out-edge table; for the
// generators in this repository every undirected dataset stores both
// directions. Disconnected graphs yield a spanning forest.

// MSTEdge is one selected tree edge.
type MSTEdge struct {
	From, To int64
	Weight   int64
}

// MSTResult reports a spanning forest computation.
type MSTResult struct {
	Edges       []MSTEdge
	TotalWeight int64
	Components  int
	Iterations  int
	Statements  int
	Time        time.Duration
}

// MinimumSpanningForest computes a minimal spanning forest with FEM
// iterations over the loaded graph.
func (e *Engine) MinimumSpanningForest() (*MSTResult, error) {
	if err := e.guard(wholeGraph); err != nil {
		return nil, err
	}
	// Shares the TVisited working table with searches.
	ctx := context.Background()
	if err := e.lockQuery(ctx); err != nil {
		return nil, err
	}
	defer e.unlockQuery()
	if e.Nodes() == 0 {
		return nil, ErrNoGraph
	}
	qs := &QueryStats{Algorithm: "MST"}
	start := time.Now()

	// Working table: reuse TVisited's shape, with d2s as the connection
	// weight. All nodes start as non-candidates (f = 3); component roots
	// are promoted one at a time.
	if err := e.resetVisited(ctx, qs, e.scratchGlobal); err != nil {
		return nil, err
	}
	if _, err := e.exec(ctx, qs, nil, nil, mstInitQ, MaxDist, NoParent); err != nil {
		return nil, err
	}

	res := &MSTResult{}
	round := e.mstRound()
	limit := e.maxIters()
	for iter := 0; ; iter++ {
		if iter > limit {
			return nil, fmt.Errorf("core: MST exceeded %d iterations", limit)
		}
		cnt, err := e.exec(ctx, qs, &qs.PE, &qs.FOp, mstFrontierQ)
		if err != nil {
			return nil, err
		}
		if cnt == 0 {
			// Component finished (or first iteration): promote a new root.
			root, null, err := e.queryInt(ctx, qs, &qs.SC, mstRootQ)
			if err != nil {
				return nil, err
			}
			if null {
				break // every node is in the forest
			}
			if _, err := e.exec(ctx, qs, &qs.PE, nil, mstPromoteQ, root); err != nil {
				return nil, err
			}
			res.Components++
			// Expand from the root alone.
			if _, err := e.exec(ctx, qs, &qs.PE, nil, mstSeedQ, root); err != nil {
				return nil, err
			}
			cnt = 1
		}
		res.Iterations++
		if _, err := e.runOps(ctx, qs, round, nil, nil); err != nil {
			return nil, err
		}
		if _, err := e.exec(ctx, qs, &qs.PE, &qs.FOp, mstResetQ); err != nil {
			return nil, err
		}
	}

	// Collect tree edges: every non-root member's (p2s, nid, d2s).
	edgesStmt, err := e.stmt(mstEdgesQ)
	if err != nil {
		return nil, err
	}
	rows, err := edgesStmt.QueryContext(ctx, NoParent)
	qs.Statements++
	if err != nil {
		return nil, err
	}
	for _, r := range rows.Data {
		res.Edges = append(res.Edges, MSTEdge{From: r[0].I, To: r[1].I, Weight: r[2].I})
		res.TotalWeight += r[2].I
	}
	res.Statements = qs.Statements
	res.Time = time.Since(start)
	return res, nil
}

// MST statement shapes (constant texts; sentinels bind as parameters).
const (
	mstInitQ = "INSERT INTO " + TblVisited +
		" (nid, d2s, p2s, f, d2t, p2t, b) SELECT nid, ?, ?, 3, 0, 0, 0 FROM " + TblNodes
	// One node per iteration (§3.1: "select a node u with u.f = false and
	// the minimal edge weight"). Adopting all minimum-weight candidates at
	// once would be unsound: adding one candidate can cheapen another's
	// connection below the shared minimum.
	mstFrontierQ = "UPDATE " + TblVisited + " SET f = 2 WHERE f = 0 AND nid = " +
		"(SELECT TOP 1 nid FROM " + TblVisited + " WHERE f = 0 AND d2s = " +
		"(SELECT MIN(d2s) FROM " + TblVisited + " WHERE f = 0))"
	mstResetQ   = "UPDATE " + TblVisited + " SET f = 1 WHERE f = 2"
	mstRootQ    = "SELECT TOP 1 nid FROM " + TblVisited + " WHERE f = 3"
	mstPromoteQ = "UPDATE " + TblVisited + " SET f = 1, d2s = 0 WHERE nid = ?"
	mstSeedQ    = "UPDATE " + TblVisited + " SET f = 2 WHERE nid = ?"
	mstEdgesQ   = "SELECT p2s, nid, d2s FROM " + TblVisited + " WHERE f = 1 AND d2s > 0 AND p2s <> ?"
)

// mstRound is Prim's E+M round as an internal/fem spec: offer each
// neighbour of the frontier its cheapest connecting edge (the cost is the
// edge's weight, not a cumulative distance); a candidate (f = 0) keeps the
// cheaper offer, a node outside every tree so far (f = 3) becomes a
// candidate, and nodes already in the tree (f = 1) or on the frontier
// (f = 2) match neither arm — §3.1's "expanded nodes can be discarded
// directly if they have been included". Every node pre-exists in the
// working table, so nothing is inserted.
func (e *Engine) mstRound() []fem.Stmt {
	return fem.Operators(e.level,
		fem.Expand{Edges: TblEdges, Forward: true, Cost: "out.cost", Where: "q.f = 2", StageCost: TblExpCost},
		fem.Merge{Table: TblVisited, Key: []string{"nid"}, Stage: TblExpand, Matched: []fem.Branch{
			{When: "target.f = 0 AND target.d2s > source.cost", Set: "d2s = source.cost, p2s = source.par"},
			{When: "target.f = 3", Set: "d2s = source.cost, p2s = source.par, f = 0"},
		}}).Round(false)
}
