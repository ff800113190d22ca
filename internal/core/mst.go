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
// iterations over the loaded graph. It only reads the graph, so it is
// admitted shared and works in a leased scratch set, like a search.
func (e *Engine) MinimumSpanningForest() (*MSTResult, error) {
	if err := e.guard(wholeGraph); err != nil {
		return nil, err
	}
	ctx := context.Background()
	if err := e.lockShared(ctx); err != nil {
		return nil, err
	}
	defer e.unlockShared()
	if e.Nodes() == 0 {
		return nil, ErrNoGraph
	}
	sc, err := e.scratch.acquire()
	if err != nil {
		return nil, err
	}
	defer e.scratch.release(sc)
	q := mstTexts(sc)
	qs := &QueryStats{Algorithm: "MST"}
	start := time.Now()

	// Working table: reuse TVisited's shape, with d2s as the connection
	// weight. All nodes start outside every tree (f = 1); component roots
	// are promoted one at a time.
	if err := e.resetVisited(ctx, qs, sc); err != nil {
		return nil, err
	}
	if _, err := e.exec(ctx, qs, nil, nil, q.init, MaxDist, NoParent); err != nil {
		return nil, err
	}

	res := &MSTResult{}
	round := e.mstRound(sc)
	limit := e.maxIters()
	for iter := 0; ; iter++ {
		if iter > limit {
			return nil, fmt.Errorf("core: MST exceeded %d iterations", limit)
		}
		mark := fem.Stamp(int64(iter + 1))
		cnt, err := e.exec(ctx, qs, &qs.PE, &qs.FOp, q.frontier, mark)
		if err != nil {
			return nil, err
		}
		if cnt == 0 {
			// Component finished (or first iteration): expand a new root.
			root, null, err := e.queryInt(ctx, qs, &qs.SC, q.root)
			if err != nil {
				return nil, err
			}
			if null {
				break // every node is in the forest
			}
			if _, err := e.exec(ctx, qs, &qs.PE, &qs.FOp, q.promote, mark, root); err != nil {
				return nil, err
			}
			res.Components++
		}
		res.Iterations++
		if _, err := e.runOps(ctx, qs, round, []any{mark}, nil); err != nil {
			return nil, err
		}
	}

	// Collect tree edges: every non-root member's (p2s, nid, d2s).
	rows, err := e.queryRows(ctx, qs, nil, q.edges, NoParent)
	if err != nil {
		return nil, err
	}
	toExt := e.nodeOrder().toExt
	for _, r := range rows.Data {
		res.Edges = append(res.Edges, MSTEdge{From: toExt[r[0].I], To: toExt[r[1].I], Weight: r[2].I})
		res.TotalWeight += r[2].I
	}
	res.Statements = qs.Statements
	res.Time = time.Since(start)
	return res, nil
}

// mstStmts are Prim's fixed statement texts over one scratch set (stamps
// and sentinels bind as parameters).
type mstStmts struct{ init, frontier, root, promote, edges string }

func mstTexts(sc *scratchSet) mstStmts {
	v := sc.visited
	return mstStmts{
		init: "INSERT INTO " + v + " (nid, d2s, p2s, f, d2t, p2t, b) SELECT nid, ?, ?, 1, 0, 0, 0 FROM " + TblNodes,
		// One node per iteration (§3.1: "select a node u with u.f = false and
		// the minimal edge weight"). Adopting all minimum-weight candidates at
		// once would be unsound: adding one candidate can cheapen another's
		// connection below the shared minimum.
		frontier: fem.MarkFrontier(v, "f") + " AND nid = (SELECT TOP 1 nid FROM " + v +
			" WHERE f = 0 AND d2s = (SELECT MIN(d2s) FROM " + v + " WHERE f = 0))",
		root:    "SELECT TOP 1 nid FROM " + v + " WHERE f = 1",
		promote: "UPDATE " + v + " SET f = ?, d2s = 0 WHERE nid = ?",
		// Every node ends in a tree; only roots keep p2s = NoParent.
		edges: "SELECT p2s, nid, d2s FROM " + v + " WHERE p2s <> ?",
	}
}

// mstRound is Prim's E+M round over sc as an internal/fem spec: offer each
// neighbour of the frontier (the rows carrying the bound stamp) its
// cheapest connecting edge (the cost is the edge's weight, not a cumulative
// distance); a candidate (f = 0) keeps the cheaper offer, a node outside
// every tree so far (f = 1) becomes a candidate, and nodes already in a
// tree (any stamp) match neither arm — §3.1's "expanded nodes can be
// discarded directly if they have been included". Every node pre-exists in
// the working table, so nothing is inserted.
func (e *Engine) mstRound(sc *scratchSet) []fem.Stmt {
	return fem.Operators(e.level,
		fem.Expand{Edges: TblEdges, Forward: true, Cost: "out.cost", Where: "q.f = ?", StageCost: sc.expCost},
		fem.Merge{Table: sc.visited, Key: []string{"nid"}, Stage: sc.expand, Matched: []fem.Branch{
			{When: "target.f = 0 AND target.d2s > source.cost", Set: "d2s = source.cost, p2s = source.par"},
			{When: "target.f = 1", Set: "d2s = source.cost, p2s = source.par, f = 0"},
		}}).Round(false)
}
