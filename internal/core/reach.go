package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/fem"
)

// Reachability via the FEM framework (§3.1 cites it as the simplest graph
// search query). Nodes carry only the visited flag; the frontier is every
// newly discovered node; expansion inserts unseen successors. Iterations
// equal the BFS depth at which t is found.

// ReachResult reports one reachability test.
type ReachResult struct {
	Reachable  bool
	Hops       int // BFS depth at which t appeared (0 when s == t)
	Visited    int
	Iterations int
	Statements int
	Time       time.Duration
}

// Reachable reports whether t is reachable from s following directed edges.
func (e *Engine) Reachable(s, t int64) (*ReachResult, error) {
	if err := e.guard(wholeGraph); err != nil {
		return nil, err
	}
	// Shares the TVisited working table with searches.
	ctx := context.Background()
	if err := e.lockQuery(ctx); err != nil {
		return nil, err
	}
	defer e.unlockQuery()
	snap := e.snapshotStats()
	if err := snap.endpoints(s, t); err != nil {
		return nil, err
	}
	s, t = snap.ord.toInt[s], snap.ord.toInt[t]
	qs := &QueryStats{Algorithm: "Reach"}
	start := time.Now()
	res := &ReachResult{}

	if err := e.resetVisited(ctx, qs, e.scratchGlobal); err != nil {
		return nil, err
	}
	if s == t {
		res.Reachable = true
		res.Visited = 1
		res.Statements = qs.Statements
		res.Time = time.Since(start)
		return res, nil
	}
	// d2s doubles as the BFS depth.
	if _, err := e.exec(ctx, qs, &qs.PE, nil, reachInitQ, s, s); err != nil {
		return nil, err
	}

	round := e.reachRound()
	limit := e.maxIters()
	for iter := 0; ; iter++ {
		if iter > limit {
			return nil, fmt.Errorf("core: reachability exceeded %d iterations", limit)
		}
		mark := fem.Stamp(int64(iter + 1))
		cnt, err := e.exec(ctx, qs, &qs.PE, &qs.FOp, reachFrontierQ, mark)
		if err != nil {
			return nil, err
		}
		if cnt == 0 {
			break
		}
		res.Iterations++
		if _, err := e.runOps(ctx, qs, round, []any{mark}, nil); err != nil {
			return nil, err
		}
		d, null, err := e.queryInt(ctx, qs, &qs.SC, reachTargetQ, t)
		if err != nil {
			return nil, err
		}
		if !null {
			res.Reachable = true
			res.Hops = int(d)
			break
		}
	}
	vc, err := e.visitedCount(ctx, qs, e.scratchGlobal)
	if err != nil {
		return nil, err
	}
	res.Visited = vc
	res.Statements = qs.Statements
	res.Time = time.Since(start)
	return res, nil
}

// Reachability statement shapes around the expansion (fixed texts).
var (
	reachInitQ = "INSERT INTO " + TblVisited +
		" (nid, d2s, p2s, f, d2t, p2t, b) VALUES (?, 0, ?, 0, 0, 0, 0)"
	reachFrontierQ = fem.MarkFrontier(TblVisited, "f")
	reachTargetQ   = "SELECT d2s FROM " + TblVisited + " WHERE nid = ?"
)

// reachRound is the BFS round as an internal/fem spec: every unseen
// successor of the stamped frontier is inserted one level deeper (d2s
// doubles as the depth). No matched arm: reachability never revisits a node.
func (e *Engine) reachRound() []fem.Stmt {
	return fem.Operators(e.level,
		fem.Expand{Edges: TblEdges, Forward: true, Cost: "q.d2s + 1", Where: "q.f = ?", StageCost: TblExpCost},
		fem.Merge{Table: TblVisited, Key: []string{"nid"}, Stage: TblExpand,
			InsertCols: "nid, d2s, p2s, f, d2t, p2t, b",
			InsertVals: "source.nid, source.cost, source.par, 0, 0, 0, 0"}).Round(false)
}
