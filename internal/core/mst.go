package core

import (
	"context"
	"time"
)

// Prim's minimal spanning tree via the FEM framework (§3.1's second
// worked example) is the one FEM loop (runSupersteps) with specMST, whose
// virtual root makes a disconnected graph yield a spanning forest.

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
	start := time.Now()
	// The forest has no endpoints: specMST seeds every node itself.
	hs := []*superstep{e.newSuperstep(sc, specMST(sc), 0)}
	_, qs, err := runSupersteps(ctx, hs, soleOwner, NoParent, NoParent)
	if err != nil {
		return nil, err
	}

	// Every node took one F. The tree edges are the rows an offer relaxed;
	// every other row is a root.
	rows, err := e.queryRows(ctx, qs, nil, "SELECT p2s, nid, d2s FROM "+sc.visited+" WHERE p2s <> ?", NoParent)
	if err != nil {
		return nil, err
	}
	res := &MSTResult{Components: qs.VisitedRows - rows.Len(), Iterations: qs.Expansions}
	toExt := e.nodeOrder().toExt
	for _, r := range rows.Data {
		res.Edges = append(res.Edges, MSTEdge{From: toExt[r[0].I], To: toExt[r[1].I], Weight: r[2].I})
		res.TotalWeight += r[2].I
	}
	res.Statements = qs.Statements
	res.Time = time.Since(start)
	return res, nil
}
