package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/rdb"
)

// The statement shapes of Algorithm 1 (djInit..djTarget) are rendered per
// scratch set at mint time: the MaxDist/NoParent sentinels bind as
// parameters (not integer literals), so the texts are per-set constants and
// every execution reuses the cached plan.

// dj implements Algorithm 1: single-directional Dijkstra over the FEM
// framework, one frontier node per iteration, located by the Listing 2(2)
// statement and expanded by Listing 2(3,4).
//
// One deliberate deviation from the paper's pseudo-code: Algorithm 1 line
// 5 breaks when the expansion affects zero tuples, but an expansion can
// legitimately affect nothing while unfinalized nodes (and the target)
// remain — e.g. when every neighbor of the frontier already holds a
// smaller distance. We instead terminate when no frontier candidate is
// left or the target is finalized, which is the sound reading.
func (e *Engine) dj(ctx context.Context, sc *scratchSet, s, t int64, budget int64) (Path, *QueryStats, error) {
	qs := &QueryStats{Algorithm: "DJ", budget: budget}
	start := time.Now()
	defer func() { qs.Total = time.Since(start) }()

	if err := e.resetVisited(ctx, qs, sc); err != nil {
		return Path{}, qs, err
	}
	// Listing 2(1): initialize TVisited with the source node.
	if _, err := e.exec(ctx, qs, &qs.PE, nil, sc.djInit, s, s, MaxDist, NoParent); err != nil {
		return Path{}, qs, err
	}
	if s == t {
		return Path{Found: true, Length: 0, Nodes: []int64{s}}, qs, nil
	}

	round := e.searchOps(sc, fwdDir(), TblEdges, "q.nid = ?", false).Round(e.opts.SeparateOperators)
	targetStmt, err := e.stmt(sc.djTarget)
	if err != nil {
		return Path{}, qs, err
	}

	limit := e.maxIters()
	found := false
	for iter := 0; ; iter++ {
		// Cooperative cancellation: one check per frontier iteration, so a
		// dead query releases the latch within a single expansion round.
		if err := rdb.ContextErr(ctx); err != nil {
			return Path{}, qs, fmt.Errorf("core: DJ cancelled after %d iterations: %w", iter, err)
		}
		if iter > limit {
			return Path{}, qs, fmt.Errorf("core: DJ exceeded %d iterations (s=%d t=%d)", limit, s, t)
		}
		qs.Iterations = iter + 1
		// Listing 2(2): locate the next node to be expanded.
		mid, null, err := e.queryInt(ctx, qs, &qs.SC, sc.djMid)
		if err != nil {
			return Path{}, qs, err
		}
		if null {
			break // no candidate left: t unreachable
		}
		// Listing 2(3,4): E and M operators for the frontier node.
		if _, err := e.runOps(ctx, qs, round, []any{mid}, sentinelArgs); err != nil {
			return Path{}, qs, err
		}
		qs.ForwardExpansions++
		// Listing 3(2): finalize the frontier node.
		if _, err := e.exec(ctx, qs, &qs.PE, &qs.FOp, sc.djFinalize, mid); err != nil {
			return Path{}, qs, err
		}
		// Listing 3(1): detect termination.
		tq, err := targetStmt.QueryContext(ctx, t)
		qs.Statements++
		if err != nil {
			return Path{}, qs, err
		}
		if tq.Len() > 0 {
			found = true
			break
		}
	}
	qs.Expansions = qs.ForwardExpansions

	vc, err := e.visitedCount(ctx, qs, sc)
	if err != nil {
		return Path{}, qs, err
	}
	qs.VisitedRows = vc
	if !found {
		return Path{Found: false}, qs, nil
	}

	dist, null, err := e.queryInt(ctx, qs, &qs.FPR, sc.distF, t)
	if err != nil {
		return Path{}, qs, err
	}
	if null {
		return Path{}, qs, fmt.Errorf("core: DJ finalized target without a distance")
	}
	nodes, err := walkChain(ctx, []*superstep{{e: e, sc: sc, qs: qs}}, soleOwner, t, s, true, false)
	if err != nil {
		return Path{}, qs, err
	}
	return Path{Found: true, Length: dist, Nodes: nodes}, qs, nil
}
