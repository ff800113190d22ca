package oracle

import (
	"context"
	"fmt"
	"time"

	"repro/internal/sweep"
)

// Statement shapes around the per-landmark sweeps; landmark ordinal and id
// bind as parameters.
const (
	countNodesQ = "SELECT COUNT(*) FROM " + sweep.TblNodes
	countRowsQ  = "SELECT COUNT(*) FROM " + TblLandmark

	// Landmark i's rows: dout from the forward sweep, din left at Unreached
	// until the backward sweep folds in, and sentinel rows for nodes the
	// forward sweep never reached — every (lid, nid) pair gets exactly one
	// row, which keeps the bound subqueries total.
	insReachedQ = "INSERT INTO " + TblLandmark + " (lid, nid, dout, din) SELECT ?, nid, dist, ? FROM " + sweep.TblWork
	insMissedQ  = "INSERT INTO " + TblLandmark + " (lid, nid, dout, din) SELECT ?, n.nid, ?, ? FROM " + sweep.TblNodes +
		" n WHERE NOT EXISTS (SELECT nid FROM " + sweep.TblWork + " w WHERE w.src = ? AND w.nid = n.nid)"
	foldBackwardQ = "UPDATE " + TblLandmark + " SET din = s.dist FROM " + sweep.TblWork + " s " +
		"WHERE " + TblLandmark + ".nid = s.nid AND " + TblLandmark + ".lid = ?"

	// Farthest-point state: every node starts at Unreached from the (empty)
	// chosen set; each forward sweep lowers dmin to the nearest landmark.
	farSeedQ = "INSERT INTO " + TblFar + " (nid, dmin) SELECT nid, ? FROM " + sweep.TblNodes
	farFoldQ = "UPDATE " + TblFar + " SET dmin = s.dist FROM " + sweep.TblWork + " s " +
		"WHERE " + TblFar + ".nid = s.nid AND " + TblFar + ".dmin > s.dist"
	farPickQ = "SELECT TOP 1 nid FROM " + TblFar + " WHERE dmin > 0 AND dmin < ? AND dmin = " +
		"(SELECT MAX(dmin) FROM " + TblFar + " WHERE dmin > 0 AND dmin < ?)"
)

// Build constructs the landmark oracle over the graph tables, issuing
// every statement through r. The caller is responsible for exclusion
// against concurrent searches and graph mutation (the engine holds the
// exclusive side of its query gate across the build). A cancelled ctx
// aborts the build at the next statement or sweep round; the caller must
// then treat the oracle as not built (the engine leaves its oracle pointer
// nil, so a partial TLandmark is never consulted).
func Build(ctx context.Context, r *sweep.Runner, p Config) (*Oracle, *BuildStats, error) {
	orc, st, err := build(ctx, r, p)
	if err != nil {
		return nil, nil, fmt.Errorf("oracle: %w", err)
	}
	return orc, st, nil
}

func build(ctx context.Context, r *sweep.Runner, p Config) (*Oracle, *BuildStats, error) {
	if p.K <= 0 {
		p.K = DefaultK
	}
	st := &BuildStats{K: p.K, Strategy: p.Strategy}
	start := time.Now()

	if err := CreateTables(ctx, r); err != nil {
		return nil, nil, err
	}
	if err := r.RankDegrees(ctx); err != nil {
		return nil, nil, err
	}
	if p.Strategy == Farthest {
		if err := r.Schema(ctx).Create(sweep.Rel(TblFar)); err != nil {
			return nil, nil, err
		}
		if _, err := r.Exec(ctx, farSeedQ, Unreached); err != nil {
			return nil, nil, err
		}
	}

	nodes, _, err := r.QueryInt(ctx, countNodesQ)
	if err != nil {
		return nil, nil, err
	}
	k := p.K
	if int64(k) > nodes {
		k = int(nodes)
	}

	var landmarks []int64
	for i := int64(0); i < int64(k); i++ {
		l, ok, err := pickLandmark(ctx, r, p.Strategy, i)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			break // fewer placeable landmarks than requested
		}
		landmarks = append(landmarks, l)
		// One unbounded sweep from l per direction, then the statements
		// that read its distances out of the working set.
		sweepFrom := func(forward bool, after ...sweep.Query) error {
			iters, _, err := r.Run(ctx, sweep.TblEdges, forward, Unreached, sweep.One(l), sweep.Query{})
			if err != nil {
				return err
			}
			st.Iterations += iters
			return r.ExecAll(ctx, after...)
		}
		// Forward: dist(l, v) over outgoing edges becomes dout; farthest-
		// point selection feeds on the same distances.
		fwd := []sweep.Query{sweep.Q(insReachedQ, i, Unreached), sweep.Q(insMissedQ, i, Unreached, Unreached, l)}
		if p.Strategy == Farthest {
			fwd = append(fwd, sweep.Q(farFoldQ))
		}
		if err := sweepFrom(true, fwd...); err != nil {
			return nil, nil, err
		}
		// Backward: dist(v, l) over incoming edges becomes din.
		if err := sweepFrom(false, sweep.Q(foldBackwardQ, i)); err != nil {
			return nil, nil, err
		}
	}
	if len(landmarks) == 0 {
		return nil, nil, fmt.Errorf("no landmarks placeable (empty graph?)")
	}

	rows, _, err := r.QueryInt(ctx, countRowsQ)
	if err != nil {
		return nil, nil, err
	}
	if err := r.Clear(TblFar); err != nil {
		return nil, nil, err
	}
	st.Landmarks = landmarks
	st.Rows = int(rows)
	st.Statements = r.Statements()
	st.BuildTime = time.Since(start)
	orc := &Oracle{
		K:         len(landmarks),
		Strategy:  p.Strategy,
		Landmarks: landmarks,
		Rows:      int(rows),
	}
	return orc, st, nil
}

// CreateTables (re)creates the oracle's relations — TLandmark under the
// runner's physical design; the build-only farthest-point table is dropped
// and left to the next build. Snapshot hydration calls it to restore the
// DDL and bulk-load TLandmark rows without running a build.
func CreateTables(ctx context.Context, r *sweep.Runner) error {
	s := r.Schema(ctx)
	if err := s.Drop(sweep.Owned(sweep.Oracle)...); err != nil {
		return err
	}
	return s.Create(sweep.Rel(TblLandmark))
}

// pickLandmark returns the i-th landmark under the strategy. Degree: i-th
// highest total degree. Farthest: highest degree first, then the node
// maximizing the distance to its nearest chosen landmark.
func pickLandmark(ctx context.Context, r *sweep.Runner, strategy Strategy, i int64) (int64, bool, error) {
	if strategy == Farthest && i > 0 {
		// Prefer the farthest node reachable from some landmark; fall back
		// to an unreached node (another component) so coverage spreads.
		l, null, err := r.QueryInt(ctx, farPickQ, Unreached, Unreached)
		if err != nil {
			return 0, false, err
		}
		if !null {
			// Keep the degree ranking consistent for later fallbacks.
			return l, true, r.Unrank(ctx, l)
		}
		// Every remaining node is unreached from the chosen set: pick the
		// highest-degree one among them via the degree ranking below.
	}
	return r.PopMaxDegree(ctx)
}
