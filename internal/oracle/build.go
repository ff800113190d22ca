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
	st := &BuildStats{K: p.K}
	start := time.Now()

	if err := CreateTables(ctx, r); err != nil {
		return nil, nil, err
	}
	if err := r.RankDegrees(ctx); err != nil {
		return nil, nil, err
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
		l, ok, err := r.PopMaxDegree(ctx)
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
		// Forward: dist(l, v) over outgoing edges becomes dout.
		if err := sweepFrom(true, sweep.Q(insReachedQ, i, Unreached), sweep.Q(insMissedQ, i, Unreached, Unreached, l)); err != nil {
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
	if err := r.Clear(); err != nil {
		return nil, nil, err
	}
	st.Landmarks = landmarks
	st.Rows = int(rows)
	st.Statements = r.Statements()
	st.BuildTime = time.Since(start)
	orc := &Oracle{
		K:         len(landmarks),
		Landmarks: landmarks,
		Rows:      int(rows),
	}
	return orc, st, nil
}

// CreateTables (re)creates the oracle's relation, TLandmark, under the
// runner's physical design. Snapshot hydration calls it to restore the
// DDL and bulk-load TLandmark rows without running a build.
func CreateTables(ctx context.Context, r *sweep.Runner) error {
	s := r.Schema(ctx)
	if err := s.Drop(sweep.Owned(sweep.Oracle)...); err != nil {
		return err
	}
	return s.Create(sweep.Rel(TblLandmark))
}
