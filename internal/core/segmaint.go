package core

import (
	"context"
	"time"

	"repro/internal/fem"
	"repro/internal/sweep"
)

// Incremental SegTable maintenance for edge insertions — the paper's third
// future-work item ("the pre-computed results, such as SegTable, should be
// maintained incrementally").
//
// Soundness: weights are positive, so a new shortest path within lthd that
// uses the new edge (u,v) exactly once decomposes into a pre-existing
// shortest prefix x -> u (possibly empty), the edge, and a pre-existing
// shortest suffix v -> y (possibly empty). Both halves are within lthd,
// hence already recorded in the SegTable (or trivial). Four merges
// per direction — one per {x = u, x != u} x {y = v, y != v}
// combination — therefore cover every improved pair. Weight decreases are
// the same case (UpdateEdgeWeight). Edge deletions and weight increases
// can lengthen distances and take the decremental path of mutation.go: a
// touch set over the same four shapes, recomputed by a bounded sweep.
//
// The eight source SELECTs below are constants and the merge around them
// is rendered per SQL level by internal/fem (segMerge is its spec); each
// mutation only binds (u, v, w, lthd), so batches re-execute cached plans.

// MaintStats reports one maintenance step (a single edge mutation or an
// ApplyMutations batch).
type MaintStats struct {
	// Applied counts the mutations fully applied. On success it equals the
	// batch length; on an execution error it reports the persisted prefix
	// (ApplyMutations returns the partial stats alongside the error).
	Applied int
	// Affected counts SegTable rows inserted or improved by insertion
	// maintenance plus rows in decremental touch sets.
	Affected int64
	// Repaired counts rows re-materialized by scoped decremental repairs.
	Repaired int64
	// Rebuilt reports that some decremental touch set exceeded
	// Options.RepairThreshold and the index was rebuilt wholesale.
	Rebuilt bool
	// OracleInvalidated reports that this mutation killed a built landmark
	// oracle: ALT and ApproxDistance refuse until BuildOracle runs again.
	OracleInvalidated bool
	// LabelsInvalidated reports that this mutation (or batch) failed the
	// hub-label keep-analysis and sent the label index cold: AlgLabel
	// refuses until BuildLabels runs again. A mutation the analysis
	// absorbed leaves it false and counts in MutationCounters.LabelKeeps.
	LabelsInvalidated bool
	// Version is the graph generation the mutation committed as, read
	// while the batch still holds the query latch (GraphVersion read
	// afterwards could already belong to a later batch).
	Version    uint64
	Statements int
	Time       time.Duration
}

// InsertEdge adds a (from, to, weight) edge to TEdges and, when a SegTable
// is built, incrementally maintains TOutSegs and TInSegs.
func (e *Engine) InsertEdge(from, to, weight int64) (*MaintStats, error) {
	return e.applyMutations([]Mutation{{Op: MutInsert, From: from, To: to, Weight: weight}}, false)
}

// maintShape is one candidate-pair source of the insertion maintenance:
// the source select and the binder producing its arguments from the
// mutated edge (u, v, w) and the index threshold.
type maintShape struct {
	src  string
	args func(u, v, w, lthd int64) []any
}

// tblSegMaint stages a maintenance source below the MERGE level;
// createSegTables creates it there.
const tblSegMaint = sweep.TblSegMaint

// segMerge is the M-operator every SegTable writer after the materialized
// sweep runs, as an internal/fem spec keyed (fid, tid): a cheaper candidate
// replaces the recorded (cost, pid), an unrecorded pair is inserted. That
// every writer merges on the pair is what keeps (fid, tid) unique in both
// segment tables.
func segMerge(target string) fem.Merge {
	return fem.Merge{Table: target, Key: []string{"fid", "tid"}, Carry: []string{"pid", "cost"}, Stage: tblSegMaint,
		Matched:    []fem.Branch{{When: "target.cost > source.cost", Set: "cost = source.cost, pid = source.pid"}},
		InsertCols: "fid, tid, pid, cost", InsertVals: "source.fid, source.tid, source.pid, source.cost"}
}

// mergeSegs merges the candidate pairs src selects into the segment table
// target, returning the rows inserted or improved.
func (e *Engine) mergeSegs(ctx context.Context, qs *QueryStats, target, src string, args []any) (int64, error) {
	return e.runOps(ctx, qs, fem.MergeSelect(e.level, src, segMerge(target)).Round(false), args, nil)
}

// The candidate pairs of the {x = u, x != u} x {y = v, y != v}
// decomposition: 1) the pair (u, v) itself; 2) x != u, y = v, prefixes
// x -> u from TInSegs (clustered on tid); 3) x = u, y != v, suffixes v -> y
// from TOutSegs (clustered on fid); 4) both halves. (fid, tid) is unique in
// both tables, so with a.tid = u and b.fid = v fixed shape 4 emits each
// (a.fid, b.tid) once — no dedupe. The forward shapes write TOutSegs, whose
// pid is the predecessor of tid on the path; the backward shapes write
// TInSegs, whose pid is the successor of fid.
const (
	maintPrefixes = " FROM " + TblInSegs + " a WHERE a.tid = ? AND a.fid <> ? AND a.cost + ? <= ?"
	maintSuffixes = " FROM " + TblOutSegs + " b WHERE b.fid = ? AND b.tid <> ? AND b.cost + ? <= ?"
	maintHalves   = " FROM " + TblInSegs + " a, " + TblOutSegs + " b " +
		"WHERE a.tid = ? AND b.fid = ? AND a.fid <> ? AND b.tid <> ? AND a.fid <> b.tid AND a.cost + b.cost + ? <= ?"
)

var (
	maintFwdShapes = []maintShape{
		{"SELECT ?, ?, ?, ?", func(u, v, w, _ int64) []any { return []any{u, v, u, w} }},
		{"SELECT a.fid, ?, ?, a.cost + ?" + maintPrefixes,
			func(u, v, w, lthd int64) []any { return []any{v, u, w, u, v, w, lthd} }},
		{"SELECT ?, b.tid, b.pid, b.cost + ?" + maintSuffixes,
			func(u, v, w, lthd int64) []any { return []any{u, w, v, u, w, lthd} }},
		{"SELECT a.fid, b.tid, b.pid, a.cost + ? + b.cost" + maintHalves,
			func(u, v, w, lthd int64) []any { return []any{w, u, v, v, u, w, lthd} }},
	}
	// Backward, u's successor is v on the pair itself and on every
	// u -> v -> y path, and comes from the prefix half otherwise.
	maintBwdShapes = []maintShape{
		{"SELECT ?, ?, ?, ?", func(u, v, w, _ int64) []any { return []any{u, v, v, w} }},
		{"SELECT a.fid, ?, a.pid, a.cost + ?" + maintPrefixes,
			func(u, v, w, lthd int64) []any { return []any{v, w, u, v, w, lthd} }},
		{"SELECT ?, b.tid, ?, b.cost + ?" + maintSuffixes,
			func(u, v, w, lthd int64) []any { return []any{u, v, w, v, u, w, lthd} }},
		{"SELECT a.fid, b.tid, a.pid, a.cost + ? + b.cost" + maintHalves,
			func(u, v, w, lthd int64) []any { return []any{w, u, v, v, u, w, lthd} }},
	}
)

// maintainSegs updates TOutSegs and TInSegs with the consequences of the
// new or cheaper edge (u, v, w): each direction's four shapes, merged in
// turn with the edge bound as parameters, the improved rows added to st.
func (e *Engine) maintainSegs(ctx context.Context, qs *QueryStats, st *MaintStats, u, v, w int64) error {
	for _, dir := range []struct {
		target string
		shapes []maintShape
	}{{TblOutSegs, maintFwdShapes}, {TblInSegs, maintBwdShapes}} {
		for _, sh := range dir.shapes {
			n, err := e.mergeSegs(ctx, qs, dir.target, sh.src, sh.args(u, v, w, e.segLthd))
			if err != nil {
				return err
			}
			st.Affected += n
		}
	}
	return nil
}
