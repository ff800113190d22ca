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
// hence already recorded in the SegTable (or trivial). Four merges — one
// per {x = u, x != u} x {y = v, y != v} combination — therefore cover
// every improved pair. Weight decreases are
// the same case (UpdateEdgeWeight). Edge deletions and weight increases
// can lengthen distances and take the decremental path of mutation.go: a
// touch set over the same four shapes, recomputed by a bounded sweep.
//
// The four source SELECTs below are constants and the merge around them
// is rendered per SQL level by internal/fem (segMerge is its spec); each
// mutation only binds (u, v, w, lthd), so batches re-execute cached plans.

// MaintStats reports one maintenance step (a single edge mutation or an
// ApplyMutations batch).
type MaintStats struct {
	// Applied counts the mutations fully applied. On success it equals the
	// batch length; on an execution error, which stops a logged batch
	// mid-way, it reports the persisted prefix (ApplyMutations returns the
	// partial stats alongside the error). A refused batch has no stats.
	Applied int
	// Affected counts SegTable rows inserted or improved by insertion
	// maintenance plus rows in decremental touch sets.
	Affected int64
	// Repaired counts rows re-materialized by scoped decremental repairs.
	Repaired int64
	// Rebuilt reports that some decremental touch set exceeded
	// DefaultRepairThreshold and the index was rebuilt wholesale.
	Rebuilt bool
	// OracleInvalidated reports that this mutation killed a built landmark
	// oracle: ALT and DistanceInterval refuse until BuildOracle runs again.
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

// InsertEdge adds a (from, to, weight) edge — TEdges keeps the pair's
// cheaper cost — and, when a SegTable is built, incrementally maintains
// TOutSegs.
func (e *Engine) InsertEdge(from, to, weight int64) (*MaintStats, error) {
	return e.ApplyMutations([]Mutation{{Op: MutInsert, From: from, To: to, Weight: weight}})
}

// maintShape is one candidate-pair source of the insertion maintenance:
// the source select and the binder producing its arguments from the
// mutated edge (u, v, w) and the index threshold.
type maintShape struct {
	src  string
	args func(u, v, w, lthd int64) []any
}

// segMerge is the M-operator every SegTable writer runs — the build's fold
// and segment merge, insertion maintenance, the repair's fold — as an
// internal/fem spec keyed (fid, tid): a cheaper (fid, tid, pid, cost)
// candidate replaces the recorded cost and pid, an unrecorded pair is
// inserted. That every writer merges on the pair (the repair re-inserts
// only pairs it just deleted) is what keeps (fid, tid) unique. Below the
// MERGE level the candidates are staged in TSegMaint, which
// createSegTables creates.
var segMerge = fem.Merge{Table: TblOutSegs, Key: []string{"fid", "tid"}, Carry: []string{"pid", "cost"}, Stage: sweep.TblSegMaint,
	Matched:    fem.Branch{When: "target.cost > source.cost", Set: "cost = source.cost, pid = source.pid"},
	InsertCols: "fid, tid, pid, cost", InsertVals: "source.fid, source.tid, source.pid, source.cost"}

// mergeSegs merges the candidate pairs src selects, segMerge's columns,
// into TOutSegs, returning the rows inserted or improved.
func (e *Engine) mergeSegs(ctx context.Context, qs *QueryStats, src string, args []any) (int64, error) {
	return e.runOps(ctx, qs, fem.MergeSelect(e.level, src, segMerge).Round(false), args, nil)
}

// The candidate pairs of the {x = u, x != u} x {y = v, y != v}
// decomposition: 1) the pair (u, v) itself; 2) x != u, y = v, prefixes
// x -> u through TOutSegs' tid index; 3) x = u, y != v, suffixes v -> y
// through its (fid, tid) key; 4) both halves. (fid, tid) is unique, so with
// a.tid = u and b.fid = v fixed shape 4 emits each (a.fid, b.tid) once — no
// dedupe. pid is the predecessor of tid on the path: u on the pair itself
// and on every x -> u -> v path, and the suffix's own pid otherwise.
const (
	maintPrefixes = " FROM " + TblOutSegs + " a WHERE a.tid = ? AND a.fid <> ? AND a.cost + ? <= ?"
	maintSuffixes = " FROM " + TblOutSegs + " b WHERE b.fid = ? AND b.tid <> ? AND b.cost + ? <= ?"
	maintHalves   = " FROM " + TblOutSegs + " a, " + TblOutSegs + " b " +
		"WHERE a.tid = ? AND b.fid = ? AND a.fid <> ? AND b.tid <> ? AND a.fid <> b.tid AND a.cost + b.cost + ? <= ?"
)

// maintShapes are the four shapes, in that order.
var maintShapes = [4]maintShape{
	{"SELECT ?, ?, ?, ?", func(u, v, w, _ int64) []any { return []any{u, v, u, w} }},
	{"SELECT a.fid, ?, ?, a.cost + ?" + maintPrefixes,
		func(u, v, w, lthd int64) []any { return []any{v, u, w, u, v, w, lthd} }},
	{"SELECT ?, b.tid, b.pid, b.cost + ?" + maintSuffixes,
		func(u, v, w, lthd int64) []any { return []any{u, w, v, u, w, lthd} }},
	{"SELECT a.fid, b.tid, b.pid, a.cost + ? + b.cost" + maintHalves,
		func(u, v, w, lthd int64) []any { return []any{w, u, v, v, u, w, lthd} }},
}

// maintainSegs updates TOutSegs with the consequences of the new or cheaper
// edge (u, v, w): the four shapes, merged in turn with the edge bound as
// parameters, the improved rows added to st. Shapes 2 and 4 read TOutSegs
// while merging into it: they read halves that end at u or start at v,
// which no merge of this edge improves (that would take a cycle through
// it), and each merge reads its source whole before its first write.
func (e *Engine) maintainSegs(ctx context.Context, qs *QueryStats, st *MaintStats, u, v, w int64) error {
	for _, sh := range maintShapes {
		n, err := e.mergeSegs(ctx, qs, sh.src, sh.args(u, v, w, e.segLthd))
		if err != nil {
			return err
		}
		st.Affected += n
	}
	return nil
}
