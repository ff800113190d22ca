package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/sweep"
	"repro/internal/wal"
)

// The dynamic-graph mutation subsystem: DeleteEdge and UpdateEdgeWeight
// complete the paper's future-work item that segmaint.go opened for
// insertions ("the pre-computed results, such as SegTable, should be
// maintained incrementally"), and ApplyMutations batches any mix of the
// three under one query-latch acquisition with a single version bump.
//
// Decremental soundness (deletions and weight increases): removing or
// weakening an edge (u, v) can only lengthen distances, so every SegTable
// row that stays untouched keeps a valid (cost, pid). The rows that CAN
// change are exactly those whose recorded pair (x, y) admits a shortest
// path through (u, v): such a path decomposes into a shortest prefix
// x -> u, the edge, and a shortest suffix v -> y, and both halves are
// within lthd — hence already recorded (or trivial, x = u / y = v). The
// touch set therefore joins the recorded halves to the recorded pair on
// δ(x,u) + w + δ(v,y) <= δ(x,y), a superset of every affected pair,
// including pairs whose distance survives but whose stored pid chain
// routed through the edge (the condition holds with equality for those).
// Touched pairs are recomputed from scratch by a bounded set-Dijkstra
// sweep seeded only at the touched sources, then the surviving original
// edges are folded back in (Definition 4(2)) — both restricted to the
// touch set. Untouched pid chains stay consistent: if a chain's
// intermediate pair (x, p) lost its distance, the continuation p -> y
// would put the deleted edge on a shortest x -> y path, contradicting
// (x, y) being untouched. When the touch set exceeds
// DefaultRepairThreshold the engine rebuilds the whole index instead —
// past that point the scoped sweep costs more than construction.
//
// See docs/ARCHITECTURE.md §Dynamic graph mutations for the full argument.

// A Mutation is one edge change for ApplyMutations, MutOp its kind. Both
// are declared once, in internal/wal, so a batch is logged as the caller
// built it and replayed as it is read back.
type (
	Mutation = wal.Mutation
	MutOp    = wal.Op
)

// Mutation operations, each a change of the (From, To) pair's cost, the one
// row TEdges holds for it: MutInsert adds a Weight edge, which the pair
// keeps when it is cheaper than the pair's cost or the pair has none,
// MutDelete removes the pair's edge (Weight is ignored), MutUpdate sets its
// cost to Weight.
const (
	MutInsert = wal.OpInsert
	MutDelete = wal.OpDelete
	MutUpdate = wal.OpUpdate
)

// ParseMutOp maps a case-insensitive operation name (insert, delete,
// update) to its MutOp; the serving tier shares this parser.
func ParseMutOp(s string) (MutOp, error) { return wal.ParseOp(s) }

// MutationCounters accumulates the mutation subsystem's activity over the
// engine's lifetime (Engine.MutationStats).
type MutationCounters struct {
	// Applied mutations by kind.
	Inserts uint64
	Deletes uint64
	Updates uint64
	// Batches counts the batches that were logged, i.e. passed checkBatch
	// and resolveBatch; InsertEdge, DeleteEdge and UpdateEdgeWeight are
	// one-mutation batches and count too, so WAL replay reproduces the
	// count.
	Batches uint64
	// SegRepairs counts scoped decremental repairs; SegRebuilds counts
	// threshold-exceeded fallbacks to a full BuildSegTable.
	SegRepairs  uint64
	SegRebuilds uint64
	// RowsRepaired totals SegTable rows re-materialized by scoped repairs.
	RowsRepaired uint64
	// OracleInvalidations counts mutations (or batches) that killed a
	// built landmark oracle.
	OracleInvalidations uint64
	// LabelKeeps counts mutations the label keep-analysis proved
	// distance-preserving (the hub-label index survived them);
	// LabelInvalidations counts mutations that sent a built index cold.
	LabelKeeps         uint64
	LabelInvalidations uint64
}

// Mutation scratch relations (created lazily, cleared per use):
// TMutTouch holds the touched (fid, tid) pairs, TMutSrc the seed nodes for
// the bounded repair sweep.
const (
	tblMutTouch = sweep.TblMutTouch
	tblMutSrc   = sweep.TblMutSrc
)

// Mutation statement shapes: constant texts, edge endpoints and weights
// bound as parameters, so ApplyMutations batches re-execute cached plans.
const (
	mutInsertEdgeQ = "INSERT INTO " + TblEdges + " (fid, tid, cost) VALUES (?, ?, ?)"
	mutCostQ       = "SELECT cost FROM " + TblEdges + " WHERE fid = ? AND tid = ?"
	mutDeleteQ     = "DELETE FROM " + TblEdges + " WHERE fid = ? AND tid = ?"
	mutUpdateQ     = "UPDATE " + TblEdges + " SET cost = ? WHERE fid = ? AND tid = ?"
	mutWMinQ       = "SELECT MIN(cost) FROM " + TblEdges

	// Touch-set shapes (computeTouchSet), one per decomposition case. Each
	// starts from the few rows one probe yields — the prefixes x -> u
	// through TOutSegs' tid index, the suffixes v -> y through its (fid,
	// tid) key — and reaches the recorded pair s through that key; the
	// planner joins left-deep in FROM order.
	touchPairQ = "INSERT INTO " + tblMutTouch + " (fid, tid) SELECT s.fid, s.tid FROM " +
		TblOutSegs + " s WHERE s.fid = ? AND s.tid = ? AND ? <= s.cost"
	touchPrefixQ = "INSERT INTO " + tblMutTouch + " (fid, tid) SELECT s.fid, s.tid FROM " +
		TblOutSegs + " a, " + TblOutSegs + " s " +
		"WHERE a.tid = ? AND a.fid <> ? AND s.fid = a.fid AND s.tid = ? AND a.cost + ? <= s.cost"
	touchSuffixQ = "INSERT INTO " + tblMutTouch + " (fid, tid) SELECT s.fid, s.tid FROM " +
		TblOutSegs + " s, " + TblOutSegs + " b " +
		"WHERE s.fid = ? AND s.tid <> ? AND b.fid = ? AND b.tid = s.tid AND ? + b.cost <= s.cost"
	touchBothQ = "INSERT INTO " + tblMutTouch + " (fid, tid) SELECT s.fid, s.tid FROM " +
		TblOutSegs + " a, " + TblOutSegs + " s, " + TblOutSegs + " b " +
		"WHERE a.tid = ? AND a.fid <> ? AND s.fid = a.fid AND s.tid <> ? " +
		"AND b.fid = ? AND b.tid = s.tid AND a.cost + ? + b.cost <= s.cost"

	touchCountQ = "SELECT COUNT(*) FROM " + tblMutTouch
	mutSrcClear = "DELETE FROM " + tblMutSrc
)

// DeleteEdge removes the (from, to) edge from TEdges and, when a SegTable is
// built, repairs TOutSegs decrementally (or rebuilds it past
// DefaultRepairThreshold). Deleting a pair with no edge is an error.
func (e *Engine) DeleteEdge(from, to int64) (*MaintStats, error) {
	return e.ApplyMutations([]Mutation{{Op: MutDelete, From: from, To: to}})
}

// UpdateEdgeWeight sets the cost of the (from, to) edge to weight. A
// decrease is maintained like an insertion (new shortest paths through the
// cheaper edge), an increase like a deletion (recorded paths through the
// edge re-routed).
func (e *Engine) UpdateEdgeWeight(from, to, weight int64) (*MaintStats, error) {
	return e.ApplyMutations([]Mutation{{Op: MutUpdate, From: from, To: to, Weight: weight}})
}

// ApplyMutations applies a batch of edge mutations under one query-latch
// acquisition: concurrent searches either complete before the batch or
// observe its full result, never a prefix. The whole batch costs a single
// version bump, one path-cache purge and at most one oracle invalidation.
// A batch is all or nothing against the graph: a node out of range, a
// weight out of bounds, or a delete or update of a pair with no edge (after
// the batch's own earlier mutations) refuses the whole batch with nil
// stats, before anything is logged or written. Only an execution error can
// stop a batch that passed: the applied prefix stays (the version was
// already bumped, so no stale answer can be served), the SegTable and the
// label index go cold, and the partial MaintStats come back alongside the
// error — MaintStats.Applied tells callers how much of the batch persisted.
func (e *Engine) ApplyMutations(muts []Mutation) (*MaintStats, error) {
	if len(muts) == 0 {
		return &MaintStats{}, nil
	}
	if err := e.guard(wholeGraph); err != nil {
		return nil, err
	}
	// Mutating the graph excludes searches; the path cache in front of the
	// latch is purged by the version bump below. Mutations are not
	// cancellable — an abandoned half-batch would still need the same
	// repair work to reach a sound index.
	ctx := context.Background()
	if err := e.lockQuery(ctx); err != nil {
		return nil, err
	}
	defer e.unlockQuery()
	return e.applyMutationsLocked(ctx, muts)
}

// checkBatch is the validation a batch passes before its pairs are read: a
// graph of nodes nodes is loaded, every endpoint is in range, every op
// known and every written weight in [1, MaxWeight].
func checkBatch(muts []Mutation, nodes int) error {
	if nodes == 0 {
		return ErrNoGraph
	}
	for i, m := range muts {
		if m.From < 0 || m.To < 0 || int(m.From) >= nodes || int(m.To) >= nodes {
			return fmt.Errorf("core: mutation %d: node out of range (n=%d)", i, nodes)
		}
		switch m.Op {
		case MutInsert, MutUpdate:
			if m.Weight < 1 || m.Weight > MaxWeight {
				return fmt.Errorf("core: mutation %d: edge weight must be in [1, %d], got %d", i, MaxWeight, m.Weight)
			}
		case MutDelete:
		default:
			return fmt.Errorf("core: mutation %d: unknown op %v", i, m.Op)
		}
	}
	return nil
}

// A step is one mutation of a batch resolved against the graph the batch's
// earlier mutations leave: its pair in internal ids, and the pair's cost
// before and after it, MaxDist standing for "no edge".
type step struct{ u, v, oldW, newW int64 }

// resolveBatch turns a checked batch into its steps. It reads each pair's
// cost once, in batch order, and carries the batch's own writes forward: an
// insert's newW is the cheaper of oldW and its weight, a delete's MaxDist,
// an update's its weight. A delete or an update of a pair with no edge
// refuses the batch. It writes nothing.
func (e *Engine) resolveBatch(ctx context.Context, qs *QueryStats, muts []Mutation) ([]step, error) {
	// The log keeps the batch in external ids, so it replays under any
	// order; the relations take internal ones.
	toInt := e.nodeOrder().toInt
	cost := make(map[[2]int64]int64, len(muts))
	steps := make([]step, len(muts))
	for i, m := range muts {
		u, v := toInt[m.From], toInt[m.To]
		oldW, seen := cost[[2]int64{u, v}]
		if !seen {
			w, null, err := e.queryInt(ctx, qs, nil, mutCostQ, u, v)
			switch {
			case err != nil:
				return nil, err
			case null:
				w = MaxDist
			}
			oldW = w
		}
		newW := m.Weight
		switch {
		case m.Op == MutInsert:
			newW = min(oldW, m.Weight)
		case oldW == MaxDist:
			return nil, fmt.Errorf("core: mutation %d (%s %d->%d): no edge to %s", i, m.Op, m.From, m.To, m.Op)
		case m.Op == MutDelete:
			newW = MaxDist
		}
		cost[[2]int64{u, v}] = newW
		steps[i] = step{u, v, oldW, newW}
	}
	return steps, nil
}

// applyMutationsLocked is the batch body; callers hold the exclusive gate.
// Split out so WAL replay (durability.go) — which already holds the gate
// across the whole hydration — can re-apply logged batches without a
// deadlocking second acquisition.
func (e *Engine) applyMutationsLocked(ctx context.Context, muts []Mutation) (*MaintStats, error) {
	if err := checkBatch(muts, e.Nodes()); err != nil {
		return nil, err
	}
	start := time.Now()
	qs := &QueryStats{Algorithm: "SegMaint"}
	steps, err := e.resolveBatch(ctx, qs, muts)
	if err != nil {
		return nil, err
	}
	// Write-ahead: the whole resolved batch is logged and fsynced before
	// the first statement touches TEdges, so a crash at any later point
	// replays to the same state. An append failure applies nothing. The
	// record's version is what the batch will commit as: bumps happen only
	// under the exclusive gate, which we hold, so e.version + 1 is stable
	// here.
	if err := e.walAppendLocked(muts); err != nil {
		return nil, err
	}

	// Invalidate before touching TEdges: the single version bump makes
	// every cached answer unreachable, and a built oracle goes cold (any
	// mutation can move landmark distances in either direction, so neither
	// bound survives). The hub-label index is NOT invalidated up front:
	// each mutation runs the keep-analysis of labels.go, and the index
	// survives changes the labels themselves prove distance-preserving.
	st := &MaintStats{}
	e.mu.Lock()
	if e.orc != nil {
		e.orc = nil
		e.orcStale = true
		st.OracleInvalidated = true
		e.muts.OracleInvalidations++
	}
	e.bumpVersionLocked()
	e.mu.Unlock()

	for i, s := range steps {
		if err = e.applyOneLocked(ctx, qs, st, s); err != nil {
			m := muts[i]
			err = fmt.Errorf("core: mutation %d (%s %d->%d): %w", i, m.Op, m.From, m.To, err)
			break
		}
		st.Applied++
	}
	e.mu.Lock()
	if err != nil {
		// A statement failed after the graph may have changed, so the
		// SegTable can be missing improvements or be mid-repair: mark it
		// cold — BSEG refuses until BuildSegTable — rather than silently
		// serving a half-repaired index. The same goes for the label
		// index: a keep-check that errored out proved nothing.
		e.segBuilt = false
		e.invalidateLabelsLocked(st)
	}
	e.muts.count(muts[:st.Applied])
	st.Version = e.version
	e.mu.Unlock()
	st.Statements = qs.Statements
	st.Time = time.Since(start)
	return st, err
}

// count adds one logged batch, and those of its mutations that applied, to
// the counters; callers hold the engine's mu.
func (c *MutationCounters) count(applied []Mutation) {
	c.Batches++
	for _, m := range applied {
		switch m.Op {
		case MutInsert:
			c.Inserts++
		case MutDelete:
			c.Deletes++
		case MutUpdate:
			c.Updates++
		}
	}
}

// applyOneLocked applies one resolved step as a change of the pair's cost
// from oldW to newW. The TEdges write depends only on the two weights: an
// INSERT of a new pair, a DELETE of a pair whose edge goes, an UPDATE
// otherwise. A dearer pair can only lengthen distances: its touch set is
// taken at oldW before the write and repaired after it. A cheaper pair gets
// the insertion maintenance at newW. An unchanged weight writes nothing and
// moves nothing. Callers hold the exclusive gate and have bumped the
// version.
func (e *Engine) applyOneLocked(ctx context.Context, qs *QueryStats, st *MaintStats, s step) error {
	if s.newW == s.oldW {
		return nil
	}
	e.mu.RLock()
	segBuilt, wmin := e.segBuilt, e.wmin
	e.mu.RUnlock()
	if segBuilt && s.newW > s.oldW {
		// The touch set reads the SegTable and TEdges before the write.
		if err := e.computeTouchSet(ctx, qs, s.u, s.v, s.oldW); err != nil {
			return err
		}
	}

	q, args, sign := mutUpdateQ, []any{s.newW, s.u, s.v}, 0
	switch {
	case s.oldW == MaxDist:
		q, args, sign = mutInsertEdgeQ, []any{s.u, s.v, s.newW}, 1
	case s.newW == MaxDist:
		q, args, sign = mutDeleteQ, []any{s.u, s.v}, -1
	}
	n, err := e.exec(ctx, qs, nil, nil, q, args...)
	if err != nil {
		return err
	}
	e.mu.Lock()
	e.edges += sign * int(n)
	e.mu.Unlock()

	// The label keep-checks read only the label relations, which the
	// TEdges write did not touch, so they still see pre-mutation distances.
	if s.newW > s.oldW {
		// wmin is a lower bound on edge weights for the frontier-selection
		// proof; a dearer pair can only raise the true minimum, so the
		// refresh is an optimization, not a soundness need.
		if s.oldW <= wmin {
			w, null, err := e.queryInt(ctx, qs, nil, mutWMinQ)
			if err != nil {
				return err
			}
			if null || w < 1 {
				w = 1
			}
			e.mu.Lock()
			e.wmin = w
			e.mu.Unlock()
		}
		// Did any label entry route through the pair at its old weight?
		if err := e.labelKeepDecrement(ctx, qs, st, s.u, s.v, s.oldW); err != nil {
			return err
		}
		if segBuilt {
			return e.repairTouchedLocked(ctx, qs, st)
		}
		return nil
	}
	e.mu.Lock()
	e.wmin = min(e.wmin, s.newW)
	e.mu.Unlock()
	// Does the old label distance already cover the new weight?
	if err := e.labelKeepUpsert(ctx, qs, st, s.u, s.v, s.newW); err != nil {
		return err
	}
	if segBuilt {
		return e.maintainSegs(ctx, qs, st, s.u, s.v, s.newW)
	}
	return nil
}

// computeTouchSet fills TMutTouch with every recorded (fid, tid) pair
// whose shortest path could route through the edge (u, v, w): the pair
// itself, prefix-only pairs (x, v), suffix-only pairs (u, y), and
// both-half pairs (x, y), mirroring the four insertion-maintenance cases.
// Must run while TOutSegs still reflects the pre-mutation graph.
func (e *Engine) computeTouchSet(ctx context.Context, qs *QueryStats, u, v, w int64) error {
	// The scratch tables are created on first use; repairTouched clears
	// TMutSrc before its fill.
	if err := e.schema(qs).Create(sweep.Rel(tblMutTouch), sweep.Rel(tblMutSrc)); err != nil {
		return err
	}
	ins := func(q string, args ...any) error {
		_, err := e.exec(ctx, qs, nil, nil, q, args...)
		return err
	}
	if err := ins("DELETE FROM " + tblMutTouch); err != nil {
		return err
	}
	// 1) the recorded pair (u, v) itself — its cost or pid may come from
	// the edge directly, unless a cheaper path is what it records.
	if err := ins(touchPairQ, u, v, w); err != nil {
		return err
	}
	// 2) x != u, y = v: a recorded prefix x -> u continues over the edge.
	if err := ins(touchPrefixQ, u, u, v, w); err != nil {
		return err
	}
	// 3) x = u, y != v: the edge continues into a recorded suffix v -> y.
	if err := ins(touchSuffixQ, u, v, v, w); err != nil {
		return err
	}
	// 4) x != u, y != v: both halves recorded. (fid, tid) is unique, so
	// each shape emits each pair at most once and the shapes are disjoint;
	// TMutTouch's unique key holds them to it.
	return ins(touchBothQ, u, u, v, v, w)
}

// repairTouchedLocked re-derives every touched SegTable row from the
// post-mutation TEdges, or rebuilds the whole index when the touch set
// exceeds the repair threshold. Callers hold queryMu and have already run
// computeTouchSet.
func (e *Engine) repairTouchedLocked(ctx context.Context, qs *QueryStats, st *MaintStats) error {
	affected, _, err := e.queryInt(ctx, qs, nil, touchCountQ)
	if err != nil {
		return err
	}
	st.Affected += affected
	if affected == 0 {
		return nil
	}
	thr := e.repairThreshold
	if thr == 0 {
		thr = DefaultRepairThreshold
	}
	if thr < 0 || affected > int64(thr) {
		st.Rebuilt = true
		e.mu.Lock()
		e.muts.SegRebuilds++
		e.mu.Unlock()
		// A mutation-triggered rebuild makes the replica momentarily cold
		// for BSEG traffic; surface it through the readiness probe like any
		// other build.
		done := e.trackBuild()
		_, err := e.buildSegTableLocked(ctx, e.segLthd, false)
		done()
		return err
	}

	repaired, err := e.repairTouched(ctx, qs)
	if err != nil {
		return err
	}
	st.Repaired += repaired
	e.mu.Lock()
	e.muts.SegRepairs++
	e.muts.RowsRepaired += uint64(repaired)
	e.mu.Unlock()
	return nil
}

// repairTouched recomputes the touched rows of TOutSegs: a bounded
// set-Dijkstra sweep forward from the touched fids over the mutated TEdges,
// delete-and-reinsert of the touched pairs, then the original-edge fold
// restricted to the same pairs. It returns the rows re-materialized.
func (e *Engine) repairTouched(ctx context.Context, qs *QueryStats) (int64, error) {
	if _, err := e.exec(ctx, qs, nil, nil, mutSrcClear); err != nil {
		return 0, err
	}
	if _, err := e.exec(ctx, qs, nil, nil,
		"INSERT INTO "+tblMutSrc+" (nid) SELECT DISTINCT fid FROM "+tblMutTouch); err != nil {
		return 0, err
	}
	if _, _, err := e.sweeper(qs).Run(ctx, TblEdges, true, e.segLthd, sweep.Q(tblMutSrc), sweep.Query{}); err != nil {
		return 0, err
	}
	// Drop the touched rows; distances can only have grown, so untouched
	// rows keep valid (cost, pid) entries. The planner runs this EXISTS
	// from TMutTouch, probing TOutSegs' key once per touched pair.
	if _, err := e.exec(ctx, qs, nil, nil, "DELETE FROM "+TblOutSegs+" WHERE EXISTS (SELECT fid FROM "+tblMutTouch+
		" m WHERE m.fid = "+TblOutSegs+".fid AND m.tid = "+TblOutSegs+".tid)"); err != nil {
		return 0, err
	}
	// Re-materialize the touched pairs that are still within lthd: touched
	// pairs are unique, so each probes TSeg's (src, nid) key for its one row.
	repaired, err := e.exec(ctx, qs, nil, nil, "INSERT INTO "+TblOutSegs+" (fid, tid, pid, cost) SELECT m.fid, m.tid, s.par, s.dist FROM "+
		tblMutTouch+" m, "+TblSeg+" s WHERE s.src = m.fid AND s.nid = m.tid AND s.src <> s.nid")
	if err != nil {
		return 0, err
	}
	// Surviving original edges on touched pairs re-enter per
	// Definition 4(2).
	if err := e.foldEdges(ctx, qs, tblMutTouch); err != nil {
		return 0, err
	}
	return repaired, e.sweeper(qs).Clear()
}
