package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/sweep"
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
// Options.RepairThreshold the engine rebuilds the whole index instead —
// past that point the scoped sweep costs more than construction.
//
// See docs/ARCHITECTURE.md §Dynamic graph mutations for the full argument.

// MutOp is one mutation kind.
type MutOp int

// Mutation operations.
const (
	// MutInsert adds a (From, To, Weight) edge.
	MutInsert MutOp = iota
	// MutDelete removes every (From, To) edge (parallel edges included).
	MutDelete
	// MutUpdate sets the cost of every (From, To) edge to Weight.
	MutUpdate
)

func (op MutOp) String() string {
	switch op {
	case MutInsert:
		return "insert"
	case MutDelete:
		return "delete"
	case MutUpdate:
		return "update"
	}
	return fmt.Sprintf("MutOp(%d)", int(op))
}

// ParseMutOp maps a case-insensitive operation name (insert, delete,
// update) to its MutOp; the serving tier shares this parser.
func ParseMutOp(s string) (MutOp, error) {
	switch strings.ToLower(s) {
	case "insert":
		return MutInsert, nil
	case "delete":
		return MutDelete, nil
	case "update":
		return MutUpdate, nil
	}
	return 0, fmt.Errorf("unknown mutation op %q (insert|delete|update)", s)
}

// Mutation is one edge change for ApplyMutations. Weight is ignored for
// MutDelete.
type Mutation struct {
	Op       MutOp
	From, To int64
	Weight   int64
}

// MutationCounters accumulates the mutation subsystem's activity over the
// engine's lifetime (Engine.MutationStats).
type MutationCounters struct {
	// Applied mutations by kind.
	Inserts uint64
	Deletes uint64
	Updates uint64
	// Batches counts ApplyMutations calls that applied at least one
	// mutation (single-edge helpers don't count).
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
	mutMinCostQ    = "SELECT MIN(cost) FROM " + TblEdges + " WHERE fid = ? AND tid = ?"
	mutDeleteQ     = "DELETE FROM " + TblEdges + " WHERE fid = ? AND tid = ?"
	mutUpdateQ     = "UPDATE " + TblEdges + " SET cost = ? WHERE fid = ? AND tid = ?"
	mutWMinQ       = "SELECT MIN(cost) FROM " + TblEdges

	// Touch-set shapes (computeTouchSet), one per decomposition case. Each
	// starts from the few rows one clustered probe yields — the prefixes
	// x -> u in TInSegs (clustered on tid), the suffixes v -> y in TOutSegs
	// (clustered on fid) — and reaches the recorded pair s through TOutSegs'
	// key; the planner joins left-deep in FROM order.
	touchPairQ = "INSERT INTO " + tblMutTouch + " (fid, tid) SELECT s.fid, s.tid FROM " +
		TblOutSegs + " s WHERE s.fid = ? AND s.tid = ? AND ? <= s.cost"
	touchPrefixQ = "INSERT INTO " + tblMutTouch + " (fid, tid) SELECT s.fid, s.tid FROM " +
		TblInSegs + " a, " + TblOutSegs + " s " +
		"WHERE a.tid = ? AND a.fid <> ? AND s.fid = a.fid AND s.tid = ? AND a.cost + ? <= s.cost"
	touchSuffixQ = "INSERT INTO " + tblMutTouch + " (fid, tid) SELECT s.fid, s.tid FROM " +
		TblOutSegs + " s, " + TblOutSegs + " b " +
		"WHERE s.fid = ? AND s.tid <> ? AND b.fid = ? AND b.tid = s.tid AND ? + b.cost <= s.cost"
	touchBothQ = "INSERT INTO " + tblMutTouch + " (fid, tid) SELECT s.fid, s.tid FROM " +
		TblInSegs + " a, " + TblOutSegs + " s, " + TblOutSegs + " b " +
		"WHERE a.tid = ? AND a.fid <> ? AND s.fid = a.fid AND s.tid <> ? " +
		"AND b.fid = ? AND b.tid = s.tid AND a.cost + ? + b.cost <= s.cost"

	touchCountQ = "SELECT COUNT(*) FROM " + tblMutTouch
	mutSrcClear = "DELETE FROM " + tblMutSrc
)

// DeleteEdge removes every (from, to) edge from TEdges — parallel edges
// included — and, when a SegTable is built, repairs TOutSegs/TInSegs
// decrementally (or rebuilds them past Options.RepairThreshold). Deleting
// a pair with no edge is an error.
func (e *Engine) DeleteEdge(from, to int64) (*MaintStats, error) {
	return e.applyMutations([]Mutation{{Op: MutDelete, From: from, To: to}}, false)
}

// UpdateEdgeWeight sets the cost of every (from, to) edge to weight —
// parallel edges collapse to one effective cost. A decrease is maintained
// like an insertion (new shortest paths through the cheaper edge), an
// increase like a deletion (recorded paths through the edge re-routed).
func (e *Engine) UpdateEdgeWeight(from, to, weight int64) (*MaintStats, error) {
	return e.applyMutations([]Mutation{{Op: MutUpdate, From: from, To: to, Weight: weight}}, false)
}

// ApplyMutations applies a batch of edge mutations under one query-latch
// acquisition: concurrent searches either complete before the batch or
// observe its full result, never a prefix. The whole batch costs a single
// version bump, one path-cache purge and at most one oracle invalidation.
// Mutations are validated up front; a validation error applies nothing. An
// execution error mid-batch leaves the applied prefix in place (the
// version was already bumped, so no stale answer can be served either
// way) and returns the partial MaintStats alongside the error —
// MaintStats.Applied tells callers how much of the batch persisted. When
// nothing wrote at all (e.g. the first delete hits a missing edge), the
// pre-batch oracle is restored: a no-op request must not cold-stop
// approximate service.
func (e *Engine) ApplyMutations(muts []Mutation) (*MaintStats, error) {
	return e.applyMutations(muts, true)
}

func (e *Engine) applyMutations(muts []Mutation, batch bool) (*MaintStats, error) {
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
	return e.applyMutationsLocked(ctx, muts, batch)
}

// applyMutationsLocked is the batch body; callers hold the exclusive gate.
// Split out so WAL replay (durability.go) — which already holds the gate
// across the whole hydration — can re-apply logged batches without a
// deadlocking second acquisition.
func (e *Engine) applyMutationsLocked(ctx context.Context, muts []Mutation, batch bool) (*MaintStats, error) {
	nodes := e.Nodes()
	if nodes == 0 {
		return nil, ErrNoGraph
	}
	for i, m := range muts {
		if m.From < 0 || m.To < 0 || int(m.From) >= nodes || int(m.To) >= nodes {
			return nil, fmt.Errorf("core: mutation %d: node out of range (n=%d)", i, nodes)
		}
		switch m.Op {
		case MutInsert, MutUpdate:
			if m.Weight < 1 {
				return nil, fmt.Errorf("core: mutation %d: edge weight must be positive, got %d", i, m.Weight)
			}
		case MutDelete:
		default:
			return nil, fmt.Errorf("core: mutation %d: unknown op %v", i, m.Op)
		}
	}
	// Write-ahead: the whole validated batch is logged and fsynced before
	// the first statement touches TEdges, so a crash at any later point
	// replays to the same state — including the applied prefix of a batch
	// that fails mid-way, since re-applying the logged batch reproduces the
	// same failure at the same mutation. An append failure applies nothing.
	// The record's version is what the batch will commit as: bumps happen
	// only under the exclusive gate, which we hold, so e.version + 1 is
	// stable here.
	if err := e.walAppendLocked(muts); err != nil {
		return nil, err
	}

	st := &MaintStats{}
	start := time.Now()
	qs := &QueryStats{Algorithm: "SegMaint"}

	// Invalidate before touching TEdges: the single version bump makes
	// every cached answer unreachable, and a built oracle goes cold (any
	// mutation can move landmark distances in either direction, so neither
	// bound survives). The hub-label index is NOT invalidated up front:
	// each mutation runs the keep-analysis of labels.go, and the index
	// survives changes the labels themselves prove distance-preserving.
	e.mu.Lock()
	prev := e.indexes
	if e.orc != nil {
		e.orc = nil
		e.orcStale = true
		st.OracleInvalidated = true
		e.muts.OracleInvalidations++
	}
	e.bumpVersionLocked()
	e.mu.Unlock()

	wrote := false
	for i := range muts {
		if err := e.applyOneLocked(ctx, qs, st, muts[i], &wrote); err != nil {
			e.mu.Lock()
			if !wrote {
				// No mutation reached TEdges (existence checks fail
				// before the first write), so the graph is unchanged and
				// the pre-batch oracle and label index are still sound —
				// restore them rather than leaving fast answers cold over
				// a no-op request. The version bump stands; it only cost
				// a cache purge.
				e.indexes = prev
				if st.OracleInvalidated {
					e.muts.OracleInvalidations--
				}
				st.OracleInvalidated = false
				if st.LabelsInvalidated {
					e.muts.LabelInvalidations--
				}
				st.LabelsInvalidated = false
			} else {
				// The graph changed but a maintenance step failed, so the
				// SegTable can be missing improvements or mid-repair:
				// mark it cold — BSEG refuses until BuildSegTable —
				// rather than silently serving a half-repaired index. The
				// same goes for the label index: a keep-check that
				// errored out proved nothing, so it must not keep serving.
				e.segBuilt = false
				e.invalidateLabelsLocked(st)
			}
			if batch && st.Applied > 0 {
				e.muts.Batches++
			}
			st.Version = e.version
			e.mu.Unlock()
			st.Statements = qs.Statements
			st.Time = time.Since(start)
			return st, fmt.Errorf("core: mutation %d (%s %d->%d): %w", i, muts[i].Op, muts[i].From, muts[i].To, err)
		}
		st.Applied++
	}
	e.mu.Lock()
	if batch {
		e.muts.Batches++
	}
	st.Version = e.version
	e.mu.Unlock()
	st.Statements = qs.Statements
	st.Time = time.Since(start)
	return st, nil
}

// applyOneLocked dispatches one validated mutation; callers hold queryMu
// and have already bumped the version. wrote flips to true the moment a
// mutation's first TEdges statement succeeds — the batch error path uses
// it to tell "graph unchanged" from "prefix applied".
func (e *Engine) applyOneLocked(ctx context.Context, qs *QueryStats, st *MaintStats, m Mutation, wrote *bool) error {
	switch m.Op {
	case MutInsert:
		return e.insertLocked(ctx, qs, st, m.From, m.To, m.Weight, wrote)
	case MutDelete:
		return e.deleteLocked(ctx, qs, st, m.From, m.To, wrote)
	case MutUpdate:
		return e.updateLocked(ctx, qs, st, m.From, m.To, m.Weight, wrote)
	}
	return fmt.Errorf("unknown op %v", m.Op)
}

// insertLocked adds the edge and runs the incremental insertion
// maintenance of segmaint.go.
func (e *Engine) insertLocked(ctx context.Context, qs *QueryStats, st *MaintStats, from, to, weight int64, wrote *bool) error {
	if _, err := e.exec(ctx, qs, nil, nil, mutInsertEdgeQ, from, to, weight); err != nil {
		return err
	}
	*wrote = true
	e.mu.Lock()
	e.edges++
	if weight < e.wmin {
		e.wmin = weight
	}
	e.muts.Inserts++
	segBuilt := e.segBuilt
	e.mu.Unlock()
	// The label keep-check reads only the label relations, which the
	// TEdges insert did not touch, so it still sees pre-mutation distances.
	if err := e.labelKeepUpsert(ctx, qs, st, from, to, weight); err != nil {
		return err
	}
	if !segBuilt {
		return nil
	}
	return e.maintainSegs(ctx, qs, st, from, to, weight)
}

// deleteLocked removes every (from, to) edge and repairs the SegTable.
func (e *Engine) deleteLocked(ctx context.Context, qs *QueryStats, st *MaintStats, from, to int64, wrote *bool) error {
	// The touch set needs the edge's pre-delete effective weight: with
	// parallel edges only the cheapest can lie on a shortest path, and a
	// smaller weight yields the larger (safe) touch superset.
	oldW, null, err := e.queryInt(ctx, qs, nil, mutMinCostQ, from, to)
	if err != nil {
		return err
	}
	if null {
		return fmt.Errorf("no edge to delete")
	}
	e.mu.RLock()
	segBuilt := e.segBuilt
	wmin := e.wmin
	e.mu.RUnlock()
	if segBuilt {
		if err := e.computeTouchSet(ctx, qs, from, to, oldW); err != nil {
			return err
		}
	}
	n, err := e.exec(ctx, qs, nil, nil, mutDeleteQ, from, to)
	if err != nil {
		return err
	}
	*wrote = true
	e.mu.Lock()
	e.edges -= int(n)
	e.muts.Deletes++
	e.mu.Unlock()
	// wmin is a lower bound on edge weights for the frontier-selection
	// proof; deletions can only raise the true minimum, so refreshing is
	// an optimization, not a soundness need.
	if oldW <= wmin {
		if err := e.refreshWMin(ctx, qs); err != nil {
			return err
		}
	}
	// The labels still realize the pre-delete distances; the keep-check
	// against the old effective weight decides whether any of them routed
	// through the removed edge.
	if err := e.labelKeepDecrement(ctx, qs, st, from, to, oldW); err != nil {
		return err
	}
	if !segBuilt {
		return nil
	}
	return e.repairTouchedLocked(ctx, qs, st)
}

// updateLocked sets the cost of every (from, to) edge and repairs the
// SegTable: relaxations reuse the insertion maintenance, weakenings the
// decremental repair.
func (e *Engine) updateLocked(ctx context.Context, qs *QueryStats, st *MaintStats, from, to, weight int64, wrote *bool) error {
	oldW, null, err := e.queryInt(ctx, qs, nil, mutMinCostQ, from, to)
	if err != nil {
		return err
	}
	if null {
		return fmt.Errorf("no edge to update")
	}
	e.mu.RLock()
	segBuilt := e.segBuilt
	wmin := e.wmin
	e.mu.RUnlock()
	if segBuilt && weight > oldW {
		// Weakening: the touch set must be computed against the old
		// effective weight, before TEdges changes underneath the sweep.
		if err := e.computeTouchSet(ctx, qs, from, to, oldW); err != nil {
			return err
		}
	}
	if _, err := e.exec(ctx, qs, nil, nil, mutUpdateQ, weight, from, to); err != nil {
		return err
	}
	*wrote = true
	e.mu.Lock()
	if weight < e.wmin {
		e.wmin = weight
	}
	e.muts.Updates++
	e.mu.Unlock()
	if weight > oldW && oldW <= wmin {
		if err := e.refreshWMin(ctx, qs); err != nil {
			return err
		}
	}
	// Label keep-analysis: a decrease is the incremental case (the new
	// weight must already be covered by the old label distance), an
	// increase the decremental one (no label entry may have routed through
	// the edge at its old weight). An unchanged weight moves nothing.
	if weight < oldW {
		if err := e.labelKeepUpsert(ctx, qs, st, from, to, weight); err != nil {
			return err
		}
	} else if weight > oldW {
		if err := e.labelKeepDecrement(ctx, qs, st, from, to, oldW); err != nil {
			return err
		}
	}
	if !segBuilt || weight == oldW {
		return nil
	}
	if weight < oldW {
		// Relaxation: exactly the insertion case — a new shortest path
		// through the cheaper edge decomposes into recorded halves.
		return e.maintainSegs(ctx, qs, st, from, to, weight)
	}
	return e.repairTouchedLocked(ctx, qs, st)
}

// refreshWMin re-reads the minimal edge weight after a deletion or weight
// increase may have removed the old minimum.
func (e *Engine) refreshWMin(ctx context.Context, qs *QueryStats) error {
	wmin, null, err := e.queryInt(ctx, qs, nil, mutWMinQ)
	if err != nil {
		return err
	}
	if null || wmin < 1 {
		wmin = 1
	}
	e.mu.Lock()
	e.wmin = wmin
	e.mu.Unlock()
	return nil
}

// ensureMutScratch lazily creates the repair scratch tables and clears
// TMutTouch for the next touch set (repairDirection clears TMutSrc before
// each fill).
func (e *Engine) ensureMutScratch(ctx context.Context, qs *QueryStats) error {
	if err := e.schema(qs).Create(sweep.Rel(tblMutTouch), sweep.Rel(tblMutSrc)); err != nil {
		return err
	}
	_, err := e.exec(ctx, qs, nil, nil, "DELETE FROM "+tblMutTouch)
	return err
}

// computeTouchSet fills TMutTouch with every recorded (fid, tid) pair
// whose shortest path could route through the edge (u, v, w): the pair
// itself, prefix-only pairs (x, v), suffix-only pairs (u, y), and
// both-half pairs (x, y), mirroring the four insertion-maintenance cases.
// TOutSegs and TInSegs record the same pair set, so one touch set serves
// both directions. Must run while TOutSegs still reflects the pre-mutation
// graph.
func (e *Engine) computeTouchSet(ctx context.Context, qs *QueryStats, u, v, w int64) error {
	if err := e.ensureMutScratch(ctx, qs); err != nil {
		return err
	}
	ins := func(q string, args ...any) error {
		_, err := e.exec(ctx, qs, nil, nil, q, args...)
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
	// 4) x != u, y != v: both halves recorded. Both segment tables are
	// keyed on (fid, tid), so each shape emits each pair at most once and
	// the shapes are disjoint; TMutTouch's unique key holds them to it.
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
	thr := e.opts.RepairThreshold
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

	var repaired int64
	for _, forward := range []bool{true, false} {
		n, err := e.repairDirection(ctx, qs, forward)
		if err != nil {
			return err
		}
		repaired += n
	}
	st.Repaired += repaired
	e.mu.Lock()
	e.muts.SegRepairs++
	e.muts.RowsRepaired += uint64(repaired)
	e.mu.Unlock()
	return nil
}

// repairDirection recomputes one direction's touched rows: a bounded
// set-Dijkstra sweep from the touched sources over the mutated TEdges,
// delete-and-reinsert of the touched pairs, then the original-edge fold
// restricted to the same pairs.
func (e *Engine) repairDirection(ctx context.Context, qs *QueryStats, forward bool) (int64, error) {
	target, srcCol, nidCol := TblOutSegs, "fid", "tid"
	if !forward {
		target, srcCol, nidCol = TblInSegs, "tid", "fid"
	}
	// Seed the sweep at the fid endpoints (forward: distances FROM x; the
	// backward sweep walks incoming edges from tid seeds, computing
	// distances TO y).
	if _, err := e.exec(ctx, qs, nil, nil, mutSrcClear); err != nil {
		return 0, err
	}
	if _, err := e.exec(ctx, qs, nil, nil,
		"INSERT INTO "+tblMutSrc+" (nid) SELECT DISTINCT "+srcCol+" FROM "+tblMutTouch); err != nil {
		return 0, err
	}
	if _, _, err := e.sweeper(qs).Run(ctx, forward, e.segLthd, sweep.Q(tblMutSrc), sweep.Query{}); err != nil {
		return 0, err
	}
	// Drop the touched rows; distances can only have grown, so untouched
	// rows keep valid (cost, pid) entries. The planner runs this EXISTS from
	// TMutTouch, probing the target's index once per touched pair.
	if _, err := e.exec(ctx, qs, nil, nil,
		"DELETE FROM "+target+" WHERE EXISTS (SELECT fid FROM "+tblMutTouch+
			" m WHERE m.fid = "+target+".fid AND m.tid = "+target+".tid)"); err != nil {
		return 0, err
	}
	// Re-materialize the touched pairs that are still within lthd: touched
	// pairs are unique, so each probes TSeg's (src, nid) key for its one row.
	insQ := "INSERT INTO " + target + " (fid, tid, pid, cost) SELECT m.fid, m.tid, s.par, s.dist FROM " +
		tblMutTouch + " m, " + TblSeg + " s WHERE s.src = m." + srcCol + " AND s.nid = m." + nidCol + " AND s.src <> s.nid"
	repaired, err := e.exec(ctx, qs, nil, nil, insQ)
	if err != nil {
		return 0, err
	}
	// Surviving original edges on touched pairs re-enter per
	// Definition 4(2).
	if err := e.foldEdges(ctx, qs, forward, tblMutTouch); err != nil {
		return 0, err
	}
	return repaired, nil
}
