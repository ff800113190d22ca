package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/labels"
	"repro/internal/rdb"
)

// The hub-label (2-hop) integration: BuildLabels constructs the pruned
// label index of internal/labels, AlgLabel answers exact queries from it
// with no frontier loop — one aggregate merge-join for the distance, two
// statements per hop for the route — and the mutation subsystem decides
// per edge change whether the index provably survives (keep) or must go
// cold (invalidate). See docs/ARCHITECTURE.md §Hub labels.

// BuildLabels constructs (or rebuilds) the pruned 2-hop label index for
// the loaded graph: every node with an edge becomes a hub, processed in
// degree-descending order by pruned single-seed SegTable sweeps,
// materialized into TLabelOut/TLabelIn(nid, hub, dist). Like BuildOracle,
// the build excludes searches and bumps the graph version.
func (e *Engine) BuildLabels() (*labels.BuildStats, error) {
	return e.BuildLabelsContext(context.Background())
}

// BuildLabelsContext is BuildLabels with cooperative cancellation: a
// cancelled ctx aborts the build at the next statement or relaxation
// round. The label pointer is only installed after a complete build, so a
// cancelled build reads as "not built" (or "went cold", if an index
// existed) — never as a partial label set.
func (e *Engine) BuildLabelsContext(ctx context.Context) (*labels.BuildStats, error) {
	release, err := e.beginBuild(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	// Invalidate before touching the label relations: a rebuild over a
	// live index must make concurrent planning refuse cleanly rather than
	// read half-built label sets. A live index also goes stale here, so a
	// failed rebuild reads as "went cold" — not "never built".
	e.mu.Lock()
	if e.lbl != nil {
		e.lblStale = true
	}
	e.lbl = nil
	e.mu.Unlock()
	lbl, st, err := labels.Build(ctx, e.sweeper(nil))
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.lbl = lbl
	e.lblStale = false
	e.bumpVersionLocked()
	e.mu.Unlock()
	return st, nil
}

// Labels returns the hub-label index metadata, or nil when no index is
// built (or the last one was invalidated by a graph change the
// keep-analysis could not absorb).
func (e *Engine) Labels() *labels.Labels { return e.indexState().lbl }

// LabelsInvalidated reports that a previously built label index was
// killed by a graph mutation and has not been rebuilt: AlgLabel refuses
// to run (and the planner stops preferring "labels") until BuildLabels is
// called again.
func (e *Engine) LabelsInvalidated() bool { return e.indexState().lblStale }

// The label query shapes: constant texts, endpoints bound as parameters.
const (
	// labelDistQ is the whole distance query — one merge-join of s's
	// out-labels with t's in-labels over their common hubs. NULL means no
	// common hub, which under the 2-hop cover property is a proof of
	// unreachability.
	labelDistQ = "SELECT MIN(a.dist + b.dist) FROM " + labels.TblOut + " a, " + labels.TblIn +
		" b WHERE a.nid = ? AND b.nid = ? AND a.hub = b.hub"
	// labelStepQ advances path recovery one hop: among the current node's
	// out-edges, pick one whose head lies on a shortest path to the target
	// — label-certified remaining distance exactly r - cost. Heads that
	// cannot reach the target yield a NULL subquery, which compares false
	// and drops the row.
	labelStepQ = "SELECT TOP 1 e.tid FROM " + TblEdges + " e WHERE e.fid = ? AND " +
		"(SELECT MIN(a.dist + b.dist) FROM " + labels.TblOut + " a, " + labels.TblIn +
		" b WHERE a.nid = e.tid AND b.nid = ? AND a.hub = b.hub) = ? - e.cost"
)

// labelSearch answers one exact query from the label index: the distance
// is a single aggregate SELECT, and the route (when a path exists) is
// recovered by a greedy certified-next-hop walk — two statements per hop,
// each hop strictly decreasing the remaining label distance, so the walk
// terminates and every step lies on a true shortest path.
func (e *Engine) labelSearch(ctx context.Context, s, t int64, budget int64) (Path, *QueryStats, error) {
	qs := &QueryStats{Algorithm: AlgLabel.String(), budget: budget}
	start := time.Now()
	defer func() { qs.Total = time.Since(start) }()

	if s == t {
		return Path{Found: true, Length: 0, Nodes: []int64{s}}, qs, nil
	}
	dist, null, err := e.queryInt(ctx, qs, &qs.SC, labelDistQ, s, t)
	if err != nil {
		return Path{}, qs, err
	}
	if null {
		return Path{Found: false}, qs, nil
	}
	nodes := []int64{s}
	cur, remain := s, dist
	limit := e.maxIters()
	for cur != t {
		if err := rdb.ContextErr(ctx); err != nil {
			return Path{}, qs, fmt.Errorf("core: Label cancelled after %d hops: %w", len(nodes)-1, err)
		}
		if len(nodes) > limit {
			return Path{}, qs, fmt.Errorf("core: Label path recovery exceeded %d hops (s=%d t=%d)", limit, s, t)
		}
		qs.Iterations++
		next, nullStep, err := e.queryInt(ctx, qs, &qs.FPR, labelStepQ, cur, t, remain)
		if err != nil {
			return Path{}, qs, err
		}
		if nullStep {
			return Path{}, qs, fmt.Errorf("core: label index inconsistent: no certified hop from %d toward %d (remaining %d)", cur, t, remain)
		}
		nodes = append(nodes, next)
		cur = next
		if cur == t {
			break
		}
		remain, nullStep, err = e.queryInt(ctx, qs, &qs.FPR, labelDistQ, cur, t)
		if err != nil {
			return Path{}, qs, err
		}
		if nullStep {
			return Path{}, qs, fmt.Errorf("core: label index inconsistent: %d lost reachability to %d mid-recovery", cur, t)
		}
	}
	return Path{Found: true, Length: dist, Nodes: nodes}, qs, nil
}

// The mutation keep-analysis shapes. An edge change (u, v) is absorbed —
// the index stays valid — when the labels themselves prove no distance
// moved; otherwise the index goes cold. Incremental case (insert, or
// update to a weight <= the old one): d(u, v) <= w_new, read straight
// from the labels, proves the changed edge is redundant. Decremental case
// (delete, or update to a weight > the old one): zero label entries may
// have routed through the edge at its old weight — materialize every
// node's label distance TO u (TLblTo) and FROM v (TLblFrom), then count
// entries (x, h, d) with d(x,u) + oldW + d(v,h) <= d (out side; the in
// side symmetric). Zero stale entries means every label entry still
// records a live shortest path, and since distances can only grow under a
// decremental change while label queries still realize the old values,
// the sandwich d_new(s,t) <= query(s,t) = d_old(s,t) <= d_new(s,t) pins
// every pairwise distance unchanged — the cover stays exact.
const (
	lblToClearQ = "DELETE FROM " + labels.TblScrTo
	lblToFillQ  = "INSERT INTO " + labels.TblScrTo + " (nid, dist) " +
		"SELECT a.nid, MIN(a.dist + b.dist) FROM " + labels.TblOut + " a, " + labels.TblIn +
		" b WHERE b.nid = ? AND a.hub = b.hub GROUP BY a.nid"
	lblFromClearQ = "DELETE FROM " + labels.TblScrFrom
	lblFromFillQ  = "INSERT INTO " + labels.TblScrFrom + " (nid, dist) " +
		"SELECT b.nid, MIN(a.dist + b.dist) FROM " + labels.TblOut + " a, " + labels.TblIn +
		" b WHERE a.nid = ? AND a.hub = b.hub GROUP BY b.nid"
	lblStaleOutQ = "SELECT COUNT(*) FROM " + labels.TblOut + " l, " + labels.TblScrTo + " p, " +
		labels.TblScrFrom + " s WHERE p.nid = l.nid AND s.nid = l.hub AND p.dist + ? + s.dist <= l.dist"
	lblStaleInQ = "SELECT COUNT(*) FROM " + labels.TblIn + " l, " + labels.TblScrTo + " p, " +
		labels.TblScrFrom + " s WHERE p.nid = l.hub AND s.nid = l.nid AND p.dist + ? + s.dist <= l.dist"
)

// labelKeepUpsert runs the incremental keep-check after an edge insert or
// weight decrease to w: the index survives iff the pre-mutation label
// distance d(u, v) (labels are untouched by the TEdges write, so the read
// still reflects it) already covers the new weight. No-op without a live
// index.
func (e *Engine) labelKeepUpsert(ctx context.Context, qs *QueryStats, st *MaintStats, u, v, w int64) error {
	if e.Labels() == nil {
		return nil
	}
	d, null, err := e.queryInt(ctx, qs, nil, labelDistQ, u, v)
	if err != nil {
		return err
	}
	if !null && d <= w {
		e.mu.Lock()
		e.muts.LabelKeeps++
		e.mu.Unlock()
		return nil
	}
	e.invalidateLabels(st)
	return nil
}

// labelKeepDecrement runs the decremental keep-check after an edge delete
// or weight increase whose pre-mutation effective weight was oldW: the
// index survives iff no label entry's recorded distance could have routed
// through (u, v, oldW). No-op without a live index.
func (e *Engine) labelKeepDecrement(ctx context.Context, qs *QueryStats, st *MaintStats, u, v, oldW int64) error {
	if e.Labels() == nil {
		return nil
	}
	for _, q := range []string{lblToClearQ, lblFromClearQ} {
		if _, err := e.exec(ctx, qs, nil, nil, q); err != nil {
			return err
		}
	}
	if _, err := e.exec(ctx, qs, nil, nil, lblToFillQ, u); err != nil {
		return err
	}
	if _, err := e.exec(ctx, qs, nil, nil, lblFromFillQ, v); err != nil {
		return err
	}
	staleOut, _, err := e.queryInt(ctx, qs, nil, lblStaleOutQ, oldW)
	if err != nil {
		return err
	}
	staleIn := int64(0)
	if staleOut == 0 {
		staleIn, _, err = e.queryInt(ctx, qs, nil, lblStaleInQ, oldW)
		if err != nil {
			return err
		}
	}
	if staleOut == 0 && staleIn == 0 {
		e.mu.Lock()
		e.muts.LabelKeeps++
		e.mu.Unlock()
		return nil
	}
	e.invalidateLabels(st)
	return nil
}

// invalidateLabels marks a live label index cold after a mutation the
// keep-analysis could not absorb, or that failed midway.
func (e *Engine) invalidateLabels(st *MaintStats) {
	e.mu.Lock()
	e.invalidateLabelsLocked(st)
	e.mu.Unlock()
}

// invalidateLabelsLocked is invalidateLabels for callers holding e.mu.
func (e *Engine) invalidateLabelsLocked(st *MaintStats) {
	if e.lbl != nil {
		e.lbl = nil
		e.lblStale = true
		e.muts.LabelInvalidations++
		st.LabelsInvalidated = true
	}
}
