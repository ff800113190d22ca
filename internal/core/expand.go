package core

import (
	"context"
	"fmt"
)

// direction captures the column/table asymmetry between forward expansion
// (from s along outgoing edges, maintaining d2s/p2s/f) and backward
// expansion (from t along incoming edges, maintaining d2t/p2t/b) — §4.1's
// extension of TVisited.
type direction struct {
	forward bool
	dist    string // d2s / d2t
	par     string // p2s / p2t
	sign    string // f / b
	joinCol string // edge column matched against q.nid (fid fwd, tid bwd)
	newCol  string // edge column of the newly expanded node
}

func fwdDir() direction {
	return direction{forward: true, dist: "d2s", par: "p2s", sign: "f", joinCol: "fid", newCol: "tid"}
}

func bwdDir() direction {
	return direction{forward: false, dist: "d2t", par: "p2t", sign: "b", joinCol: "tid", newCol: "fid"}
}

// insertValues renders the 7-column TVisited insert list for a newly
// discovered node: its own direction gets (cost, parent, sign=0), the other
// direction the MaxDist sentinel with sign=1 (not a candidate until relaxed
// from that side). The sentinels bind as two ? parameters — MaxDist then
// NoParent, appended by runExpand — instead of rendered literals, so the
// statement text stays constant and cacheable by shape.
func (d direction) insertValues(prefix string) string {
	if d.forward {
		return "(" + prefix + ".nid, " + prefix + ".cost, " + prefix + ".par, 0, ?, ?, 1)"
	}
	return "(" + prefix + ".nid, ?, ?, 1, " + prefix + ".cost, " + prefix + ".par, 0)"
}

// insertSelectList is the same shape for INSERT ... SELECT (no parens).
func (d direction) insertSelectList(prefix string) string {
	if d.forward {
		return prefix + ".nid, " + prefix + ".cost, " + prefix + ".par, 0, ?, ?, 1"
	}
	return prefix + ".nid, ?, ?, 1, " + prefix + ".cost, " + prefix + ".par, 0"
}

// expandSQL carries the pre-rendered statements for one (direction,
// edge-table, frontier, dialect) combination. Statements are rendered once
// per query and executed as prepared statements — only the bound values
// (frontier node, prune bound, sentinels) change between iterations, so
// the compiled plans come from the cache instead of being re-parsed like
// the paper's client, which shipped SQL text through JDBC every iteration.
type expandSQL struct {
	dir direction

	// NSQL fused: window function + MERGE in a single statement
	// (Listing 2(3,4) / Listing 4(2) of the paper).
	fused string

	// Materialized E-operator (separate-operator and no-MERGE paths).
	clearExpand string
	insExpand   string // window-function form

	// Traditional E-operator: aggregate + join-back (pre-SQL:2003).
	clearCost   string
	insCost     string
	insExpandTr string

	// M-operator alternatives.
	mMerge  string // MERGE from TExpand
	mUpdate string // UPDATE ... FROM TExpand
	mInsert string // INSERT ... WHERE NOT EXISTS

	frontierArgs int // number of ? placeholders in the frontier predicate
	prune        bool
}

// sentinelArgs are the bound values for the insertValues/insertSelectList
// placeholders: the not-yet-reached distance and the unset parent link.
var sentinelArgs = []any{MaxDist, NoParent}

// buildExpand renders the expansion statements over sc's working tables.
// frontier is a predicate over the alias q (e.g. "q.f = 2" or "q.nid = ?");
// frontierArgs counts its placeholders. prune appends the Theorem-1 bound
// "out.cost + q.<dist> + ? < ?" with two more placeholders.
func (e *Engine) buildExpand(d direction, edgeTbl, frontier string, frontierArgs int, prune bool, sc *scratchSet) *expandSQL {
	x := &expandSQL{dir: d, frontierArgs: frontierArgs, prune: prune}
	pruneSQL := ""
	if prune {
		pruneSQL = " AND out.cost + q." + d.dist + " + ? < ?"
	}

	// The windowed expansion source (E-operator): all candidate expansions
	// joined from the frontier, keeping only the cheapest per new node via
	// ROW_NUMBER — the SQL:2003 feature that also carries the parent along
	// without a second join.
	windowSrc := "SELECT nid, par, cost FROM (" +
		"SELECT out." + d.newCol + ", q.nid, out.cost + q." + d.dist + ", " +
		"ROW_NUMBER() OVER (PARTITION BY out." + d.newCol + " ORDER BY out.cost + q." + d.dist + ") " +
		"FROM " + sc.visited + " q, " + edgeTbl + " out " +
		"WHERE q.nid = out." + d.joinCol + " AND " + frontier + pruneSQL +
		") tmp (nid, par, cost, rn) WHERE rn = 1"

	x.fused = "MERGE INTO " + sc.visited + " AS target USING (" + windowSrc + ") AS source (nid, par, cost) " +
		"ON (target.nid = source.nid) " +
		"WHEN MATCHED AND target." + d.dist + " > source.cost THEN UPDATE SET " +
		d.dist + " = source.cost, " + d.par + " = source.par, " + d.sign + " = 0 " +
		"WHEN NOT MATCHED THEN INSERT (nid, d2s, p2s, f, d2t, p2t, b) VALUES " + d.insertValues("source")

	x.clearExpand = "DELETE FROM " + sc.expand
	x.insExpand = "INSERT INTO " + sc.expand + " (nid, par, cost) " + windowSrc

	// Traditional two-step E-operator: aggregate the minimal cost per new
	// node, then join back to find a parent achieving it (§3.3's discussion
	// of why the direct translation is verbose and slow).
	x.clearCost = "DELETE FROM " + sc.expCost
	x.insCost = "INSERT INTO " + sc.expCost + " (nid, cost) " +
		"SELECT out." + d.newCol + ", MIN(out.cost + q." + d.dist + ") FROM " + sc.visited + " q, " + edgeTbl + " out " +
		"WHERE q.nid = out." + d.joinCol + " AND " + frontier + pruneSQL + " GROUP BY out." + d.newCol
	x.insExpandTr = "INSERT INTO " + sc.expand + " (nid, par, cost) " +
		"SELECT ec.nid, MIN(q.nid), ec.cost FROM " + sc.visited + " q, " + edgeTbl + " out, " + sc.expCost + " ec " +
		"WHERE q.nid = out." + d.joinCol + " AND " + frontier + pruneSQL +
		" AND ec.nid = out." + d.newCol + " AND out.cost + q." + d.dist + " = ec.cost " +
		"GROUP BY ec.nid, ec.cost"

	x.mMerge = "MERGE INTO " + sc.visited + " AS target USING " + sc.expand + " AS source ON (target.nid = source.nid) " +
		"WHEN MATCHED AND target." + d.dist + " > source.cost THEN UPDATE SET " +
		d.dist + " = source.cost, " + d.par + " = source.par, " + d.sign + " = 0 " +
		"WHEN NOT MATCHED THEN INSERT (nid, d2s, p2s, f, d2t, p2t, b) VALUES " + d.insertValues("source")
	x.mUpdate = "UPDATE " + sc.visited + " SET " + d.dist + " = s.cost, " + d.par + " = s.par, " + d.sign + " = 0 " +
		"FROM " + sc.expand + " s WHERE " + sc.visited + ".nid = s.nid AND " + sc.visited + "." + d.dist + " > s.cost"
	x.mInsert = "INSERT INTO " + sc.visited + " (nid, d2s, p2s, f, d2t, p2t, b) SELECT " +
		d.insertSelectList("s") + " FROM " + sc.expand + " s " +
		"WHERE NOT EXISTS (SELECT nid FROM " + sc.visited + " v WHERE v.nid = s.nid)"
	return x
}

// pruneArgs binds x's Theorem-1 placeholders (none when x does not prune).
func (e *Engine) pruneArgs(x *expandSQL, lOther, minCost int64) []any {
	if !x.prune {
		return nil
	}
	bound := minCost
	if e.opts.DisablePruning || bound >= MaxDist {
		bound = 4 * MaxDist // effectively unbounded
	}
	return []any{lOther, bound}
}

// runExpand executes one E+M round, returning the number of affected
// TVisited rows (the SQLCA count Algorithm 1/2 read). The statement shape
// depends on the dialect and engine profile:
//
//	NSQL, MERGE available, fused:     1 statement  (window + MERGE)
//	NSQL, MERGE available, separate:  3 statements (clear, E-insert, MERGE)
//	NSQL, no MERGE (PostgreSQL 9.0):  4 statements (clear, E-insert, UPDATE, INSERT)
//	TSQL:                             6 statements (aggregate E ×2 + UPDATE, INSERT)
func (e *Engine) runExpand(ctx context.Context, qs *QueryStats, x *expandSQL, frontierArgs []any, lOther, minCost int64) (int64, error) {
	if len(frontierArgs) != x.frontierArgs {
		return 0, fmt.Errorf("core: expansion expects %d frontier args, got %d", x.frontierArgs, len(frontierArgs))
	}
	eArgs := append(append([]any{}, frontierArgs...), e.pruneArgs(x, lOther, minCost)...)

	useTraditional := e.opts.TraditionalSQL
	useMerge := e.db.Profile().SupportsMerge && !useTraditional
	fusedOK := useMerge && !e.opts.SeparateOperators && e.db.Profile().SupportsWindow

	if fusedOK {
		// The VALUES clause trails the windowed source, so the sentinel
		// binds come after the frontier and prune parameters.
		return e.exec(ctx, qs, &qs.PE, &qs.EOp, x.fused, append(eArgs, sentinelArgs...)...)
	}

	// Materialize the E-operator output.
	if _, err := e.exec(ctx, qs, &qs.PE, &qs.EOp, x.clearExpand); err != nil {
		return 0, err
	}
	if !useTraditional && e.db.Profile().SupportsWindow {
		if _, err := e.exec(ctx, qs, &qs.PE, &qs.EOp, x.insExpand, eArgs...); err != nil {
			return 0, err
		}
	} else {
		if _, err := e.exec(ctx, qs, &qs.PE, &qs.EOp, x.clearCost); err != nil {
			return 0, err
		}
		if _, err := e.exec(ctx, qs, &qs.PE, &qs.EOp, x.insCost, eArgs...); err != nil {
			return 0, err
		}
		// insExpandTr contains the frontier+prune placeholders once more.
		if _, err := e.exec(ctx, qs, &qs.PE, &qs.EOp, x.insExpandTr, eArgs...); err != nil {
			return 0, err
		}
	}

	// Apply the M-operator.
	if useMerge {
		return e.exec(ctx, qs, &qs.PE, &qs.MOp, x.mMerge, sentinelArgs...)
	}
	upd, err := e.exec(ctx, qs, &qs.PE, &qs.MOp, x.mUpdate)
	if err != nil {
		return 0, err
	}
	ins, err := e.exec(ctx, qs, &qs.PE, &qs.MOp, x.mInsert, sentinelArgs...)
	if err != nil {
		return 0, err
	}
	return upd + ins, nil
}
