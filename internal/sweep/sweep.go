// Package sweep is the one relational set-Dijkstra fixpoint every index
// build runs (§4.2 of the paper): seed a working set, flag the candidates
// below k·wmin or at the global minimum (F), expand them through TEdges
// (E), MERGE the cheaper distances back (M), repeat until no candidate is
// left. SegTable runs it from every node with the lthd bound; the landmark
// oracle and the hub labels run it from one node with no bound, the labels
// with a prune statement between F and E. The degree ranking both of
// those order their sources by lives here too.
//
// The package owns its working tables and renders every statement of the
// loop; it reaches the database only through the caller's two statement
// functions, so an engine's builds share its prepared handles and
// statement accounting.
package sweep

import (
	"context"
	"fmt"

	"repro/internal/rdb"
)

// The graph relations every build reads (core's loader creates them), and
// the sweep's working set.
const (
	TblNodes = "TNodes"
	TblEdges = "TEdges"
	// TblWork holds one row per (source, reached node): the tentative
	// distance, the neighbour it came from (predecessor on the path from
	// src in a forward sweep, successor toward src in a backward one) and
	// the flag f: 0 candidate, 2 in the current frontier, 1 expanded,
	// 3 settled by the prune statement and never expanded.
	TblWork = "TSeg"

	tblExpand  = "TSegExpand"
	tblExpCost = "TSegExpCost"
	tblDeg     = "TDeg"
	tblDegIn   = "TDegIn"
)

// WorkTables lists every table the package creates, for loaders that
// start from a clean catalog.
func WorkTables() []string {
	return []string{TblWork, tblExpand, tblExpCost, tblDeg, tblDegIn}
}

// WorkDDL creates the working set. It always gets a clustered (src, nid)
// key: the paper's construction assumes the intermediate results are
// indexed ("we build indices over the relational tables for ...
// intermediate results").
func WorkDDL() []string {
	return []string{
		"CREATE TABLE " + TblWork + " (src INT, nid INT, dist INT, par INT, f INT)",
		"CREATE UNIQUE CLUSTERED INDEX tseg_key ON " + TblWork + " (src, nid)",
	}
}

// NoBound is the distance bound no path reaches: a sweep run with it
// relaxes to the full single-source fixpoint. It equals core.MaxDist.
const NoBound = int64(1) << 50

// Statement shapes. Texts are constants (or rendered once per direction);
// every per-round value — the frontier widening bound k*wmin, the distance
// bound — binds as a parameter, so the loop re-executes cached plans.
const (
	clearQ = "DELETE FROM " + TblWork
	seedQ  = "INSERT INTO " + TblWork + " (src, nid, dist, par, f) SELECT nid, nid, 0, nid, 0 FROM "
	// F-operator (construction rule of §4.2): candidates below k*wmin
	// (bound as "? * ?"), or the global minimum, expand together.
	frontierQ = "UPDATE " + TblWork +
		" SET f = 2 WHERE f = 0 AND (dist < ? * ? OR dist = (SELECT MIN(dist) FROM " + TblWork + " WHERE f = 0))"
	resetQ = "UPDATE " + TblWork + " SET f = 1 WHERE f = 2"
)

// dirSQL carries one direction's expansion statements.
type dirSQL struct {
	merge string // fused MERGE form
	// No-MERGE emulation (PostgreSQL 9.0 / TSQL).
	insWindow string
	insAgg    string
	insBack   string
	update    string
	insert    string
}

var fwdSQL, bwdSQL = renderDir(true), renderDir(false)

// renderDir renders one direction's statements. forward walks outgoing
// edges (distances FROM each source), backward incoming edges (distances
// TO each source).
func renderDir(forward bool) *dirSQL {
	joinCol, newCol := "fid", "tid"
	if !forward {
		joinCol, newCol = "tid", "fid"
	}
	// E-operator source: the cheapest in-bound expansion per (src, node);
	// the distance bound binds as the single parameter.
	expandSrc := "SELECT q.src, out." + newCol + ", q.nid, out.cost + q.dist, " +
		"ROW_NUMBER() OVER (PARTITION BY q.src, out." + newCol + " ORDER BY out.cost + q.dist) " +
		"FROM " + TblWork + " q, " + TblEdges + " out WHERE q.nid = out." + joinCol +
		" AND q.f = 2 AND out.cost + q.dist <= ?"
	x := &dirSQL{}
	x.merge = "MERGE INTO " + TblWork + " AS target USING (" +
		"SELECT src, nid, par, cost FROM (" + expandSrc + ") tmp (src, nid, par, cost, rn) WHERE rn = 1" +
		") AS source (src, nid, par, cost) " +
		"ON (target.src = source.src AND target.nid = source.nid) " +
		"WHEN MATCHED AND target.dist > source.cost THEN UPDATE SET dist = source.cost, par = source.par, f = 0 " +
		"WHEN NOT MATCHED THEN INSERT (src, nid, dist, par, f) VALUES (source.src, source.nid, source.cost, source.par, 0)"
	x.insWindow = "INSERT INTO " + tblExpand + " (src, nid, par, cost) " +
		"SELECT src, nid, par, cost FROM (" + expandSrc + ") tmp (src, nid, par, cost, rn) WHERE rn = 1"
	x.insAgg = "INSERT INTO " + tblExpCost + " (src, nid, cost) " +
		"SELECT q.src, out." + newCol + ", MIN(out.cost + q.dist) FROM " + TblWork + " q, " + TblEdges + " out " +
		"WHERE q.nid = out." + joinCol + " AND q.f = 2 AND out.cost + q.dist <= ? GROUP BY q.src, out." + newCol
	x.insBack = "INSERT INTO " + tblExpand + " (src, nid, par, cost) " +
		"SELECT ec.src, ec.nid, MIN(q.nid), ec.cost FROM " + TblWork + " q, " + TblEdges + " out, " + tblExpCost + " ec " +
		"WHERE q.nid = out." + joinCol + " AND q.f = 2 AND out.cost + q.dist <= ? " +
		"AND ec.src = q.src AND ec.nid = out." + newCol + " AND out.cost + q.dist = ec.cost " +
		"GROUP BY ec.src, ec.nid, ec.cost"
	x.update = "UPDATE " + TblWork + " SET dist = s.cost, par = s.par, f = 0 FROM " + tblExpand + " s " +
		"WHERE " + TblWork + ".src = s.src AND " + TblWork + ".nid = s.nid AND " + TblWork + ".dist > s.cost"
	x.insert = "INSERT INTO " + TblWork + " (src, nid, dist, par, f) " +
		"SELECT s.src, s.nid, s.cost, s.par, 0 FROM " + tblExpand + " s " +
		"WHERE NOT EXISTS (SELECT nid FROM " + TblWork + " v WHERE v.src = s.src AND v.nid = s.nid)"
	return x
}

// ExecFunc and QueryIntFunc are the caller's statement functions, in the
// shape of rdb.Session's ExecContext and QueryIntContext.
type (
	ExecFunc     func(ctx context.Context, q string, args ...any) (rdb.Result, error)
	QueryIntFunc func(ctx context.Context, q string, args ...any) (v int64, null bool, err error)
)

// Runner runs sweeps for one build. It is not safe for concurrent use;
// builds hold the engine's exclusive gate.
type Runner struct {
	db       *rdb.DB
	exec     ExecFunc
	queryInt QueryIntFunc
	wmin     int64
	maxIters int
	// merge / window pick the expansion profile: fused MERGE, UPDATE +
	// INSERT over a window-function expansion, or UPDATE + INSERT over
	// aggregate + join-back.
	merge, window bool
	stmts         int
}

// New builds a runner that issues its statements through exec and
// queryInt. wmin is the graph's minimal edge weight (the frontier widens
// by it every round), maxIters caps the rounds of one sweep, and
// traditionalSQL forces the pre-2003 statement forms whatever db's profile
// supports.
func New(db *rdb.DB, exec ExecFunc, queryInt QueryIntFunc, wmin int64, maxIters int, traditionalSQL bool) *Runner {
	return &Runner{db: db, exec: exec, queryInt: queryInt, wmin: wmin, maxIters: maxIters,
		merge:  db.Profile().SupportsMerge && !traditionalSQL,
		window: db.Profile().SupportsWindow && !traditionalSQL}
}

// Exec runs one write statement, returning the affected-row count.
func (r *Runner) Exec(ctx context.Context, q string, args ...any) (int64, error) {
	r.stmts++
	res, err := r.exec(ctx, q, args...)
	return res.RowsAffected, err
}

// QueryInt runs one scalar query.
func (r *Runner) QueryInt(ctx context.Context, q string, args ...any) (v int64, null bool, err error) {
	r.stmts++
	return r.queryInt(ctx, q, args...)
}

// ExecAll runs the statements in order, stopping at the first error.
func (r *Runner) ExecAll(ctx context.Context, stmts ...Query) error {
	for _, s := range stmts {
		if _, err := r.Exec(ctx, s.text, s.args...); err != nil {
			return err
		}
	}
	return nil
}

// Statements reports how many statements the runner has issued.
func (r *Runner) Statements() int { return r.stmts }

// Drop drops those of the named tables that exist.
func (r *Runner) Drop(ctx context.Context, tables ...string) error {
	for _, tbl := range tables {
		if _, ok := r.db.Catalog().Get(tbl); ok {
			if _, err := r.Exec(ctx, "DROP TABLE "+tbl); err != nil {
				return err
			}
		}
	}
	return nil
}

// ensure runs ddl unless table exists already.
func (r *Runner) ensure(ctx context.Context, table string, ddl ...string) error {
	if _, ok := r.db.Catalog().Get(table); ok {
		return nil
	}
	for _, q := range ddl {
		if _, err := r.Exec(ctx, q); err != nil {
			return err
		}
	}
	return nil
}

// Query is a statement fragment with its bound arguments.
type Query struct {
	text string
	args []any
}

// Q pairs a statement text with the arguments it binds.
func Q(text string, args ...any) Query { return Query{text: text, args: args} }

// One seeds a sweep from the single node nid.
func One(nid int64) Query { return Q(TblNodes+" WHERE nid = ?", nid) }

// Run fills TblWork with set-Dijkstra distances (dist <= bound) from every
// node seed selects — seed is a FROM clause with a nid column, e.g. a
// table name — and returns the rounds it took. forward follows outgoing
// edges, backward incoming ones. A non-empty prune is an UPDATE run every
// round between frontier selection and expansion that sets f = 3 on
// frontier rows (f = 2) the caller can prove need no expansion; pruned
// sums its affected rows. A later round may still reopen a pruned row at a
// smaller distance, and prune then sees it again.
func (r *Runner) Run(ctx context.Context, forward bool, bound int64, seed, prune Query) (iters int, pruned int64, err error) {
	if err := r.ensure(ctx, TblWork, WorkDDL()...); err != nil {
		return 0, 0, err
	}
	if _, err := r.Exec(ctx, clearQ); err != nil {
		return 0, 0, err
	}
	if _, err := r.Exec(ctx, seedQ+seed.text, seed.args...); err != nil {
		return 0, 0, err
	}
	x := fwdSQL
	if !forward {
		x = bwdSQL
	}
	for k := int64(1); ; k++ {
		if err := rdb.ContextErr(ctx); err != nil {
			return 0, 0, fmt.Errorf("sweep: cancelled after %d rounds: %w", iters, err)
		}
		if int(k) > r.maxIters {
			return 0, 0, fmt.Errorf("sweep: exceeded %d rounds", r.maxIters)
		}
		cnt, err := r.Exec(ctx, frontierQ, k, r.wmin)
		if err != nil {
			return 0, 0, err
		}
		if cnt == 0 {
			return iters, pruned, nil
		}
		iters++
		if prune.text != "" {
			n, err := r.Exec(ctx, prune.text, prune.args...)
			if err != nil {
				return 0, 0, err
			}
			pruned += n
		}
		if r.merge {
			_, err = r.Exec(ctx, x.merge, bound)
		} else {
			err = r.expandNoMerge(ctx, x, bound)
		}
		if err != nil {
			return 0, 0, err
		}
		if _, err := r.Exec(ctx, resetQ); err != nil {
			return 0, 0, err
		}
	}
}

// expandNoMerge emulates the MERGE with UPDATE + INSERT (PostgreSQL 9.0
// profile) or additionally replaces the window function with aggregate +
// join-back (TSQL). The expansion lands in scratch tables keyed (src, nid),
// created on first use.
func (r *Runner) expandNoMerge(ctx context.Context, x *dirSQL, bound int64) error {
	if err := r.ensure(ctx, tblExpand,
		"CREATE TABLE "+tblExpand+" (src INT, nid INT, par INT, cost INT)",
		"CREATE UNIQUE CLUSTERED INDEX tsegexpand_key ON "+tblExpand+" (src, nid)",
		"CREATE TABLE "+tblExpCost+" (src INT, nid INT, cost INT)",
		"CREATE UNIQUE CLUSTERED INDEX tsegexpcost_key ON "+tblExpCost+" (src, nid)",
	); err != nil {
		return err
	}
	stmts := []Query{Q("DELETE FROM " + tblExpand)}
	if r.window {
		stmts = append(stmts, Q(x.insWindow, bound))
	} else {
		stmts = append(stmts, Q("DELETE FROM "+tblExpCost), Q(x.insAgg, bound), Q(x.insBack, bound))
	}
	return r.ExecAll(ctx, append(stmts, Q(x.update), Q(x.insert))...)
}
