package rdb

import (
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/sql"
)

// The plan cache removes parse→plan from the statement hot path. The
// paper's FEM loops issue the same handful of statement shapes thousands
// of times per query with only the bound values changing; a 2011-era JDBC
// client amortized that through PreparedStatement, and the engine does the
// same transparently: Exec, Query and every Stmt resolve their text through
// one map from statement text to the compiled plan, tagged with the schema
// epoch it was built against. A DB's profile is fixed at Open, so the text
// alone is the key. The map has no bound: every text the clients issue is
// one of a finite set of shapes (values bind as ? parameters, the bulk
// loader's rows too), and the per-instance part of a text is a pooled
// scratch id.
//
// Invalidation is epoch-based: every DDL statement (CREATE/DROP,
// including LoadGraph's table rebuild) bumps the catalog epoch, and a
// cached plan from an older epoch is re-compiled on its next lookup instead
// of executing — a stale plan holds *table.Table handles that may point at
// dropped heapfiles. What an entry compiled is immutable; each execution
// runs in a private instance of it (exec's template/instance split: the
// idle instance of the last execution, or a fresh exec.Node.Clone when
// executions overlap), so concurrent readers can share one entry safely.

// planKind classifies a compiled statement.
type planKind int

const (
	planKindSelect planKind = iota
	planKindDML
	planKindDDL // dispatched directly, never cached
)

// cachedPlan is one compiled statement. Immutable after construction, but
// for the idle execution instance sel and dml park on themselves.
type cachedPlan struct {
	kind    planKind
	epoch   uint64 // schema epoch the plan was compiled against
	nparams int    // ? placeholders (validated against bound args)
	sel     *exec.PreparedSelect
	dml     *exec.PreparedDML
	stmt    sql.Statement // DDL only
	// locks is the sorted per-table lock set executions acquire (write
	// subsumes read); nil for DDL, which runs under the exclusive latch.
	locks []tableLockSpec
}

// plan resolves a statement text to a compiled plan — the cached one while
// its epoch is current, else a fresh compile that replaces it (counted as
// an invalidation when it replaces a stale entry). Callers hold db.mu in
// either mode, so the epoch cannot move underneath the lookup: DDL requires
// the exclusive latch. DDL statements are classified but never cached:
// each execution invalidates every plan anyway.
func (db *DB) plan(query string) (*cachedPlan, error) {
	epoch := db.epoch.Load()
	db.planMu.RLock()
	cp := db.plans[query]
	db.planMu.RUnlock()
	if cp != nil && cp.epoch == epoch {
		db.planHits.Add(1)
		return cp, nil
	}
	t0 := time.Now()
	st, nparams, err := sql.ParseStmt(query)
	if err != nil {
		return nil, fmt.Errorf("rdb: %w\n  in: %s", err, query)
	}
	if err := db.checkFeatures(st); err != nil {
		return nil, err
	}
	cp = &cachedPlan{epoch: epoch, nparams: nparams}
	switch s := st.(type) {
	case *sql.SelectStmt:
		cp.kind = planKindSelect
		cp.sel, err = db.planner.PrepareSelect(s)
	case *sql.InsertStmt:
		cp.kind = planKindDML
		cp.dml, err = db.planner.PrepareInsert(s)
	case *sql.UpdateStmt:
		cp.kind = planKindDML
		cp.dml, err = db.planner.PrepareUpdate(s)
	case *sql.DeleteStmt:
		cp.kind = planKindDML
		cp.dml, err = db.planner.PrepareDelete(s)
	case *sql.MergeStmt:
		cp.kind = planKindDML
		cp.dml, err = db.planner.PrepareMerge(s)
	default:
		cp.kind, cp.stmt = planKindDDL, st
	}
	if err != nil {
		return nil, wrapErr(err, query)
	}
	db.parseDurNs.Add(int64(time.Since(t0)))
	if cp.kind == planKindDDL {
		return cp, nil
	}
	cp.locks = db.stmtLockSpecs(st)
	db.planMisses.Add(1)
	db.planMu.Lock()
	if old := db.plans[query]; old != nil && old.epoch != epoch {
		db.planInvalidated.Add(1)
	}
	db.plans[query] = cp
	db.planMu.Unlock()
	return cp, nil
}

// planEntries reports the live entry count.
func (db *DB) planEntries() int {
	db.planMu.RLock()
	defer db.planMu.RUnlock()
	return len(db.plans)
}
