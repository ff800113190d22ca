package rdb

import (
	"context"
	"fmt"
	"sync/atomic"
)

// Stmt is a prepared statement: a handle over one compiled plan that can be
// re-executed with fresh bound arguments, the JDBC PreparedStatement of the
// paper's client. Preparation parses, feature-checks and compiles the text
// once; every execution binds parameters and runs, skipping parse/plan
// entirely while the schema epoch the plan was compiled against still
// holds. After a DDL statement bumps the epoch the handle transparently
// re-compiles on its next use — a stale plan is never executed.
//
// A Stmt is safe for concurrent use: the pinned plan is an atomic pointer
// and every execution runs in a private instance of the plan entry.
type Stmt struct {
	db   *DB
	sess *Session // non-nil when prepared through a Session
	text string
	plan atomic.Pointer[cachedPlan]
}

// Prepare compiles a statement for repeated execution.
func (db *DB) Prepare(query string) (*Stmt, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, fmt.Errorf("rdb: database is closed")
	}
	cp, err := db.plan(query)
	if err != nil {
		return nil, err
	}
	st := &Stmt{db: db, text: query}
	st.plan.Store(cp)
	return st, nil
}

// Prepare compiles a statement through the session; its executions count
// as the session's statements like Exec/Query do.
func (s *Session) Prepare(query string) (*Stmt, error) {
	if s.closed.Load() {
		return nil, errSessionClosed
	}
	st, err := s.db.Prepare(query)
	if err != nil {
		return nil, err
	}
	st.sess = s
	return st, nil
}

// current returns the pinned plan when it is still valid for the present
// schema epoch, re-compiling (through the shared cache) otherwise. Callers
// hold db.mu in either mode, so the epoch cannot move underneath the check:
// DDL requires the exclusive latch.
func (st *Stmt) current() (*cachedPlan, error) {
	if cp := st.plan.Load(); cp != nil && cp.epoch == st.db.epoch.Load() {
		st.db.planHits.Add(1)
		return cp, nil
	}
	cp, err := st.db.plan(st.text)
	if err != nil {
		return nil, err
	}
	st.plan.Store(cp)
	return cp, nil
}

// Exec runs the prepared mutating statement with fresh arguments
// (exclusive latch).
func (st *Stmt) Exec(args ...any) (Result, error) {
	if st.sess != nil {
		if err := st.sess.begin(); err != nil {
			return Result{}, err
		}
	}
	return st.db.execText(st.text, st, args)
}

// ExecContext is Exec with a cancellation check at the bind/execute
// boundary.
func (st *Stmt) ExecContext(ctx context.Context, args ...any) (Result, error) {
	if err := ContextErr(ctx); err != nil {
		return Result{}, err
	}
	return st.Exec(args...)
}

// Query runs the prepared SELECT with fresh arguments (shared latch;
// concurrent with other readers).
func (st *Stmt) Query(args ...any) (*Rows, error) {
	if st.sess != nil {
		if err := st.sess.begin(); err != nil {
			return nil, err
		}
	}
	return st.db.queryText(st.text, st, args)
}

// QueryContext is Query with a cancellation check at the bind/execute
// boundary.
func (st *Stmt) QueryContext(ctx context.Context, args ...any) (*Rows, error) {
	if err := ContextErr(ctx); err != nil {
		return nil, err
	}
	return st.Query(args...)
}

// QueryInt runs the prepared single-value query; null reports a NULL (or
// empty) result.
func (st *Stmt) QueryInt(args ...any) (v int64, null bool, err error) {
	rows, err := st.Query(args...)
	if err != nil {
		return 0, false, err
	}
	return intFromRows(rows)
}

// QueryIntContext is QueryInt with a cancellation check at the bind/execute
// boundary.
func (st *Stmt) QueryIntContext(ctx context.Context, args ...any) (v int64, null bool, err error) {
	if err := ContextErr(ctx); err != nil {
		return 0, false, err
	}
	return st.QueryInt(args...)
}
