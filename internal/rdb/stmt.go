package rdb

import "fmt"

// Stmt is a prepared statement, the JDBC PreparedStatement of the paper's
// client: a handle on its text, re-executed with fresh bound arguments.
// Preparation parses, feature-checks and compiles the text into the DB's
// plan cache, so its errors surface at prepare time; every execution then
// resolves the text through that cache as Exec and Query do — a hit while
// the schema epoch holds, a transparent re-compile after DDL moved it, never
// a stale plan.
//
// A Stmt is safe for concurrent use: every execution runs in a private
// instance of the plan entry.
type Stmt struct {
	db   *DB
	sess *Session // non-nil when prepared through a Session
	text string
}

// Prepare compiles a statement for repeated execution.
func (db *DB) Prepare(query string) (*Stmt, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, fmt.Errorf("rdb: database is closed")
	}
	if _, err := db.plan(query); err != nil {
		return nil, err
	}
	return &Stmt{db: db, text: query}, nil
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

// Exec runs the prepared mutating statement with fresh arguments.
func (st *Stmt) Exec(args ...any) (Result, error) {
	if st.sess != nil {
		return st.sess.Exec(st.text, args...)
	}
	return st.db.Exec(st.text, args...)
}

// Query runs the prepared SELECT with fresh arguments (shared latch;
// concurrent with other readers).
func (st *Stmt) Query(args ...any) (*Rows, error) {
	if st.sess != nil {
		return st.sess.Query(st.text, args...)
	}
	return st.db.Query(st.text, args...)
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
