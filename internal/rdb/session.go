package rdb

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// Session is a per-caller handle over a shared DB, the analogue of the
// paper's JDBC connection (core.Engine holds one). Sessions add no locking
// of their own — the DB's RW latch already lets reads run concurrently — and
// keep no counters of their own: a statement through a session costs one
// closed check and one add to the DB-wide SessionStatements.
//
// A Session is safe for concurrent use by multiple goroutines, though the
// intended pattern is one session per goroutine.
type Session struct {
	db     *DB
	closed atomic.Bool
}

var errSessionClosed = errors.New("rdb: session is closed")

// Session opens a per-caller handle. Close it when the caller disconnects
// so ActiveSessions in Stats stays meaningful.
func (db *DB) Session() *Session {
	db.sessionsOpened.Add(1)
	db.sessionsActive.Add(1)
	return &Session{db: db}
}

// DB returns the underlying shared database.
func (s *Session) DB() *DB { return s.db }

// Close marks the session disconnected. Statements on a closed session
// fail; closing twice is a no-op.
func (s *Session) Close() error {
	if s.closed.CompareAndSwap(false, true) {
		s.db.sessionsActive.Add(-1)
	}
	return nil
}

// begin refuses a statement on a closed session and counts one that runs.
func (s *Session) begin() error {
	if s.closed.Load() {
		return errSessionClosed
	}
	s.db.sessionStmts.Add(1)
	return nil
}

// Exec runs a mutating statement through the session (exclusive latch).
func (s *Session) Exec(query string, args ...any) (Result, error) {
	if err := s.begin(); err != nil {
		return Result{}, err
	}
	return s.db.Exec(query, args...)
}

// Query runs a SELECT through the session (shared latch; concurrent with
// other sessions' reads).
func (s *Session) Query(query string, args ...any) (*Rows, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	return s.db.Query(query, args...)
}

// QueryInt runs a single-value query; null reports a NULL (or empty) result.
func (s *Session) QueryInt(query string, args ...any) (v int64, null bool, err error) {
	if err := s.begin(); err != nil {
		return 0, false, err
	}
	return s.db.QueryInt(query, args...)
}

// Context-aware statement execution. Statements themselves are short (the
// workload is many small statements, like the paper's JDBC loop), so
// cancellation is checked at statement boundaries: a cancelled context
// refuses the next statement before any parsing or latching happens. This
// is the rdb half of the engine's cooperative cancellation — the engine
// checks once per frontier iteration, the session once per statement.

// ContextErr reports whether ctx is dead, enforcing deadlines by the
// clock rather than only by ctx.Err(). The distinction matters: a timed
// context reports DeadlineExceeded only after the runtime timer goroutine
// fired its cancellation, and the engine's statement loop is tight enough
// to outrun that timer on a single-P scheduler (GOMAXPROCS=1, saturated
// CPU quota) — an expired query could then run to completion. Every
// cancellation checkpoint in the stack goes through this helper.
func ContextErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// ExecContext is Exec with a cancellation check at the statement boundary.
func (s *Session) ExecContext(ctx context.Context, query string, args ...any) (Result, error) {
	if err := ContextErr(ctx); err != nil {
		return Result{}, err
	}
	return s.Exec(query, args...)
}

// QueryIntContext is QueryInt with a cancellation check at the statement
// boundary.
func (s *Session) QueryIntContext(ctx context.Context, query string, args ...any) (v int64, null bool, err error) {
	if err := ContextErr(ctx); err != nil {
		return 0, false, err
	}
	return s.QueryInt(query, args...)
}
