// Package rdb is the embedded database facade: it owns the storage stack
// (disk manager, buffer pool, catalog) and exposes the statement-at-a-time
// interface the paper's client uses over JDBC — Exec with SQLCA-style
// affected-row counts, Query with positional ? parameters, and per-engine
// feature profiles (DBMS-x supports MERGE, PostgreSQL 9.0 does not).
//
// Concurrency model: a DB carries an RW facade latch plus per-table RW
// locks. SELECTs (Query/QueryInt) and DML (INSERT/UPDATE/DELETE/MERGE) both
// run under the shared side of the facade latch; each statement then locks
// exactly the tables its compiled plan reads (shared) and writes
// (exclusive), in sorted order, so statements over disjoint tables — for
// example two searches scribbling into their own private scratch tables —
// execute fully in parallel while two writers of one table still serialize.
// DDL (CREATE/DROP) takes the exclusive facade latch, draining
// every in-flight statement, and bumps the schema epoch that invalidates
// cached plans. Callers that want per-caller accounting open a Session
// (see session.go).
package rdb

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/record"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/table"
)

// Profile models the feature set of the emulated DBMS.
type Profile struct {
	Name string
	// SupportsMerge gates the SQL:2008 MERGE statement.
	SupportsMerge bool
	// SupportsWindow gates SQL:2003 window functions.
	SupportsWindow bool
}

// ProfileDBMSX models the commercial system in the paper: both new SQL
// features available.
var ProfileDBMSX = Profile{Name: "DBMS-X", SupportsMerge: true, SupportsWindow: true}

// ProfilePostgreSQL9 models PostgreSQL 9.0: window functions but no MERGE
// (the paper substitutes an UPDATE followed by an INSERT).
var ProfilePostgreSQL9 = Profile{Name: "PostgreSQL9", SupportsMerge: false, SupportsWindow: true}

// Options configures an engine instance.
type Options struct {
	// Path locates the backing file; empty means an in-memory page store.
	Path string
	// BufferPoolPages bounds the cache (default 4096 pages = 32 MiB).
	BufferPoolPages int
	// SimulatedIOLatency is charged per physical page transfer to model
	// spinning-disk cost in buffer-size experiments. Zero for most runs.
	SimulatedIOLatency time.Duration
	// Profile selects the emulated DBMS feature set (default DBMS-X).
	Profile Profile
	// PlanCacheSize bounds the compiled-plan cache in entries (default
	// DefaultPlanCacheSize). Every statement runs through the cache; a
	// negative size is out of range.
	PlanCacheSize int
}

// DefaultPlanCacheSize is the plan-cache capacity when Options.PlanCacheSize
// is 0. The workload's statement-shape count is small (a few dozen per
// algorithm); the bound exists so unbounded texts (bulk-load batches)
// cannot grow the cache without limit.
const DefaultPlanCacheSize = 256

// Stats aggregates engine activity since Open; phases are read as deltas.
// Session counters are folded in: SessionStatements is the subset of
// Statements issued through Session handles, and ActiveSessions /
// SessionsOpened track the serving tier's concurrency.
type Stats struct {
	Statements uint64
	// ParsePlanDur is the time spent parsing and compiling statements —
	// plan-cache misses only, so it measures exactly the cost the cache
	// removes from the hot path.
	ParsePlanDur time.Duration
	ExecDur      time.Duration
	// SessionsOpened counts Session handles created since Open.
	SessionsOpened uint64
	// ActiveSessions counts Session handles not yet closed.
	ActiveSessions int64
	// SessionStatements counts statements issued through sessions.
	SessionStatements uint64
	// PlanCacheHits counts statements that reused a compiled plan and
	// skipped parse/plan entirely; PlanCacheMisses counts compilations;
	// PlanCacheInvalidations counts cached plans discarded because a DDL
	// statement bumped the schema epoch underneath them.
	PlanCacheHits          uint64
	PlanCacheMisses        uint64
	PlanCacheInvalidations uint64
	// PlanCacheEntries is the live entry count.
	PlanCacheEntries int
	// SchemaEpoch is the catalog generation: bumped by every DDL statement
	// (CREATE/DROP), it is what cached plans are validated against.
	SchemaEpoch uint64
	Pool        storage.PoolStats
	IO          storage.IOStats
}

// DB is one embedded database instance. Queries and DML run concurrently
// under the shared side of the facade latch, serialized per table by the
// plan's table-lock set; DDL is exclusive.
type DB struct {
	mu      sync.RWMutex
	disk    storage.DiskManager
	pool    *storage.BufferPool
	cat     *table.Catalog
	planner *exec.Planner
	profile Profile

	// tlocks maps lowercase table name → its RW lock; tlMu guards the map
	// itself. Entries persist for the life of the DB (names recycle).
	tlMu   sync.Mutex
	tlocks map[string]*sync.RWMutex

	// plans caches compiled statements keyed by (text, profile). epoch is
	// the schema generation entries are validated against (bumped by DDL
	// under the exclusive latch).
	plans *planCache
	epoch atomic.Uint64

	// Counters are atomics because the read path updates them while
	// holding only the shared latch.
	stmts           atomic.Uint64
	parseDurNs      atomic.Int64
	execDurNs       atomic.Int64
	sessionSeq      atomic.Uint64
	sessionsOpen    atomic.Int64
	sessionStmts    atomic.Uint64
	planHits        atomic.Uint64
	planMisses      atomic.Uint64
	planInvalidated atomic.Uint64
	closed          bool
}

// Open creates a fresh database.
func Open(opts Options) (*DB, error) {
	if opts.BufferPoolPages == 0 {
		opts.BufferPoolPages = 4096
	}
	if opts.Profile.Name == "" {
		opts.Profile = ProfileDBMSX
	}
	if opts.PlanCacheSize < 0 {
		return nil, fmt.Errorf("rdb: PlanCacheSize %d out of range", opts.PlanCacheSize)
	}
	if opts.PlanCacheSize == 0 {
		opts.PlanCacheSize = DefaultPlanCacheSize
	}
	var disk storage.DiskManager
	var err error
	if opts.Path == "" {
		disk = storage.NewMemDiskManager(opts.SimulatedIOLatency)
	} else {
		disk, err = storage.NewFileDiskManager(opts.Path, opts.SimulatedIOLatency)
		if err != nil {
			return nil, err
		}
	}
	pool := storage.NewBufferPool(disk, opts.BufferPoolPages)
	cat := table.NewCatalog(pool)
	db := &DB{
		disk:    disk,
		pool:    pool,
		cat:     cat,
		planner: exec.NewPlanner(cat),
		profile: opts.Profile,
		tlocks:  make(map[string]*sync.RWMutex),
		plans:   newPlanCache(opts.PlanCacheSize),
	}
	return db, nil
}

// Close flushes and releases the database.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	if err := db.pool.FlushAll(); err != nil {
		return err
	}
	return db.disk.Close()
}

// SetSimulatedIOLatency changes the per-page-transfer simulated latency at
// runtime. Benchmarks open with zero latency for the load/index phase and
// arm the seek cost only for the measured phase.
func (db *DB) SetSimulatedIOLatency(lat time.Duration) { db.disk.SetLatency(lat) }

// Profile returns the engine's feature profile.
func (db *DB) Profile() Profile { return db.profile }

// Catalog exposes table metadata (used by tests and the loader).
func (db *DB) Catalog() *table.Catalog { return db.cat }

// Pool exposes the buffer pool (stats, capacity).
func (db *DB) Pool() *storage.BufferPool { return db.pool }

// Stats snapshots engine counters.
func (db *DB) Stats() Stats {
	return Stats{
		Statements:             db.stmts.Load(),
		ParsePlanDur:           time.Duration(db.parseDurNs.Load()),
		ExecDur:                time.Duration(db.execDurNs.Load()),
		SessionsOpened:         db.sessionSeq.Load(),
		ActiveSessions:         db.sessionsOpen.Load(),
		SessionStatements:      db.sessionStmts.Load(),
		PlanCacheHits:          db.planHits.Load(),
		PlanCacheMisses:        db.planMisses.Load(),
		PlanCacheInvalidations: db.planInvalidated.Load(),
		PlanCacheEntries:       db.plans.size(),
		SchemaEpoch:            db.epoch.Load(),
		Pool:                   db.pool.Stats(),
		IO:                     db.disk.Stats(),
	}
}

// Result is the SQLCA-style outcome of a mutating statement.
type Result = exec.Result

// Rows is a fully materialized query result (result sets in the workload
// are tiny: frontier ids, minima, path links).
type Rows struct {
	Columns []string
	Data    []record.Row
}

// Len returns the number of rows.
func (r *Rows) Len() int { return len(r.Data) }

func convertArgs(args []any) ([]record.Value, error) {
	out := make([]record.Value, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case nil:
			out[i] = record.Value{Null: true}
		case int:
			out[i] = record.Int(int64(v))
		case int32:
			out[i] = record.Int(int64(v))
		case int64:
			out[i] = record.Int(v)
		case uint32:
			out[i] = record.Int(int64(v))
		case bool:
			out[i] = record.Bool(v)
		case record.Value:
			out[i] = v
		default:
			return nil, fmt.Errorf("rdb: unsupported parameter type %T", a)
		}
	}
	return out, nil
}

func (db *DB) checkFeatures(st sql.Statement) error {
	switch s := st.(type) {
	case *sql.MergeStmt:
		if !db.profile.SupportsMerge {
			return fmt.Errorf("rdb: %s does not support MERGE", db.profile.Name)
		}
		if s.Source.Sub != nil && !db.profile.SupportsWindow && selectUsesWindow(s.Source.Sub) {
			return fmt.Errorf("rdb: %s does not support window functions", db.profile.Name)
		}
	case *sql.SelectStmt:
		if !db.profile.SupportsWindow && selectUsesWindow(s) {
			return fmt.Errorf("rdb: %s does not support window functions", db.profile.Name)
		}
	case *sql.InsertStmt:
		if s.Select != nil && !db.profile.SupportsWindow && selectUsesWindow(s.Select) {
			return fmt.Errorf("rdb: %s does not support window functions", db.profile.Name)
		}
	}
	return nil
}

func selectUsesWindow(st *sql.SelectStmt) bool {
	for _, it := range st.Items {
		if exprUsesWindow(it) {
			return true
		}
	}
	for _, fr := range st.From {
		if fr.Sub != nil && selectUsesWindow(fr.Sub) {
			return true
		}
	}
	return false
}

func exprUsesWindow(e sql.Expr) bool {
	switch ex := e.(type) {
	case *sql.FuncCall:
		return ex.Window != nil
	case *sql.Binary:
		return exprUsesWindow(ex.L) || exprUsesWindow(ex.R)
	case *sql.Subquery:
		return selectUsesWindow(ex.Select)
	case *sql.Exists:
		return selectUsesWindow(ex.Select)
	}
	return false
}

// plan resolves a statement text to a compiled plan — from the cache when a
// current-epoch entry exists, compiling (and caching) otherwise. Callers
// hold db.mu in either mode; the cache carries its own latch so concurrent
// readers can hit it together. DDL statements are classified but never
// cached: each execution invalidates every plan anyway.
func (db *DB) plan(query string) (*cachedPlan, error) {
	epoch := db.epoch.Load()
	key := planKey{text: query, profile: db.profile.Name}
	if cp, stale := db.plans.get(key, epoch); cp != nil {
		db.planHits.Add(1)
		return cp, nil
	} else if stale {
		db.planInvalidated.Add(1)
	}
	t0 := time.Now()
	st, nparams, err := sql.ParseStmt(query)
	if err != nil {
		return nil, fmt.Errorf("rdb: %w\n  in: %s", err, query)
	}
	if err := db.checkFeatures(st); err != nil {
		return nil, err
	}
	cp := &cachedPlan{epoch: epoch, nparams: nparams, locks: stmtLockSpecs(st)}
	switch s := st.(type) {
	case *sql.SelectStmt:
		ps, err := db.planner.PrepareSelect(s)
		if err != nil {
			return nil, wrapErr(err, query)
		}
		cp.kind, cp.sel = planKindSelect, ps
	case *sql.InsertStmt:
		pd, err := db.planner.PrepareInsert(s)
		if err != nil {
			return nil, wrapErr(err, query)
		}
		cp.kind, cp.dml = planKindDML, pd
	case *sql.UpdateStmt:
		pd, err := db.planner.PrepareUpdate(s)
		if err != nil {
			return nil, wrapErr(err, query)
		}
		cp.kind, cp.dml = planKindDML, pd
	case *sql.DeleteStmt:
		pd, err := db.planner.PrepareDelete(s)
		if err != nil {
			return nil, wrapErr(err, query)
		}
		cp.kind, cp.dml = planKindDML, pd
	case *sql.MergeStmt:
		pd, err := db.planner.PrepareMerge(s)
		if err != nil {
			return nil, wrapErr(err, query)
		}
		cp.kind, cp.dml = planKindDML, pd
	default:
		cp.kind, cp.stmt = planKindDDL, st
	}
	db.parseDurNs.Add(int64(time.Since(t0)))
	if cp.kind != planKindDDL {
		db.planMisses.Add(1)
		db.plans.put(key, cp)
	}
	return cp, nil
}

// planFor resolves the plan for a call: through the Stmt's pinned entry
// (prepared-statement fast path) or by text.
func (db *DB) planFor(st *Stmt, query string) (*cachedPlan, error) {
	if st != nil {
		return st.current()
	}
	return db.plan(query)
}

// Exec runs one statement, returning the SQLCA-style affected-row count.
// DML runs under the shared facade latch plus the plan's table locks, so
// mutations of disjoint tables proceed concurrently with each other and
// with queries; DDL takes the exclusive latch (draining every in-flight
// statement) and bumps the schema epoch, invalidating every cached plan.
func (db *DB) Exec(query string, args ...any) (exec.Result, error) {
	return db.execText(query, nil, args)
}

func (db *DB) execText(query string, st *Stmt, args []any) (exec.Result, error) {
	db.mu.RLock()
	if db.closed {
		db.mu.RUnlock()
		return exec.Result{}, fmt.Errorf("rdb: database is closed")
	}
	params, err := convertArgs(args)
	if err != nil {
		db.mu.RUnlock()
		return exec.Result{}, err
	}
	cp, err := db.planFor(st, query)
	if err != nil {
		db.mu.RUnlock()
		return exec.Result{}, err
	}
	if cp.nparams != len(params) {
		db.mu.RUnlock()
		return exec.Result{}, fmt.Errorf("rdb: statement has %d placeholders, %d arguments bound\n  in: %s",
			cp.nparams, len(params), query)
	}
	switch cp.kind {
	case planKindSelect:
		db.mu.RUnlock()
		return exec.Result{}, fmt.Errorf("rdb: use Query for SELECT")
	case planKindDML:
		db.stmts.Add(1)
		t1 := time.Now()
		unlock := db.lockPlanTables(cp)
		res, err := cp.dml.Run(params)
		unlock()
		db.mu.RUnlock()
		db.execDurNs.Add(int64(time.Since(t1)))
		return res, wrapErr(err, query)
	}
	// DDL: re-enter on the exclusive side. The parsed statement resolves
	// catalog names at execution time, so the plan cannot go stale across
	// the latch upgrade.
	db.mu.RUnlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return exec.Result{}, fmt.Errorf("rdb: database is closed")
	}
	db.stmts.Add(1)
	t1 := time.Now()
	defer func() { db.execDurNs.Add(int64(time.Since(t1))) }()
	res, err := db.execDDL(cp.stmt)
	if err == nil {
		// The catalog changed shape: every cached plan may now reference
		// dropped or rebuilt storage, so the epoch moves and entries
		// invalidate lazily on their next lookup.
		db.epoch.Add(1)
	}
	return res, wrapErr(err, query)
}

// execDDL dispatches a schema statement; callers hold the exclusive latch
// and bump the epoch on success.
func (db *DB) execDDL(st sql.Statement) (exec.Result, error) {
	switch s := st.(type) {
	case *sql.CreateTableStmt:
		return exec.Result{}, db.planner.ExecCreateTable(s)
	case *sql.CreateIndexStmt:
		return exec.Result{}, db.planner.ExecCreateIndex(s)
	case *sql.DropTableStmt:
		return exec.Result{}, db.planner.ExecDropTable(s)
	}
	return exec.Result{}, fmt.Errorf("rdb: unsupported statement %T", st)
}

func wrapErr(err error, query string) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w\n  in: %s", err, query)
}

// Query runs a SELECT, materializing the result. SELECTs take the shared
// facade latch plus read locks on the plan's tables, so sessions can read
// concurrently (and concurrently with DML over other tables); repeated
// texts reuse their compiled plan (each execution gets a private instance).
func (db *DB) Query(query string, args ...any) (*Rows, error) {
	return db.queryText(query, nil, args)
}

func (db *DB) queryText(query string, st *Stmt, args []any) (*Rows, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, fmt.Errorf("rdb: database is closed")
	}
	params, err := convertArgs(args)
	if err != nil {
		return nil, err
	}
	cp, err := db.planFor(st, query)
	if err != nil {
		return nil, err
	}
	if cp.kind != planKindSelect {
		return nil, fmt.Errorf("rdb: Query requires a SELECT statement")
	}
	if cp.nparams != len(params) {
		return nil, fmt.Errorf("rdb: statement has %d placeholders, %d arguments bound\n  in: %s",
			cp.nparams, len(params), query)
	}
	db.stmts.Add(1)
	t1 := time.Now()
	unlock := db.lockPlanTables(cp)
	rows, err := cp.sel.Run(params)
	unlock()
	db.execDurNs.Add(int64(time.Since(t1)))
	if err != nil {
		return nil, wrapErr(err, query)
	}
	return &Rows{Columns: cp.sel.Columns(), Data: rows}, nil
}

// QueryInt runs a single-value query; null reports a NULL (or empty) result.
func (db *DB) QueryInt(query string, args ...any) (v int64, null bool, err error) {
	rows, err := db.Query(query, args...)
	if err != nil {
		return 0, false, err
	}
	return intFromRows(rows)
}

// intFromRows extracts the single INT value of a scalar query result.
func intFromRows(rows *Rows) (v int64, null bool, err error) {
	if rows.Len() == 0 {
		return 0, true, nil
	}
	val := rows.Data[0][0]
	return val.I, val.Null, nil
}
