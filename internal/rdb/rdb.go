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
// cached plans. A caller that wants its statements refused once it has
// disconnected opens a Session (see session.go).
package rdb

import (
	"fmt"
	"strings"
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

// ProfileSQL92 models a pre-2003 system with neither feature: the paper's
// traditional SQL (TSQL) baseline of Fig 6(d) and Fig 9(f).
var ProfileSQL92 = Profile{Name: "SQL92"}

// Options configures an engine instance.
type Options struct {
	// Path locates the backing file; empty means an in-memory page store.
	// The temp space (TEMPORARY tables) lives in an unlinked file beside
	// it, or in memory when it is empty.
	Path string
	// BufferPoolPages bounds the cache (default 4096 pages = 32 MiB).
	BufferPoolPages int
	// SimulatedIOLatency is charged per physical page transfer to model
	// spinning-disk cost in buffer-size experiments. Zero for most runs.
	SimulatedIOLatency time.Duration
	// Profile selects the emulated DBMS feature set (default DBMS-X).
	Profile Profile
}

// Stats aggregates engine activity since Open; phases are read as deltas.
// SessionStatements is the subset of Statements issued through Session
// handles, and ActiveSessions / SessionsOpened count the handles.
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
	// Relations is the pool's traffic by relation name: every fetch, miss
	// and flush of a page charged to the table that held the page then,
	// under the table's name for its clustered tree or heap and under
	// "table.index" for each secondary index. A name counts from the first
	// table or index created under it and keeps counting across a drop and
	// re-create.
	Relations map[string]storage.PageCounts
	// IO is the database file's disk manager's; Temp the temp space's.
	IO   storage.IOStats
	Temp TempStats
}

// TempStats describes the temp space, where TEMPORARY tables keep their
// pages: its disk manager's transfers and the pages it has allocated (its
// high-water mark; freed ones go on its own free list).
type TempStats struct {
	IO    storage.IOStats
	Pages int
}

// DB is one embedded database instance. Queries and DML run concurrently
// under the shared side of the facade latch, serialized per table by the
// plan's table-lock set; DDL is exclusive.
type DB struct {
	mu      sync.RWMutex
	disk    storage.DiskManager // the database file
	temp    storage.DiskManager // the temp space
	pool    *storage.BufferPool
	cat     *table.Catalog
	planner *exec.Planner
	profile Profile

	// tlocks maps lowercase table name → its RW lock; tlMu guards the map
	// itself. Entries persist for the life of the DB (names recycle).
	tlMu   sync.Mutex
	tlocks map[string]*sync.RWMutex

	// plans caches compiled statements by text (plancache.go), under
	// planMu. epoch is the schema generation entries are validated
	// against (bumped by DDL under the exclusive latch).
	planMu sync.RWMutex
	plans  map[string]*cachedPlan
	epoch  atomic.Uint64

	// Counters are atomics because the read path updates them while
	// holding only the shared latch.
	stmts           atomic.Uint64
	parseDurNs      atomic.Int64
	execDurNs       atomic.Int64
	sessionsOpened  atomic.Uint64
	sessionsActive  atomic.Int64
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
	var disk, temp storage.DiskManager
	if opts.Path == "" {
		disk = storage.NewMemDiskManager(opts.SimulatedIOLatency)
		temp = storage.NewMemDiskManager(opts.SimulatedIOLatency)
	} else {
		fd, err := storage.NewFileDiskManager(opts.Path, opts.SimulatedIOLatency)
		if err != nil {
			return nil, err
		}
		ft, err := storage.NewSpillDiskManager(opts.Path+".temp", opts.SimulatedIOLatency)
		if err != nil {
			fd.Close()
			return nil, err
		}
		disk, temp = fd, ft
	}
	pool := storage.NewBufferPoolWithTemp(disk, temp, opts.BufferPoolPages)
	cat := table.NewCatalog(pool)
	db := &DB{
		disk:    disk,
		temp:    temp,
		pool:    pool,
		cat:     cat,
		planner: exec.NewPlanner(cat),
		profile: opts.Profile,
		tlocks:  make(map[string]*sync.RWMutex),
		plans:   make(map[string]*cachedPlan),
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
	terr := db.temp.Close()
	if err := db.disk.Close(); err != nil {
		return err
	}
	return terr
}

// SetSimulatedIOLatency changes the per-page-transfer simulated latency at
// runtime. Benchmarks open with zero latency for the load/index phase and
// arm the seek cost only for the measured phase.
func (db *DB) SetSimulatedIOLatency(lat time.Duration) {
	db.disk.SetLatency(lat)
	db.temp.SetLatency(lat)
}

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
		SessionsOpened:         db.sessionsOpened.Load(),
		ActiveSessions:         db.sessionsActive.Load(),
		SessionStatements:      db.sessionStmts.Load(),
		PlanCacheHits:          db.planHits.Load(),
		PlanCacheMisses:        db.planMisses.Load(),
		PlanCacheInvalidations: db.planInvalidated.Load(),
		PlanCacheEntries:       db.planEntries(),
		SchemaEpoch:            db.epoch.Load(),
		Pool:                   db.pool.Stats(),
		Relations:              db.pool.OwnerStats(),
		IO:                     db.disk.Stats(),
		Temp:                   TempStats{IO: db.temp.Stats(), Pages: db.temp.NumPages()},
	}
}

// CheckPages verifies the page invariant under the exclusive latch, in each
// of the two page spaces: every id in [0, NumPages) of the database file
// or of the temp space is in exactly one live table's page list of that
// space or on that space's free list, and a table's pages are all in its
// space (a durable table holds no temp page, a TEMPORARY one no database
// page). It reports a page in the wrong space, one owned twice, or the
// pages nothing owns (leaked by a Free that found the page held, or
// abandoned).
func (db *DB) CheckPages() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	var tables []pageList
	for _, name := range db.cat.Names() {
		t, _ := db.cat.Get(name)
		tables = append(tables, pageList{name: name, temp: t.Temp(), ids: t.Pages()})
	}
	return checkPages(tables, db.pool.FreePages(), [2]int{db.disk.NumPages(), db.temp.NumPages()})
}

// pageList is the pages one table holds, and the space it belongs in.
type pageList struct {
	name string
	temp bool
	ids  []storage.PageID
}

// checkPages is CheckPages over the tables' page lists, the ids on the
// free lists and each space's page count (the database's, then the temp
// space's).
func checkPages(tables []pageList, free []storage.PageID, sizes [2]int) error {
	spaces := [2]string{"database", "temp"}
	owner := [2][]string{make([]string, sizes[0]), make([]string, sizes[1])}
	own := func(who string, id storage.PageID) error {
		sp, n := 0, id
		if id.Temp() {
			sp, n = 1, id&^storage.TempBit
		}
		switch {
		case int(n) >= len(owner[sp]):
			return fmt.Errorf("rdb: %s holds page %d of a %d-page %s space", who, n, len(owner[sp]), spaces[sp])
		case owner[sp][n] != "":
			return fmt.Errorf("rdb: %s page %d is in both %s and %s", spaces[sp], n, owner[sp][n], who)
		}
		owner[sp][n] = who
		return nil
	}
	for _, id := range free {
		if err := own("the free list", id); err != nil {
			return err
		}
	}
	for _, t := range tables {
		for _, id := range t.ids {
			if id.Temp() != t.temp {
				kind, space := "durable", "temp"
				if t.temp {
					kind, space = "temporary", "database"
				}
				return fmt.Errorf("rdb: %s table %s holds %s page %#x", kind, t.name, space, id)
			}
			if err := own(t.name, id); err != nil {
				return err
			}
		}
	}
	for sp, owner := range owner {
		var leaked []int
		for id, who := range owner {
			if who == "" {
				leaked = append(leaked, id)
			}
		}
		if len(leaked) > 0 {
			return fmt.Errorf("rdb: %d of %d %s pages in no table and not free: %v", len(leaked), len(owner), spaces[sp], leaked)
		}
	}
	return nil
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

// Exec runs one statement, returning the SQLCA-style affected-row count.
// DML runs under the shared facade latch plus the plan's table locks, so
// mutations of disjoint tables proceed concurrently with each other and
// with queries; DDL takes the exclusive latch (draining every in-flight
// statement) and bumps the schema epoch, invalidating every cached plan.
func (db *DB) Exec(query string, args ...any) (exec.Result, error) {
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
	cp, err := db.plan(query)
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
		lockTables(cp.locks)
		res, err := cp.dml.Run(params)
		unlockTables(cp.locks)
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

// Pack packs the clustered leaves of table name that hold the rows whose
// leading key column lies in [lo, hi) (table.Table.Pack), holding the
// table as a statement that writes it does. An index build calls it after a
// bulk merge into the table.
func (db *DB) Pack(name string, lo, hi int64) error {
	return db.pack(name, func(t *table.Table) error { return t.Pack(lo, hi) })
}

// PackIndexes packs every leaf of table name's secondary indexes
// (table.Table.PackIndexes), as Pack does the clustered leaves.
func (db *DB) PackIndexes(name string) error { return db.pack(name, (*table.Table).PackIndexes) }

// pack runs fn on table name, holding it as a statement that writes it does.
func (db *DB) pack(name string, fn func(*table.Table) error) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return fmt.Errorf("rdb: database is closed")
	}
	t, ok := db.cat.Get(name)
	if !ok {
		return fmt.Errorf("rdb: no table %q", name)
	}
	l := db.tableLock(strings.ToLower(name))
	l.Lock()
	defer l.Unlock()
	return fn(t)
}

// Truncate empties the tables names (table.Table.Truncate), holding each
// as a statement that writes it does: every structure keeps its first page
// and returns the rest to its space's free list. Like Pack it counts as no
// statement; an index build calls it on its working set before it returns.
func (db *DB) Truncate(names ...string) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return fmt.Errorf("rdb: database is closed")
	}
	for _, name := range names {
		t, ok := db.cat.Get(name)
		if !ok {
			return fmt.Errorf("rdb: no table %q", name)
		}
		l := db.tableLock(strings.ToLower(name))
		l.Lock()
		err := t.Truncate()
		l.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
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
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, fmt.Errorf("rdb: database is closed")
	}
	params, err := convertArgs(args)
	if err != nil {
		return nil, err
	}
	cp, err := db.plan(query)
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
	lockTables(cp.locks)
	rows, err := cp.sel.Run(params)
	unlockTables(cp.locks)
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
