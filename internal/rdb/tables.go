package rdb

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/sql"
)

// Per-statement table locking.
//
// The facade used to run every mutating statement under the exclusive side
// of db.mu, which serialized all DML — including the frontier/visited
// scribbling of concurrent read-only searches that write disjoint private
// scratch tables. Statement compilation now extracts the set of tables a
// plan reads and writes; execution takes db.mu shared (DDL still exclusive)
// plus per-table RW locks in a canonical order, so statements touching
// disjoint tables run fully in parallel while two writers of the same table
// still serialize.
//
// The lock order is global — db.mu first, then table locks sorted by name —
// which makes the scheme deadlock-free: no statement ever acquires a lower-
// ordered lock while holding a higher-ordered one.

// tableLockSpec names one table a compiled plan touches and the mode its
// execution needs. Specs are sorted by name with write subsuming read.
type tableLockSpec struct {
	name  string
	write bool
}

// stmtLockSpecs derives the sorted table-lock set for a parsed statement.
// DDL returns nil: schema changes run under the exclusive facade latch.
func stmtLockSpecs(st sql.Statement) []tableLockSpec {
	c := &tableSetCollector{mode: map[string]bool{}}
	switch s := st.(type) {
	case *sql.SelectStmt:
		c.selectStmt(s)
	case *sql.InsertStmt:
		c.add(s.Table, true)
		for _, row := range s.Rows {
			for _, e := range row {
				c.expr(e)
			}
		}
		if s.Select != nil {
			c.selectStmt(s.Select)
		}
	case *sql.UpdateStmt:
		c.add(s.Table, true)
		for _, set := range s.Sets {
			c.expr(set.Val)
		}
		if s.From != nil {
			c.tableRef(s.From)
		}
		c.expr(s.Where)
	case *sql.DeleteStmt:
		c.add(s.Table, true)
		c.expr(s.Where)
	case *sql.MergeStmt:
		c.add(s.Target, true)
		c.tableRef(s.Source)
		c.expr(s.On)
		for _, m := range s.Matched {
			c.expr(m.And)
			for _, set := range m.Sets {
				c.expr(set.Val)
			}
		}
		if nm := s.NotMatched; nm != nil {
			for _, v := range nm.Vals {
				c.expr(v)
			}
		}
	default:
		return nil
	}
	specs := make([]tableLockSpec, 0, len(c.mode))
	for name, write := range c.mode {
		specs = append(specs, tableLockSpec{name: name, write: write})
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].name < specs[j].name })
	return specs
}

// tableSetCollector accumulates table → needs-write-lock while walking a
// statement. Names are lowercased: the catalog is case-insensitive.
type tableSetCollector struct {
	mode map[string]bool
}

func (c *tableSetCollector) add(name string, write bool) {
	if name == "" {
		return
	}
	name = strings.ToLower(name)
	c.mode[name] = c.mode[name] || write
}

func (c *tableSetCollector) tableRef(fr *sql.TableRef) {
	if fr == nil {
		return
	}
	if fr.Sub != nil {
		c.selectStmt(fr.Sub)
		return
	}
	c.add(fr.Table, false)
}

func (c *tableSetCollector) selectStmt(s *sql.SelectStmt) {
	if s == nil {
		return
	}
	c.expr(s.Top)
	for _, it := range s.Items {
		c.expr(it)
	}
	for _, fr := range s.From {
		c.tableRef(fr)
	}
	c.expr(s.Where)
	for _, e := range s.GroupBy {
		c.expr(e)
	}
	c.expr(s.Having)
}

func (c *tableSetCollector) expr(e sql.Expr) {
	switch ex := e.(type) {
	case *sql.Binary:
		c.expr(ex.L)
		c.expr(ex.R)
	case *sql.FuncCall:
		c.expr(ex.Arg)
		if ex.Window != nil {
			for _, p := range ex.Window.PartitionBy {
				c.expr(p)
			}
			for _, o := range ex.Window.OrderBy {
				c.expr(o)
			}
		}
	case *sql.Subquery:
		c.selectStmt(ex.Select)
	case *sql.Exists:
		c.selectStmt(ex.Select)
	}
}

// tableLock returns (creating on first use) the RW lock for a table name.
// Entries are never deleted: scratch-table ids are recycled by the layer
// above, so the map stays bounded by the distinct names ever used.
func (db *DB) tableLock(name string) *sync.RWMutex {
	db.tlMu.Lock()
	l, ok := db.tlocks[name]
	if !ok {
		l = &sync.RWMutex{}
		db.tlocks[name] = l
	}
	db.tlMu.Unlock()
	return l
}

// lockPlanTables acquires the plan's table locks in canonical order and
// returns the matching release. Callers hold db.mu (shared).
func (db *DB) lockPlanTables(cp *cachedPlan) func() {
	specs := cp.locks
	if len(specs) == 0 {
		return func() {}
	}
	held := make([]*sync.RWMutex, len(specs))
	for i, sp := range specs {
		l := db.tableLock(sp.name)
		if sp.write {
			l.Lock()
		} else {
			l.RLock()
		}
		held[i] = l
	}
	return func() {
		for i := len(specs) - 1; i >= 0; i-- {
			if specs[i].write {
				held[i].Unlock()
			} else {
				held[i].RUnlock()
			}
		}
	}
}
