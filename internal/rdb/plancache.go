package rdb

import (
	"container/list"
	"sync"

	"repro/internal/exec"
	"repro/internal/sql"
)

// The plan cache removes parse→plan from the statement hot path. The
// paper's FEM loops issue the same handful of statement shapes thousands
// of times per query with only the bound values changing; a 2011-era JDBC
// client amortized that through PreparedStatement, and the engine does the
// same transparently: every Exec/Query first consults a cache keyed by
// (SQL text, profile) whose entries are compiled plans tagged with the
// schema epoch they were built against.
//
// Invalidation is epoch-based: every DDL statement (CREATE/DROP,
// including LoadGraph's table rebuild) bumps the catalog epoch, and a
// cached plan from an older epoch is discarded on its next lookup instead
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

// planKey identifies a cache entry. The profile is part of the key because
// statement compilation is profile-dependent (MERGE and window-function
// availability): a plan compiled under DBMS-X must never answer for a
// PostgreSQL 9.0 text even if an embedding ever shared a cache.
type planKey struct {
	text    string
	profile string
}

// planCache is a bounded LRU of compiled plans. It carries its own latch:
// lookups happen under the DB's shared read latch, so any number of
// sessions may hit it concurrently.
type planCache struct {
	mu    sync.Mutex
	cap   int
	lru   list.List // of *planElem, front = most recently used
	byKey map[planKey]*list.Element
}

type planElem struct {
	key planKey
	cp  *cachedPlan
}

func newPlanCache(capacity int) *planCache {
	return &planCache{cap: capacity, byKey: make(map[planKey]*list.Element)}
}

// get returns the cached plan for key if it exists and was compiled at the
// given epoch. stale reports that an entry existed but belonged to an older
// epoch (it is removed — the caller counts an invalidation).
func (c *planCache) get(key planKey, epoch uint64) (cp *cachedPlan, stale bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	pe := el.Value.(*planElem)
	if pe.cp.epoch != epoch {
		c.lru.Remove(el)
		delete(c.byKey, key)
		return nil, true
	}
	c.lru.MoveToFront(el)
	return pe.cp, false
}

// put inserts (or replaces) a compiled plan, evicting the least recently
// used entries past capacity.
func (c *planCache) put(key planKey, cp *cachedPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*planElem).cp = cp
		c.lru.MoveToFront(el)
		return
	}
	c.byKey[key] = c.lru.PushFront(&planElem{key: key, cp: cp})
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.byKey, back.Value.(*planElem).key)
	}
}

// size reports the live entry count.
func (c *planCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
