package rdb

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestPlanCacheHitCounters checks that repeated texts reuse their compiled
// plan: one miss per distinct text, a hit per re-execution, and bound
// arguments still vary per call.
func TestPlanCacheHitCounters(t *testing.T) {
	db := openDB(t, Options{})
	seedPeople(t, db)
	base := db.Stats()

	const q = "SELECT id FROM people WHERE age = ?"
	want := map[int64]int{30: 2, 25: 2, 40: 1}
	for round := 0; round < 3; round++ {
		for age, n := range want {
			rows := mustQuery(t, db, q, age)
			if rows.Len() != n {
				t.Fatalf("age %d: got %d rows, want %d", age, rows.Len(), n)
			}
		}
	}
	st := db.Stats()
	misses := st.PlanCacheMisses - base.PlanCacheMisses
	hits := st.PlanCacheHits - base.PlanCacheHits
	if misses != 1 {
		t.Errorf("expected 1 plan-cache miss for one text, got %d", misses)
	}
	if hits != 8 {
		t.Errorf("expected 8 plan-cache hits (9 executions - 1 compile), got %d", hits)
	}
	if st.PlanCacheEntries == 0 {
		t.Error("expected live plan-cache entries")
	}
}

// TestPreparedStatementReuse drives an explicit Stmt handle through both
// read and write shapes, including multiplied parameters in UPDATE
// set/where arithmetic ("d2s-style" bind slots).
func TestPreparedStatementReuse(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TABLE v (nid INT PRIMARY KEY, d2s INT, f INT)")
	ins, err := db.Prepare("INSERT INTO v (nid, d2s, f) VALUES (?, ?, 0)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := ins.Exec(int64(i), int64(10*i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	// Parameter arithmetic in both the SET and WHERE clauses: the k*lthd
	// idiom of the BSEG frontier, bound as two values each.
	upd, err := db.Prepare("UPDATE v SET f = ? * ? WHERE d2s <= ? * ?")
	if err != nil {
		t.Fatal(err)
	}
	res, err := upd.Exec(int64(1), int64(2), int64(3), int64(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 4 { // d2s in {0,10,20,30}
		t.Fatalf("update affected %d rows, want 4", res.RowsAffected)
	}
	sel, err := db.Prepare("SELECT COUNT(*) FROM v WHERE f = ? * ?")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		n, null, err := sel.QueryInt(int64(1), int64(2))
		if err != nil || null {
			t.Fatalf("select: n=%d null=%v err=%v", n, null, err)
		}
		if n != 4 {
			t.Fatalf("got %d rows with f=2, want 4", n)
		}
	}
	// Re-running the update must keep counting matched rows (SQL counts
	// matches even when values are unchanged) — the plan is re-executed,
	// not replayed.
	res, err = upd.Exec(int64(1), int64(2), int64(3), int64(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 4 {
		t.Fatalf("re-run affected %d rows, want 4", res.RowsAffected)
	}
}

// TestPlanCacheInvalidationOnDDL is the dropped-heapfile safety test: a
// cached plan (pinned by a Stmt and cached by text) must never touch a
// dropped table's storage. After DROP + CREATE of the same name, both the
// Stmt and the text-cached path must re-compile against the new catalog
// entry and see the new rows.
func TestPlanCacheInvalidationOnDDL(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TABLE g (id INT PRIMARY KEY, v INT)")
	mustExec(t, db, "INSERT INTO g (id, v) VALUES (1, 100)")

	sel, err := db.Prepare("SELECT v FROM g WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	if v, _, err := sel.QueryInt(int64(1)); err != nil || v != 100 {
		t.Fatalf("before DDL: v=%d err=%v", v, err)
	}
	// Also warm the text-keyed path.
	mustQuery(t, db, "SELECT v FROM g WHERE id = ?", int64(1))

	base := db.Stats()
	mustExec(t, db, "DROP TABLE g")
	mustExec(t, db, "CREATE TABLE g (id INT PRIMARY KEY, v INT)")
	mustExec(t, db, "INSERT INTO g (id, v) VALUES (1, 777)")

	if st := db.Stats(); st.SchemaEpoch <= base.SchemaEpoch {
		t.Fatalf("schema epoch did not advance across DDL: %d -> %d", base.SchemaEpoch, st.SchemaEpoch)
	}
	if v, _, err := sel.QueryInt(int64(1)); err != nil || v != 777 {
		t.Fatalf("stmt after DDL: v=%d err=%v (stale plan touched dropped storage?)", v, err)
	}
	if v, _, err := db.QueryInt("SELECT v FROM g WHERE id = ?", int64(1)); err != nil || v != 777 {
		t.Fatalf("text path after DDL: v=%d err=%v", v, err)
	}
	if st := db.Stats(); st.PlanCacheInvalidations == base.PlanCacheInvalidations {
		t.Error("expected plan-cache invalidations after DDL, counter unchanged")
	}

	// A whole-table DELETE resets the table's storage in place, but it is
	// DML: no epoch bump, and the pinned plan reads the emptied table.
	pre := db.Stats().SchemaEpoch
	mustExec(t, db, "DELETE FROM g")
	if st := db.Stats(); st.SchemaEpoch != pre {
		t.Error("DELETE bumped the schema epoch")
	}
	if v, null, err := sel.QueryInt(int64(1)); err != nil || !null {
		t.Fatalf("after DELETE: v=%d null=%v err=%v", v, null, err)
	}
}

// TestPlanCacheProfileKeying checks the cache key includes the profile: a
// plan compiled under one profile must not answer for another even if a
// cache were ever shared across them.
func TestPlanCacheProfileKeying(t *testing.T) {
	c := newPlanCache(8)
	cp := &cachedPlan{kind: planKindSelect, epoch: 0}
	c.put(planKey{text: "SELECT 1", profile: ProfileDBMSX.Name}, cp)
	if got, _ := c.get(planKey{text: "SELECT 1", profile: ProfilePostgreSQL9.Name}, 0); got != nil {
		t.Fatal("PostgreSQL9 lookup returned a DBMS-X plan: profile is not part of the key")
	}
	if got, _ := c.get(planKey{text: "SELECT 1", profile: ProfileDBMSX.Name}, 0); got != cp {
		t.Fatal("same-profile lookup missed")
	}
	// Stale-epoch entries invalidate instead of hitting.
	if got, stale := c.get(planKey{text: "SELECT 1", profile: ProfileDBMSX.Name}, 1); got != nil || !stale {
		t.Fatalf("epoch-1 lookup: got=%v stale=%v, want nil/true", got, stale)
	}

	// End-to-end: the MERGE substitution paths compile independently per
	// profile — PostgreSQL 9.0 refuses MERGE at prepare time even though a
	// DBMS-X engine happily caches the same text.
	dbx := openDB(t, Options{Profile: ProfileDBMSX})
	pg := openDB(t, Options{Profile: ProfilePostgreSQL9})
	for _, db := range []*DB{dbx, pg} {
		mustExec(t, db, "CREATE TABLE m (id INT PRIMARY KEY, v INT)")
		mustExec(t, db, "CREATE TABLE src (id INT PRIMARY KEY, v INT)")
	}
	const mergeQ = "MERGE INTO m AS target USING src AS source ON (target.id = source.id) " +
		"WHEN MATCHED AND target.v > source.v THEN UPDATE SET v = source.v " +
		"WHEN NOT MATCHED THEN INSERT (id, v) VALUES (source.id, source.v)"
	if _, err := dbx.Prepare(mergeQ); err != nil {
		t.Fatalf("DBMS-X prepare MERGE: %v", err)
	}
	if _, err := pg.Prepare(mergeQ); err == nil || !strings.Contains(err.Error(), "MERGE") {
		t.Fatalf("PostgreSQL9 prepare MERGE: err=%v, want feature rejection", err)
	}
}

// TestPlanCacheLRUEviction bounds the cache: unbounded unique texts (the
// bulk loader's VALUES batches) must not grow it past capacity.
func TestPlanCacheLRUEviction(t *testing.T) {
	db := openDB(t, Options{PlanCacheSize: 4})
	seedPeople(t, db)
	for i := 0; i < 32; i++ {
		mustQuery(t, db, fmt.Sprintf("SELECT id FROM people WHERE age = %d", 20+i))
	}
	if n := db.Stats().PlanCacheEntries; n > 4 {
		t.Fatalf("cache grew to %d entries past capacity 4", n)
	}
	// There is no uncached mode: the size is a bound, not a switch.
	if bad, err := Open(Options{PlanCacheSize: -1}); err == nil {
		bad.Close()
		t.Fatal("Open accepted a negative PlanCacheSize")
	}
}

// TestConcurrentSessionsSharedStatement is the -race test for shared plan
// execution: many sessions prepare and execute the same statement texts
// concurrently — including a correlated-subquery shape whose per-execution
// state (plan instances, memoized subquery results) must live in the
// execution context, not the shared compiled plan — while writers churn
// the table through a prepared DML handle.
func TestConcurrentSessionsSharedStatement(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TABLE c (id INT PRIMARY KEY, grp INT, v INT)")
	for i := 0; i < 64; i++ {
		mustExec(t, db, "INSERT INTO c (id, grp, v) VALUES (?, ?, ?)",
			int64(i), int64(i%4), int64(i))
	}
	const (
		readers    = 8
		iterations = 40
	)
	// A shape with an uncorrelated scalar subquery (memoized per
	// execution) plus a parameter.
	const subQ = "SELECT COUNT(*) FROM c WHERE v >= (SELECT MIN(v) FROM c) AND grp = ?"
	const aggQ = "SELECT MAX(v) FROM c WHERE grp = ?"

	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sess := db.Session()
			defer sess.Close()
			sub, err := sess.Prepare(subQ)
			if err != nil {
				errs <- err
				return
			}
			agg, err := sess.Prepare(aggQ)
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < iterations; i++ {
				grp := int64((r + i) % 4)
				if n, null, err := sub.QueryInt(grp); err != nil || null || n < 1 {
					errs <- fmt.Errorf("reader %d sub: n=%d null=%v err=%v", r, n, null, err)
					return
				}
				if _, _, err := agg.QueryInt(grp); err != nil {
					errs <- fmt.Errorf("reader %d agg: %v", r, err)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess := db.Session()
		defer sess.Close()
		upd, err := sess.Prepare("UPDATE c SET v = v + ? WHERE grp = ?")
		if err != nil {
			errs <- err
			return
		}
		for i := 0; i < iterations; i++ {
			if _, err := upd.Exec(int64(1), int64(i%4)); err != nil {
				errs <- fmt.Errorf("writer: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := db.Stats(); st.PlanCacheHits == 0 {
		t.Error("expected shared-statement executions to hit the plan cache")
	}
}
