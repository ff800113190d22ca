package rdb

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/record"
	"repro/internal/table"
)

func openDB(t *testing.T, opts Options) *DB {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func mustExec(t *testing.T, db *DB, q string, args ...any) int64 {
	t.Helper()
	res, err := db.Exec(q, args...)
	if err != nil {
		t.Fatalf("exec %q: %v", q, err)
	}
	return res.RowsAffected
}

func mustQuery(t *testing.T, db *DB, q string, args ...any) *Rows {
	t.Helper()
	rows, err := db.Query(q, args...)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	return rows
}

// ordered sorts a result by its columns, left to right (NULL first): the
// dialect has no ORDER BY, so a test that wants an order imposes it.
func ordered(rows *Rows) *Rows {
	sort.SliceStable(rows.Data, func(i, j int) bool {
		for c := range rows.Data[i] {
			if d := record.Compare(rows.Data[i][c], rows.Data[j][c]); d != 0 {
				return d < 0
			}
		}
		return false
	})
	return rows
}

// mustReject checks that q, which uses a construct outside the dialect, is
// refused with an error that names tok and quotes the statement, by Exec and
// by Query alike, and that the database still answers afterwards.
func mustReject(t *testing.T, db *DB, q, tok string) {
	t.Helper()
	_, execErr := db.Exec(q)
	_, queryErr := db.Query(q)
	for _, err := range []error{execErr, queryErr} {
		if err == nil || !strings.Contains(err.Error(), tok) || !strings.Contains(err.Error(), "in: "+q) {
			t.Fatalf("%s: want an error naming %s and the statement, got %v", q, tok, err)
		}
	}
	if rows := mustQuery(t, db, "SELECT 1"); rows.Len() != 1 {
		t.Fatalf("database unusable after a rejected statement: %v", rows.Data)
	}
}

// The cities of seedPeople.
const (
	berlin = 1
	paris  = 2
	tokyo  = 3
)

// seedPeople creates a small table used by many tests.
func seedPeople(t *testing.T, db *DB) {
	t.Helper()
	mustExec(t, db, "CREATE TABLE people (id INT PRIMARY KEY, age INT, city INT, score INT)")
	mustExec(t, db, `INSERT INTO people (id, age, city, score) VALUES
		(1, 30, ?, 15), (2, 25, ?, 25), (3, 30, ?, 35), (4, 40, ?, 45), (5, 25, ?, 5)`,
		berlin, paris, berlin, tokyo, paris)
}

func TestCreateInsertSelect(t *testing.T) {
	db := openDB(t, Options{})
	seedPeople(t, db)
	rows := mustQuery(t, db, "SELECT id, age FROM people WHERE city = ?", berlin)
	if rows.Len() != 2 {
		t.Fatalf("expected 2 rows, got %d", rows.Len())
	}
	if rows.Data[0][0].I != 1 || rows.Data[1][0].I != 3 {
		t.Fatalf("wrong ids: %v", rows.Data)
	}
	if rows.Columns[0] != "id" || rows.Columns[1] != "age" {
		t.Fatalf("wrong column names: %v", rows.Columns)
	}
}

// TestSelectStar: a projection names its columns; * is outside the dialect.
func TestSelectStar(t *testing.T) {
	db := openDB(t, Options{})
	seedPeople(t, db)
	mustReject(t, db, "SELECT * FROM people WHERE id = 4", `"*"`)
	rows := mustQuery(t, db, "SELECT id, age, city, score FROM people WHERE id = 4")
	if rows.Len() != 1 || len(rows.Data[0]) != 4 || rows.Data[0][2].I != tokyo {
		t.Fatalf("unexpected: %v", rows.Data)
	}
}

func TestParams(t *testing.T) {
	db := openDB(t, Options{})
	seedPeople(t, db)
	rows := mustQuery(t, db, "SELECT id FROM people WHERE age = ? AND city = ?", 25, paris)
	if rows.Len() != 2 {
		t.Fatalf("expected 2 rows, got %d", rows.Len())
	}
	if _, err := db.Query("SELECT id FROM people WHERE age = ?"); err == nil {
		t.Fatal("missing parameter should error")
	}
}

// TestOrderByDesc: there is no statement-level ORDER BY; a scan returns
// storage order — key order for a clustered table — and a client that wants
// another order sorts the rows it got.
func TestOrderByDesc(t *testing.T) {
	db := openDB(t, Options{})
	seedPeople(t, db)
	mustReject(t, db, "SELECT id FROM people ORDER BY age DESC, id ASC", `"ORDER"`)
	rows := mustQuery(t, db, "SELECT id FROM people")
	for i, r := range rows.Data {
		if r[0].I != int64(i+1) {
			t.Fatalf("clustered scan out of key order: %v", rows.Data)
		}
	}
}

func TestTopAndLimit(t *testing.T) {
	db := openDB(t, Options{})
	seedPeople(t, db)
	rows := mustQuery(t, db, "SELECT TOP 2 id FROM people")
	if rows.Len() != 2 || rows.Data[0][0].I != 1 {
		t.Fatalf("TOP failed: %v", rows.Data)
	}
	rows = mustQuery(t, db, "SELECT TOP ? id FROM people", 3)
	if rows.Len() != 3 {
		t.Fatalf("parameterized TOP failed: %v", rows.Data)
	}
	if _, err := db.Query("SELECT TOP ? id FROM people", nil); err == nil {
		t.Fatal("TOP NULL must fail")
	}
	mustReject(t, db, "SELECT id FROM people LIMIT 1", `"1"`)
}

func TestDistinct(t *testing.T) {
	db := openDB(t, Options{})
	seedPeople(t, db)
	rows := mustQuery(t, db, "SELECT DISTINCT city FROM people")
	if rows.Len() != 3 {
		t.Fatalf("expected 3 cities, got %v", rows.Data)
	}
}

func TestArithmeticAndComparison(t *testing.T) {
	db := openDB(t, Options{})
	seedPeople(t, db)
	rows := mustQuery(t, db, "SELECT id, age * 2 + 1 FROM people WHERE age - 20 = 5")
	if rows.Len() != 2 {
		t.Fatalf("expected the two 25-year-olds: %v", rows.Data)
	}
	if rows.Data[0][1].I != 51 {
		t.Fatalf("arithmetic wrong: %v", rows.Data[0])
	}
	rows = mustQuery(t, db, "SELECT id FROM people WHERE age <> 30 AND (city = ? OR age >= 40)", paris)
	if rows.Len() != 3 {
		t.Fatalf("boolean logic wrong: %v", rows.Data)
	}
}

// TestBetweenAndIn: ranges and sets, spelled the way the dialect has them.
func TestBetweenAndIn(t *testing.T) {
	db := openDB(t, Options{})
	seedPeople(t, db)
	rows := mustQuery(t, db, "SELECT id FROM people WHERE age >= 26 AND age <= 35")
	if rows.Len() != 2 {
		t.Fatalf("range wrong: %v", rows.Data)
	}
	rows = mustQuery(t, db, "SELECT id FROM people WHERE id = 1 OR id = 3 OR id = 99")
	if rows.Len() != 2 {
		t.Fatalf("set wrong: %v", rows.Data)
	}
	rows = mustQuery(t, db, "SELECT id FROM people WHERE id <> 1 AND id <> 2 AND id <> 3 AND id <> 4")
	if rows.Len() != 1 || rows.Data[0][0].I != 5 {
		t.Fatalf("complement wrong: %v", rows.Data)
	}
	mustReject(t, db, "SELECT id FROM people WHERE age BETWEEN 26 AND 35", `"BETWEEN"`)
	mustReject(t, db, "SELECT id FROM people WHERE id IN (1, 3, 99)", `"IN"`)
}

// TestNullHandling: NULL is a result, never a stored value. A nil argument,
// an aggregate over no row and a scalar subquery with no row are NULL;
// arithmetic on NULL is NULL; a comparison with NULL is UNKNOWN and selects
// nothing; MIN and MAX skip NULL inputs; and a statement that would store a
// NULL fails, naming the column (each one here writes one row, so the table
// is unchanged: a statement is not rolled back).
func TestNullHandling(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TABLE nt (id INT PRIMARY KEY, v INT)")
	mustExec(t, db, "INSERT INTO nt (id, v) VALUES (1, 10), (2, 20), (3, 30)")
	const next = "(SELECT v FROM nt n WHERE n.id = nt.id + 1)" // NULL at id 3
	for q, args := range map[string][]any{
		"SELECT v + ?, ? FROM nt WHERE id = 2":                       {nil, nil},
		"SELECT MIN(v), MIN(v) + 1 FROM nt WHERE id > 3":             nil,
		"SELECT " + next + ", " + next + " * 2 FROM nt WHERE id = 3": nil,
	} {
		rows := mustQuery(t, db, q, args...)
		if rows.Len() != 1 || !rows.Data[0][0].Null || !rows.Data[0][1].Null {
			t.Fatalf("%s: want one all-NULL row, got %v", q, rows.Data)
		}
	}
	// NULL comparisons are UNKNOWN -> excluded, whichever way they point.
	for _, q := range []string{
		"SELECT id FROM nt WHERE v > ?",
		"SELECT id FROM nt WHERE ? = v",
		"SELECT id FROM nt WHERE v <= 0 OR v <> ?",
		"SELECT id FROM nt WHERE v <> (SELECT MIN(v) FROM nt WHERE id > ?)",
	} {
		if rows := mustQuery(t, db, q, nil); rows.Len() != 0 {
			t.Fatalf("%s: NULL comparison should exclude: %v", q, rows.Data)
		}
	}
	if rows := mustQuery(t, db, "SELECT id FROM nt WHERE "+next+" > 10"); rows.Len() != 2 {
		t.Fatalf("NULL subquery comparison should exclude id 3: %v", rows.Data)
	}
	// MIN and MAX skip NULLs, COUNT(*) counts rows.
	rows := mustQuery(t, db, "SELECT MIN("+next+"), MAX("+next+"), COUNT(*) FROM nt")
	if r := rows.Data[0]; r[0].I != 20 || r[1].I != 30 || r[2].I != 3 {
		t.Fatalf("aggregate null semantics wrong: %v", rows.Data)
	}
	for q, args := range map[string][]any{
		"INSERT INTO nt (id, v) VALUES (4, ?)":                                     {nil},
		"UPDATE nt SET v = (SELECT MIN(v) FROM nt WHERE id > 3) WHERE id = 1":      nil,
		"UPDATE nt SET v = " + next + " WHERE id = ?":                              {int64(3)},
		"INSERT INTO nt (id, v) SELECT id + 10, " + next + " FROM nt WHERE id = 3": nil,
	} {
		if _, err := db.Exec(q, args...); err == nil || !strings.Contains(err.Error(), "column v is NULL") {
			t.Fatalf("%s: want an error naming column v, got %v", q, err)
		}
	}
	rows = ordered(mustQuery(t, db, "SELECT id, v FROM nt"))
	if fmt.Sprint(rows.Data) != "[[1 10] [2 20] [3 30]]" {
		t.Fatalf("table after the rejected writes: %v", rows.Data)
	}
	mustReject(t, db, "SELECT id FROM nt WHERE v IS NULL", `"IS"`)
	mustReject(t, db, "INSERT INTO nt (id, v) VALUES (4, NULL)", `"NULL"`)
}

func TestAggregates(t *testing.T) {
	db := openDB(t, Options{})
	seedPeople(t, db)
	rows := mustQuery(t, db, "SELECT MIN(age), MAX(age), COUNT(*), MAX(score) - MIN(score) FROM people")
	r := rows.Data[0]
	if r[0].I != 25 || r[1].I != 40 || r[2].I != 5 || r[3].I != 40 {
		t.Fatalf("aggregates wrong: %v", r)
	}
	mustReject(t, db, "SELECT SUM(age) FROM people", `"SUM"`)
}

func TestGroupBy(t *testing.T) {
	db := openDB(t, Options{})
	seedPeople(t, db)
	rows := ordered(mustQuery(t, db,
		"SELECT city, COUNT(*), MIN(age) FROM people GROUP BY city"))
	if rows.Len() != 3 {
		t.Fatalf("expected 3 groups: %v", rows.Data)
	}
	if rows.Data[0][0].I != berlin || rows.Data[0][1].I != 2 || rows.Data[0][2].I != 30 {
		t.Fatalf("berlin group wrong: %v", rows.Data[0])
	}
}

// TestGroupByHaving: HAVING is outside the dialect, so a GROUP BY with one
// is refused, not run unfiltered.
func TestGroupByHaving(t *testing.T) {
	db := openDB(t, Options{})
	seedPeople(t, db)
	if rows, err := db.Query("SELECT city, COUNT(*) FROM people GROUP BY city HAVING COUNT(*) > 1"); err == nil {
		t.Fatalf("HAVING accepted: %v", rows.Data)
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TABLE e (v INT)")
	rows := mustQuery(t, db, "SELECT MIN(v), COUNT(*) FROM e")
	if rows.Len() != 1 {
		t.Fatalf("global aggregate over empty input must yield one row: %v", rows.Data)
	}
	if !rows.Data[0][0].Null {
		t.Fatalf("MIN of nothing must be NULL: %v", rows.Data[0])
	}
	if rows.Data[0][1].I != 0 {
		t.Fatalf("COUNT of nothing must be 0: %v", rows.Data[0])
	}
	// With GROUP BY: no rows at all.
	rows = mustQuery(t, db, "SELECT v, COUNT(*) FROM e GROUP BY v")
	if rows.Len() != 0 {
		t.Fatalf("grouped aggregate over empty input must be empty: %v", rows.Data)
	}
}

func TestJoins(t *testing.T) {
	db := openDB(t, Options{})
	seedPeople(t, db)
	mustExec(t, db, "CREATE TABLE orders (oid INT PRIMARY KEY, pid INT, amount INT)")
	mustExec(t, db, "INSERT INTO orders (oid, pid, amount) VALUES (10, 1, 100), (11, 1, 150), (12, 3, 50), (13, 99, 1)")
	// Comma join with equality (index-nested-loop into people PK).
	rows := mustQuery(t, db,
		"SELECT p.id, o.amount FROM orders o, people p WHERE p.id = o.pid")
	if rows.Len() != 3 {
		t.Fatalf("join wrong: %v", rows.Data)
	}
	mustReject(t, db, "SELECT p.id, o.amount FROM orders o JOIN people p ON p.id = o.pid", `"JOIN"`)
	// Aggregation over a join.
	rows = ordered(mustQuery(t, db,
		"SELECT p.id, MAX(o.amount) FROM orders o, people p WHERE p.id = o.pid GROUP BY p.id"))
	if rows.Len() != 2 || rows.Data[0][1].I != 150 {
		t.Fatalf("join aggregate wrong: %v", rows.Data)
	}
}

func TestThreeWayJoin(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TABLE a (x INT PRIMARY KEY)")
	mustExec(t, db, "CREATE TABLE b (x INT, y INT)")
	mustExec(t, db, "CREATE TABLE c (y INT PRIMARY KEY, z INT)")
	mustExec(t, db, "INSERT INTO a (x) VALUES (1), (2)")
	mustExec(t, db, "INSERT INTO b (x, y) VALUES (1, 10), (2, 20), (2, 10)")
	mustExec(t, db, "INSERT INTO c (y, z) VALUES (10, 100), (20, 200)")
	rows := ordered(mustQuery(t, db,
		"SELECT a.x, c.z FROM a, b, c WHERE a.x = b.x AND b.y = c.y"))
	if rows.Len() != 3 {
		t.Fatalf("3-way join wrong: %v", rows.Data)
	}
	if rows.Data[0][1].I != 100 || rows.Data[2][1].I != 200 {
		t.Fatalf("3-way join content wrong: %v", rows.Data)
	}
}

func TestHashJoinWithoutIndex(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TABLE l (k INT, v INT)")
	mustExec(t, db, "CREATE TABLE r (k INT, w INT)")
	mustExec(t, db, "INSERT INTO l (k, v) VALUES (1, 10), (2, 20), (3, 30)")
	mustExec(t, db, "INSERT INTO r (k, w) VALUES (2, 200), (3, 300), (4, 400)")
	rows := ordered(mustQuery(t, db, "SELECT l.v, r.w FROM l, r WHERE l.k = r.k"))
	if rows.Len() != 2 || rows.Data[0][0].I != 20 || rows.Data[0][1].I != 200 {
		t.Fatalf("hash join wrong: %v", rows.Data)
	}
}

func TestScalarSubquery(t *testing.T) {
	db := openDB(t, Options{})
	seedPeople(t, db)
	rows := mustQuery(t, db,
		"SELECT id FROM people WHERE age = (SELECT MIN(age) FROM people)")
	if rows.Len() != 2 || rows.Data[0][0].I != 2 {
		t.Fatalf("scalar subquery wrong: %v", rows.Data)
	}
	// Multi-row scalar subquery is an error.
	if _, err := db.Query("SELECT id FROM people WHERE age = (SELECT age FROM people)"); err == nil {
		t.Fatal("multi-row scalar subquery should error")
	}
}

func TestExistsCorrelated(t *testing.T) {
	db := openDB(t, Options{})
	seedPeople(t, db)
	mustExec(t, db, "CREATE TABLE vip (id INT PRIMARY KEY)")
	mustExec(t, db, "INSERT INTO vip (id) VALUES (1), (4)")
	rows := mustQuery(t, db,
		"SELECT p.id FROM people p WHERE EXISTS (SELECT id FROM vip v WHERE v.id = p.id)")
	if rows.Len() != 2 || rows.Data[1][0].I != 4 {
		t.Fatalf("EXISTS wrong: %v", rows.Data)
	}
	rows = mustQuery(t, db,
		"SELECT p.id FROM people p WHERE NOT EXISTS (SELECT id FROM vip v WHERE v.id = p.id)")
	if rows.Len() != 3 || rows.Data[0][0].I != 2 {
		t.Fatalf("NOT EXISTS wrong: %v", rows.Data)
	}
}

// TestWindowRowNumber: ROW_NUMBER is evaluated in one form, the
// E-operator's — a bare select item of a derived table, kept to rank 1 by a
// conjunct `rn = 1` of the enclosing WHERE (either way round) — and every
// other use is refused with an error that names that form.
func TestWindowRowNumber(t *testing.T) {
	db := openDB(t, Options{})
	seedPeople(t, db)
	rows := mustQuery(t, db, `SELECT id, city, rn FROM (
			SELECT id, city, ROW_NUMBER() OVER (PARTITION BY city ORDER BY score) FROM people
		) tmp (id, city, rn) WHERE 1 = rn AND id > 0`)
	// The cheapest of each city — berlin id1 (15), tokyo id4, paris id5 (5) —
	// in input order, ranked 1.
	want := fmt.Sprint([][]record.Value{
		{record.Int(1), record.Int(berlin), record.Int(1)},
		{record.Int(4), record.Int(tokyo), record.Int(1)},
		{record.Int(5), record.Int(paris), record.Int(1)}})
	if got := fmt.Sprint(rows.Data); got != want {
		t.Fatalf("rank-1 rows %s, want %s", got, want)
	}
	const (
		win  = "ROW_NUMBER() OVER (PARTITION BY city ORDER BY score)"
		form = "WHERE rn = 1"
	)
	for _, q := range []string{
		"SELECT id, " + win + " FROM people",
		"SELECT id FROM (SELECT id, " + win + " FROM people) tmp (id, rn) WHERE rn = 2",
		"SELECT id FROM (SELECT id, " + win + " FROM people) tmp (id, rn) WHERE rn = ?",
		"SELECT id FROM (SELECT id, " + win + " FROM people) tmp (id, rn) WHERE rn < 2",
		"SELECT id FROM (SELECT id, " + win + " FROM people) tmp (id, rn) WHERE rn = 1 OR id = 3",
		"SELECT id FROM (SELECT id, " + win + " FROM people) tmp (id, rn) WHERE id = 3",
		"SELECT id FROM (SELECT id, " + win + ", " + win + " FROM people) tmp (id, rn, rn2) WHERE rn = 1",
		"SELECT id FROM (SELECT TOP 2 id, " + win + " FROM people) tmp (id, rn) WHERE rn = 1",
		"SELECT id FROM (SELECT DISTINCT id, " + win + " FROM people) tmp (id, rn) WHERE rn = 1",
		"SELECT c FROM (SELECT city, ROW_NUMBER() OVER (ORDER BY city) FROM people GROUP BY city) tmp (c, rn) WHERE rn = 1",
		"SELECT id FROM (SELECT id, " + win + " + 0 FROM people) tmp (id, rn) WHERE rn = 1",
		"SELECT id FROM people WHERE " + win + " = 1",
	} {
		mustReject(t, db, q, form)
	}
}

func TestWindowInDerivedTable(t *testing.T) {
	db := openDB(t, Options{})
	seedPeople(t, db)
	// The paper's E-operator shape: keep only the top-ranked row per group.
	rows := ordered(mustQuery(t, db,
		`SELECT id, score FROM (
			SELECT id, score, ROW_NUMBER() OVER (PARTITION BY city ORDER BY score)
			FROM people
		) tmp (id, score, rn) WHERE rn = 1`))
	if rows.Len() != 3 {
		t.Fatalf("expected one winner per city: %v", rows.Data)
	}
	if rows.Data[0][0].I != 1 || rows.Data[1][0].I != 4 || rows.Data[2][0].I != 5 {
		t.Fatalf("winners wrong: %v", rows.Data)
	}
}

// TestRankWindow: ROW_NUMBER is the one ranking function; of rows that tie
// on the order key the earliest in input order is ranked 1, so the
// E-operator's "rn = 1" picks the same winner every time.
func TestRankWindow(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TABLE s (id INT PRIMARY KEY, g INT, v INT)")
	mustExec(t, db, "INSERT INTO s (id, g, v) VALUES (1, 1, 10), (2, 1, 10), (3, 1, 20), (4, 2, 5)")
	mustReject(t, db, "SELECT id, RANK() OVER (PARTITION BY g ORDER BY v) FROM s", `"RANK"`)
	for rep := 0; rep < 3; rep++ {
		rows := mustQuery(t, db, "SELECT id, rn FROM (SELECT id, ROW_NUMBER() OVER (PARTITION BY g ORDER BY v) FROM s) tmp (id, rn) WHERE rn = 1")
		// g = 1: ids 1 and 2 tie on v = 10 and id 1 comes first; g = 2: id 4.
		if got := fmt.Sprint(rows.Data); got != "[[1 1] [4 1]]" {
			t.Fatalf("rep %d: rank-1 rows %s, want [[1 1] [4 1]]", rep, got)
		}
	}
}

func TestUpdateBasic(t *testing.T) {
	db := openDB(t, Options{})
	seedPeople(t, db)
	n := mustExec(t, db, "UPDATE people SET age = age + 1 WHERE city = ?", paris)
	if n != 2 {
		t.Fatalf("expected 2 affected, got %d", n)
	}
	rows := mustQuery(t, db, "SELECT age FROM people WHERE id = 2")
	if rows.Data[0][0].I != 26 {
		t.Fatalf("update failed: %v", rows.Data)
	}
}

func TestUpdateFrom(t *testing.T) {
	db := openDB(t, Options{})
	seedPeople(t, db)
	mustExec(t, db, "CREATE TABLE bumps (id INT PRIMARY KEY, delta INT)")
	mustExec(t, db, "INSERT INTO bumps (id, delta) VALUES (1, 5), (3, 7), (99, 1)")
	n := mustExec(t, db,
		"UPDATE people SET age = people.age + s.delta FROM bumps s WHERE people.id = s.id")
	if n != 2 {
		t.Fatalf("expected 2 affected, got %d", n)
	}
	rows := mustQuery(t, db, "SELECT age FROM people WHERE id = 3")
	if rows.Data[0][0].I != 37 {
		t.Fatalf("update-from failed: %v", rows.Data)
	}
}

func TestDeleteAndTruncate(t *testing.T) {
	db := openDB(t, Options{})
	seedPeople(t, db)
	n := mustExec(t, db, "DELETE FROM people WHERE age = 25")
	if n != 2 {
		t.Fatalf("expected 2 deleted, got %d", n)
	}
	rows := mustQuery(t, db, "SELECT COUNT(*) FROM people")
	if rows.Data[0][0].I != 3 {
		t.Fatalf("delete failed: %v", rows.Data)
	}
	n = mustExec(t, db, "DELETE FROM people")
	if n != 3 {
		t.Fatalf("truncating delete should report 3, got %d", n)
	}
	n = mustExec(t, db, "DELETE FROM people")
	if n != 0 {
		t.Fatalf("truncating delete of an empty table should report 0, got %d", n)
	}
	mustReject(t, db, "TRUNCATE TABLE people", `"TRUNCATE"`)
}

func TestInsertSelect(t *testing.T) {
	db := openDB(t, Options{})
	seedPeople(t, db)
	mustExec(t, db, "CREATE TABLE elders (id INT PRIMARY KEY, age INT)")
	n := mustExec(t, db, "INSERT INTO elders (id, age) SELECT id, age FROM people WHERE age >= 30")
	if n != 3 {
		t.Fatalf("expected 3 inserted, got %d", n)
	}
}

func TestMerge(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TABLE tgt (k INT PRIMARY KEY, v INT)")
	mustExec(t, db, "CREATE TABLE src (k INT PRIMARY KEY, v INT)")
	mustExec(t, db, "INSERT INTO tgt (k, v) VALUES (1, 100), (2, 50)")
	mustExec(t, db, "INSERT INTO src (k, v) VALUES (1, 10), (2, 90), (3, 30)")
	n := mustExec(t, db, `MERGE INTO tgt AS target USING src AS source ON (target.k = source.k)
		WHEN MATCHED AND target.v > source.v THEN UPDATE SET v = source.v
		WHEN NOT MATCHED THEN INSERT (k, v) VALUES (source.k, source.v)`)
	// k=1: 100>10 update; k=2: 50<90 no branch; k=3: insert. => 2 affected.
	if n != 2 {
		t.Fatalf("expected 2 affected, got %d", n)
	}
	rows := mustQuery(t, db, "SELECT k, v FROM tgt")
	want := [][2]int64{{1, 10}, {2, 50}, {3, 30}}
	for i, w := range want {
		if rows.Data[i][0].I != w[0] || rows.Data[i][1].I != w[1] {
			t.Fatalf("merge result wrong: %v", rows.Data)
		}
	}
}

// TestMergeDeleteBranch: MERGE updates and inserts; deleting the matched
// rows is a DELETE with a correlated EXISTS.
func TestMergeDeleteBranch(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TABLE tgt (k INT PRIMARY KEY, v INT)")
	mustExec(t, db, "CREATE TABLE src (k INT PRIMARY KEY)")
	mustExec(t, db, "INSERT INTO tgt (k, v) VALUES (1, 1), (2, 2)")
	mustExec(t, db, "INSERT INTO src (k) VALUES (1)")
	mustReject(t, db, "MERGE INTO tgt USING src ON (tgt.k = src.k) WHEN MATCHED THEN DELETE", `"DELETE"`)
	n := mustExec(t, db, "DELETE FROM tgt WHERE EXISTS (SELECT k FROM src WHERE src.k = tgt.k)")
	if n != 1 {
		t.Fatalf("expected 1 affected, got %d", n)
	}
	rows := mustQuery(t, db, "SELECT k FROM tgt")
	if rows.Len() != 1 || rows.Data[0][0].I != 2 {
		t.Fatalf("delete of matched rows failed: %v", rows.Data)
	}
}

func TestMergeDerivedSource(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TABLE tgt (k INT PRIMARY KEY, v INT)")
	mustExec(t, db, "CREATE TABLE raw (k INT, v INT)")
	mustExec(t, db, "INSERT INTO raw (k, v) VALUES (1, 5), (1, 3), (2, 7)")
	n := mustExec(t, db, `MERGE INTO tgt AS target USING (
			SELECT k, MIN(v) FROM raw GROUP BY k
		) AS source (k, v) ON (target.k = source.k)
		WHEN MATCHED AND target.v > source.v THEN UPDATE SET v = source.v
		WHEN NOT MATCHED THEN INSERT (k, v) VALUES (source.k, source.v)`)
	if n != 2 {
		t.Fatalf("expected 2 affected, got %d", n)
	}
	rows := mustQuery(t, db, "SELECT v FROM tgt WHERE k = 1")
	if rows.Data[0][0].I != 3 {
		t.Fatalf("derived merge wrong: %v", rows.Data)
	}
}

func TestUniqueViolation(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TABLE u (k INT PRIMARY KEY)")
	mustExec(t, db, "INSERT INTO u (k) VALUES (1)")
	if _, err := db.Exec("INSERT INTO u (k) VALUES (1)"); err == nil {
		t.Fatal("duplicate PK should error")
	}
	mustExec(t, db, "CREATE TABLE u2 (k INT)")
	mustExec(t, db, "CREATE UNIQUE INDEX u2k ON u2 (k)")
	mustExec(t, db, "INSERT INTO u2 (k) VALUES (1)")
	if _, err := db.Exec("INSERT INTO u2 (k) VALUES (1)"); err == nil {
		t.Fatal("duplicate unique-index key should error")
	}
}

func TestProfileGating(t *testing.T) {
	db := openDB(t, Options{Profile: ProfilePostgreSQL9})
	mustExec(t, db, "CREATE TABLE t1 (k INT PRIMARY KEY)")
	mustExec(t, db, "CREATE TABLE t2 (k INT PRIMARY KEY)")
	_, err := db.Exec("MERGE INTO t1 USING t2 ON (t1.k = t2.k) WHEN NOT MATCHED THEN INSERT (k) VALUES (t2.k)")
	if err == nil || !strings.Contains(err.Error(), "MERGE") {
		t.Fatalf("PostgreSQL profile must reject MERGE, got %v", err)
	}
	// Window functions are fine on PostgreSQL 9.
	mustExec(t, db, "INSERT INTO t1 (k) VALUES (1), (2)")
	rows := mustQuery(t, db, "SELECT k FROM (SELECT k, ROW_NUMBER() OVER (ORDER BY k) FROM t1) tmp (k, rn) WHERE rn = 1")
	if rows.Len() != 1 || rows.Data[0][0].I != 1 {
		t.Fatalf("window on postgres failed: %v", rows.Data)
	}
	// A profile without window support rejects them.
	db2 := openDB(t, Options{Profile: Profile{Name: "old", SupportsMerge: false, SupportsWindow: false}})
	mustExec(t, db2, "CREATE TABLE t3 (k INT)")
	_, err = db2.Query("SELECT k FROM (SELECT k, ROW_NUMBER() OVER (ORDER BY k) FROM t3) tmp (k, rn) WHERE rn = 1")
	if err == nil || !strings.Contains(err.Error(), "does not support window functions") {
		t.Fatalf("no-window profile must reject window functions, got %v", err)
	}
}

func TestDropTable(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TABLE d (k INT)")
	mustExec(t, db, "DROP TABLE d")
	if _, err := db.Query("SELECT k FROM d"); err == nil {
		t.Fatal("query of dropped table should error")
	}
	if _, err := db.Exec("DROP TABLE d"); err == nil {
		t.Fatal("double drop should error")
	}
}

func TestQueryInt(t *testing.T) {
	db := openDB(t, Options{})
	seedPeople(t, db)
	v, null, err := db.QueryInt("SELECT MIN(age) FROM people WHERE city = ?", tokyo)
	if err != nil || null || v != 40 {
		t.Fatalf("QueryInt: v=%d null=%v err=%v", v, null, err)
	}
	_, null, err = db.QueryInt("SELECT MIN(age) FROM people WHERE city = 99")
	if err != nil || !null {
		t.Fatalf("QueryInt of empty aggregate should be NULL: null=%v err=%v", null, err)
	}
	_, null, err = db.QueryInt("SELECT id FROM people WHERE id = 99")
	if err != nil || !null {
		t.Fatalf("QueryInt of empty result should be NULL: null=%v err=%v", null, err)
	}
}

func TestStatsCounting(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TABLE s (k INT PRIMARY KEY)")
	before := db.Stats().Statements
	mustExec(t, db, "INSERT INTO s (k) VALUES (1)")
	mustQuery(t, db, "SELECT k FROM s")
	after := db.Stats().Statements
	if after-before != 2 {
		t.Fatalf("expected 2 statements counted, got %d", after-before)
	}
}

func TestExecRejectsSelect(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TABLE s (k INT)")
	if _, err := db.Exec("SELECT k FROM s"); err == nil {
		t.Fatal("Exec of SELECT should error")
	}
	if _, err := db.Query("INSERT INTO s (k) VALUES (1)"); err == nil {
		t.Fatal("Query of INSERT should error")
	}
}

func TestClosedDB(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	if _, err := db.Exec("CREATE TABLE x (k INT)"); err == nil {
		t.Fatal("exec on closed db should error")
	}
	if err := db.Close(); err != nil {
		t.Fatalf("double close should be a no-op: %v", err)
	}
}

func TestUnsupportedParamType(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TABLE s (k INT)")
	for _, arg := range []any{struct{}{}, 1.5, "x"} {
		if _, err := db.Exec("INSERT INTO s (k) VALUES (?)", arg); err == nil {
			t.Fatalf("%T parameter should error", arg)
		}
	}
	// record.Value passes through.
	mustExec(t, db, "INSERT INTO s (k) VALUES (?)", record.Int(7))
	rows := mustQuery(t, db, "SELECT k FROM s")
	if rows.Data[0][0].I != 7 {
		t.Fatalf("record.Value param wrong: %v", rows.Data)
	}
}

// TestInsertPartialColumns: an INSERT column list, MERGE's included, names
// every column of the table once, or the statement is rejected when it is
// prepared, naming the column: a stored row holds no NULL to fill it with.
func TestInsertPartialColumns(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TABLE p (a INT PRIMARY KEY, b INT, c INT)")
	for q, col := range map[string]string{
		"INSERT INTO p (a) VALUES (1)":             `"b"`,
		"INSERT INTO p (a, b) SELECT a, b FROM p":  `"c"`,
		"INSERT INTO p (a, b, b) VALUES (1, 2, 3)": `"b" twice`,
		"MERGE INTO p AS t USING p AS s ON (t.a = s.a + 1) WHEN NOT MATCHED THEN INSERT (a, c) VALUES (s.a, s.c)": `"b"`,
	} {
		if _, err := db.Prepare(q); err == nil || !strings.Contains(err.Error(), col) {
			t.Fatalf("Prepare(%s): want an error naming %s, got %v", q, col, err)
		}
		mustReject(t, db, q, col)
	}
	// In any order, the full list stores each value in its column.
	mustExec(t, db, "INSERT INTO p (c, a, b) VALUES (3, 1, 2)")
	mustExec(t, db, "INSERT INTO p (b, c, a) SELECT c, a, a + 1 FROM p")
	if rows := ordered(mustQuery(t, db, "SELECT a, b, c FROM p")); fmt.Sprint(rows.Data) != "[[1 2 3] [2 3 1]]" {
		t.Fatalf("rows after the full-list inserts: %v", rows.Data)
	}
}

// TestFloatColumnCoercion: there is one column type and nothing to coerce —
// neither a FLOAT column nor a float64 argument gets in.
func TestFloatColumnCoercion(t *testing.T) {
	db := openDB(t, Options{})
	mustReject(t, db, "CREATE TABLE f (v FLOAT)", `"FLOAT"`)
	mustExec(t, db, "CREATE TABLE f (v INT)")
	if _, err := db.Exec("INSERT INTO f (v) VALUES (?)", 3.0); err == nil || !strings.Contains(err.Error(), "float64") {
		t.Fatalf("float64 argument: %v", err)
	}
	mustReject(t, db, "SELECT v + 0.5 FROM f", `"."`)
}

func TestSelectWithoutFrom(t *testing.T) {
	db := openDB(t, Options{})
	rows := mustQuery(t, db, "SELECT 1 + 2, ?", 7)
	if rows.Len() != 1 || rows.Data[0][0].I != 3 || rows.Data[0][1].I != 7 {
		t.Fatalf("constant select wrong: %v", rows.Data)
	}
}

func TestDerivedTable(t *testing.T) {
	db := openDB(t, Options{})
	seedPeople(t, db)
	rows := ordered(mustQuery(t, db,
		"SELECT c, n FROM (SELECT city, COUNT(*) FROM people GROUP BY city) d (c, n) WHERE n > 1"))
	if rows.Len() != 2 || rows.Data[0][0].I != berlin {
		t.Fatalf("derived table wrong: %v", rows.Data)
	}
}

func TestSecondaryIndexLookup(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TABLE e (fid INT, tid INT, cost INT)")
	mustExec(t, db, "CREATE INDEX e_fid ON e (fid)")
	mustExec(t, db, "INSERT INTO e (fid, tid, cost) VALUES (1, 2, 10), (1, 3, 20), (2, 3, 30)")
	rows := ordered(mustQuery(t, db, "SELECT tid FROM e WHERE fid = 1"))
	if rows.Len() != 2 || rows.Data[1][0].I != 3 {
		t.Fatalf("secondary lookup wrong: %v", rows.Data)
	}
}

func TestClusteredRangeGrouping(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TABLE e (fid INT, tid INT, cost INT)")
	mustExec(t, db, "CREATE CLUSTERED INDEX e_fid ON e (fid)")
	for i := 0; i < 50; i++ {
		mustExec(t, db, "INSERT INTO e (fid, tid, cost) VALUES (?, ?, ?)", i%5, i, i)
	}
	rows := mustQuery(t, db, "SELECT COUNT(*) FROM e WHERE fid = 3")
	if rows.Data[0][0].I != 10 {
		t.Fatalf("clustered probe wrong: %v", rows.Data)
	}
}

func TestFileBackedDB(t *testing.T) {
	path := t.TempDir() + "/test.db"
	db, err := Open(Options{Path: path, BufferPoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, "CREATE TABLE big (k INT PRIMARY KEY, a INT, b INT, c INT)")
	const n = 8000 // ~35 bytes a row: some forty pages
	for i := 0; i < n; i++ {
		mustExec(t, db, "INSERT INTO big (k, a, b, c) VALUES (?, ?, ?, ?)", i, i, i, i)
	}
	rows := mustQuery(t, db, "SELECT COUNT(*) FROM big")
	if rows.Data[0][0].I != n {
		t.Fatalf("file-backed count wrong: %v", rows.Data)
	}
	st := db.Stats()
	if st.Pool.Misses == 0 {
		t.Error("a 16-page pool over forty pages of rows must miss")
	}
	if st.IO.Writes == 0 {
		t.Error("evictions must write dirty pages")
	}
}

func TestParamCountValidation(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TABLE pc (k INT)")
	if _, err := db.Exec("INSERT INTO pc (k) VALUES (?)", 1, 2); err == nil {
		t.Fatal("extra arguments must be rejected")
	}
	if _, err := db.Exec("INSERT INTO pc (k) VALUES (?)"); err == nil {
		t.Fatal("missing arguments must be rejected")
	}
	if _, err := db.Query("SELECT k FROM pc WHERE k = ?", 1, 2); err == nil {
		t.Fatal("Query must reject extra arguments")
	}
}

// TestUpdateUniqueViolationKeepsTable: an UPDATE that would move a row onto
// a unique key another row holds fails as a whole statement — the table, PK
// and unique index included, is what it was (the row used to be deleted
// before the conflict was found).
func TestUpdateUniqueViolationKeepsTable(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TABLE t (a INT PRIMARY KEY, b INT)")
	mustExec(t, db, "CREATE UNIQUE INDEX t_b ON t (b)")
	mustExec(t, db, "INSERT INTO t (a, b) VALUES (1, 10), (2, 20)")
	for _, q := range []string{"UPDATE t SET a = 2 WHERE a = 1", "UPDATE t SET b = 20 WHERE a = 1"} {
		if _, err := db.Exec(q); !errors.Is(err, table.ErrUniqueViolation) {
			t.Fatalf("%s: want a unique violation, got %v", q, err)
		}
		rows := mustQuery(t, db, "SELECT a, b FROM t")
		if rows.Len() != 2 || rows.Data[0][0].I != 1 || rows.Data[0][1].I != 10 || rows.Data[1][0].I != 2 || rows.Data[1][1].I != 20 {
			t.Fatalf("table after the failed %q: %v", q, rows.Data)
		}
		for b, a := range map[int]int64{10: 1, 20: 2} {
			if v, null, err := db.QueryInt("SELECT a FROM t WHERE b = ?", b); err != nil || null || v != a {
				t.Fatalf("unique index after the failed %q: b=%d -> %d %v %v", q, b, v, null, err)
			}
		}
	}
	if n := mustExec(t, db, "UPDATE t SET a = 3, b = 30 WHERE a = 1"); n != 1 {
		t.Fatalf("update onto free keys affected %d rows", n)
	}
}

// TestNullProbeMatchesNothing: a NULL probe key or NULL join key matches no
// row, whichever way the planner reaches the rows. NULL has a key encoding,
// and its I is 0, so an index probe handed it could find the row whose a is 0
// where a scan of the same table does not: the probe must not run. The NULL
// comes from a nil argument, or from the one row of a derived table whose
// MIN reads no row.
func TestNullProbeMatchesNothing(t *testing.T) {
	const src = "(SELECT MIN(a), 7 FROM t WHERE b > 100) AS src (a, b)"
	for _, shape := range []struct{ name, index string }{
		{"clustered_prefix", "CREATE CLUSTERED INDEX t_a ON t (a)"},
		{"secondary", "CREATE INDEX t_a ON t (a)"},
		{"unique_secondary", "CREATE UNIQUE INDEX t_a ON t (a)"},
		{"scan", ""},
	} {
		t.Run(shape.name, func(t *testing.T) {
			db := openDB(t, Options{})
			mustExec(t, db, "CREATE TABLE t (a INT, b INT)")
			if shape.index != "" {
				mustExec(t, db, shape.index)
			}
			mustExec(t, db, "INSERT INTO t (a, b) VALUES (0, 1), (5, 2)")
			for rep := 0; rep < 2; rep++ { // the second round runs the recycled instances
				if rows := mustQuery(t, db, "SELECT b FROM t WHERE a = ?", nil); rows.Len() != 0 {
					t.Fatalf("SELECT with a NULL probe returned %v", rows.Data)
				}
				if rows := mustQuery(t, db, "SELECT t.b FROM "+src+", t WHERE t.a = src.a"); rows.Len() != 0 {
					t.Fatalf("join on a NULL key returned %v", rows.Data)
				}
				for _, q := range []string{
					"UPDATE t SET b = 9 WHERE a = ?",
					"DELETE FROM t WHERE a = ?",
				} {
					if n := mustExec(t, db, q, nil); n != 0 {
						t.Fatalf("%s with a NULL probe affected %d rows", q, n)
					}
				}
				for _, q := range []string{
					"MERGE INTO t AS tt USING " + src + " ON (tt.a = src.a) WHEN MATCHED THEN UPDATE SET b = src.b",
					"UPDATE t SET b = src.b FROM " + src + " WHERE t.a = src.a",
				} {
					if n := mustExec(t, db, q); n != 0 {
						t.Fatalf("%s matched %d rows on a NULL key", q, n)
					}
				}
				// The probe still finds what it should, and nothing was touched.
				if v, null, err := db.QueryInt("SELECT b FROM t WHERE a = ?", 5); err != nil || null || v != 2 {
					t.Fatalf("probe a = 5: %d %v %v", v, null, err)
				}
				rows := ordered(mustQuery(t, db, "SELECT a, b FROM t"))
				if fmt.Sprint(rows.Data) != "[[0 1] [5 2]]" {
					t.Fatalf("table after the NULL probes: %v", rows.Data)
				}
			}
		})
	}
}
