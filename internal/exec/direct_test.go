package exec_test

// Writes through the scan. On a table clustered on a unique key with no
// secondary index, an UPDATE or MERGE that passes the planner's gate changes
// each row through the leaf its scan or probe read (no materialized match
// list, no second descent). These tests run statements the gate must send
// down either path on such a table and, as the reference, on the same rows
// in a heap with a unique index on the key — a design that never writes
// through a scan — and require the same affected counts, errors and
// whole-table state after every statement, and a sound B+tree.

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/rdb"
	"repro/internal/table"
)

// directCase is one sequence of statements over table t (cols, unique on
// key) loaded with rows, and a heap table s with source rows.
type directCase struct {
	name      string
	cols, key string
	rows, src [][]int64
	stmts     []string
}

// runDirectCase runs c under one design and returns, per statement, its
// affected count or error and the table's rows after it.
func runDirectCase(t *testing.T, c directCase, clustered bool) []string {
	t.Helper()
	db, err := rdb.Open(rdb.Options{BufferPoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	// Closed at the end, not deferred: a statement that panics leaves the
	// database latched, and a deferred Close would wait on it for good.
	sess := db.Session()
	exec := func(q string, args ...any) (int64, error) {
		res, err := sess.Exec(q, args...)
		return res.RowsAffected, err
	}
	must := func(q string, args ...any) {
		t.Helper()
		if _, err := exec(q, args...); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	must("CREATE TABLE t (" + strings.ReplaceAll(c.cols, ",", " INT,") + " INT)")
	if clustered {
		must("CREATE UNIQUE CLUSTERED INDEX t_key ON t (" + c.key + ")")
	} else {
		must("CREATE UNIQUE INDEX t_key ON t (" + c.key + ")")
	}
	must("CREATE TABLE s (" + strings.ReplaceAll(c.cols, ",", " INT,") + " INT)")
	params := strings.TrimSuffix(strings.Repeat("?, ", strings.Count(c.cols, ",")+1), ", ")
	for tbl, rows := range [][][]int64{c.rows, c.src} {
		for _, r := range rows {
			args := make([]any, len(r))
			for i, v := range r {
				args[i] = v
			}
			must("INSERT INTO "+[]string{"t", "s"}[tbl]+" ("+c.cols+") VALUES ("+params+")", args...)
		}
	}
	tbl, _ := db.Catalog().Get("t")
	var out []string
	for _, q := range c.stmts {
		for rep := 0; rep < 2; rep++ { // the second runs on the recycled instance
			n, err := exec(q)
			switch {
			case errors.Is(err, table.ErrUniqueViolation):
				out = append(out, "unique violation")
			case err != nil:
				t.Fatalf("%s: %v", q, err)
			default:
				out = append(out, fmt.Sprintf("%d rows", n))
			}
			rows, err := sess.Query("SELECT " + c.cols + " FROM t")
			if err != nil {
				t.Fatal(err)
			}
			got := ints(t, rows)
			sort.Slice(got, func(i, j int) bool { return fmt.Sprint(got[i]) < fmt.Sprint(got[j]) })
			out = append(out, fmt.Sprint(got))
			trees := []*table.Index{tbl.Clustered()}
			if !clustered {
				trees = tbl.Secondary
			}
			for _, ix := range trees {
				if err := ix.Tree().Check(); err != nil {
					t.Fatalf("%s: %s after %q: %v", c.name, ix.Name, q, err)
				}
			}
			if err := db.CheckPages(); err != nil {
				t.Fatalf("%s: after %q: %v", c.name, q, err)
			}
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDirectWritesMatchReference checks the write-through path, and the
// gate that keeps a statement off it, against the heap design.
func TestDirectWritesMatchReference(t *testing.T) {
	// 600 rows of even keys fill three leaves, each full (a key-ordered load
	// leaves them so): the first odd key a MERGE inserts has no room.
	var evens [][]int64
	for k := int64(0); k < 1200; k += 2 {
		evens = append(evens, []int64{k, k / 2, 0})
	}
	var odds [][]int64
	for k := int64(1); k < 1200; k += 4 {
		odds = append(odds, []int64{k, 1, 0})
	}
	// The same keys with f cycling through 0, 1, 2: a pushed f = 1 passes
	// every third row, and the scan copies only those cells of each leaf.
	var thirds [][]int64
	for k := int64(0); k < 1200; k += 2 {
		thirds = append(thirds, []int64{k, k / 2, k / 2 % 3})
	}
	merge := "MERGE INTO t AS tt USING s AS ss ON (tt.k = ss.k) " +
		"WHEN MATCHED AND tt.d > ss.d THEN UPDATE SET d = ss.d, f = 0 " +
		"WHEN NOT MATCHED THEN INSERT (k, d, f) VALUES (ss.k, ss.d, 0)"
	for _, c := range []directCase{
		{name: "update-reads-own-target", cols: "k, d, f", key: "k", rows: evens,
			// frontierQ's shape: the MIN is evaluated first at the row the OR's
			// left side rejects, after rows before it were stamped.
			stmts: []string{
				"UPDATE t SET f = 7 WHERE f = 0 AND (d < 5 OR d = (SELECT MIN(d) FROM t WHERE f = 0))",
				"UPDATE t SET f = 8 WHERE f = 0 AND d < 300",
			}},
		{name: "update-every-third-row", cols: "k, d, f", key: "k", rows: thirds,
			stmts: []string{
				"UPDATE t SET d = d + 1000 WHERE f = 1",
				"UPDATE t SET f = 2, d = 0 WHERE f = 0 AND d > 100",
			}},
		{name: "merge-two-source-rows-one-key", cols: "k, d, f", key: "k", rows: evens,
			src:   [][]int64{{4, 1, 0}, {4, 0, 0}, {1001, 9, 0}, {1001, 3, 0}, {1001, 5, 0}},
			stmts: []string{merge}},
		{name: "merge-inserts-split-leaves", cols: "k, d, f", key: "k", rows: evens,
			src: append(append([][]int64{}, odds...), [][]int64{{6, 0, 0}, {600, 0, 0}}...), stmts: []string{merge}},
		{name: "merge-insert-taken-key", cols: "k, d, f", key: "k", rows: evens,
			src: [][]int64{{2001, 1, 0}, {2001, 2, 0}},
			stmts: []string{"MERGE INTO t AS tt USING s AS ss ON (tt.k = ss.k AND tt.f = 9) " +
				"WHEN MATCHED THEN UPDATE SET d = ss.d " +
				"WHEN NOT MATCHED THEN INSERT (k, d, f) VALUES (ss.k, ss.d, 0)"}},
		{name: "set-changes-key", cols: "k, d, f", key: "k", rows: evens,
			stmts: []string{"UPDATE t SET k = k + 5001, f = 1 WHERE d < 40"}},
		{name: "composite-key-merge", cols: "a, b, c", key: "a, b",
			rows: [][]int64{{1, 1, 10}, {1, 2, 10}, {2, 1, 10}, {3, 3, 10}},
			src:  [][]int64{{1, 2, 4}, {2, 2, 4}, {3, 3, 40}, {1, 2, 3}},
			stmts: []string{"MERGE INTO t AS tt USING s AS ss ON (tt.a = ss.a AND tt.b = ss.b) " +
				"WHEN MATCHED AND tt.c > ss.c THEN UPDATE SET c = ss.c " +
				"WHEN NOT MATCHED THEN INSERT (a, b, c) VALUES (ss.a, ss.b, ss.c)",
				"UPDATE t SET c = c + 1 WHERE a = 1"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, want := runDirectCase(t, c, true), runDirectCase(t, c, false)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("statement %q, step %d: clustered %s, heap %s", c.stmts[i/4], i, got[i], want[i])
				}
			}
		})
	}
}
