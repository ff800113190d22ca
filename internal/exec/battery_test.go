package exec_test

// The batteries: the statements each part of the executor was written
// against, as case lists over the harness, and beside them the checks that
// compare no result with the dialect: allocations, concurrency, a corrupted
// tuple, the pages a scan fetches.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/rdb"
	"repro/internal/record"
	"repro/internal/sql"
)

const pushRows = 600 // several heap pages and clustered leaves

// pushDesigns are the designs of t (k, a, b, c), unique on k, indexed on a.
var pushDesigns = designsOf("t", "k, a, b, c", "k", "a", allDesigns...)

// loadPush fills t with n rows (k distinct; a, b and c small) and the outer
// table o (x with a repeat, y distinct).
func loadPush(h *harness, rng *rand.Rand, n int64) {
	h.fill("t", "k, a, b, c", smallRows(rng, n)...)
	h.load("CREATE TABLE o (x INT, y INT)")
	for y, x := range []int64{-1, 0, 2, 1, 3, 1} {
		h.fill("o", "x, y", []int64{x, int64(y)})
	}
}

// smallRows returns n rows (k, a, b, c): k counts from 0, the others are
// drawn from [-2, 4).
func smallRows(rng *rand.Rand, n int64) [][]int64 {
	rows := make([][]int64, n)
	for k := range rows {
		rows[k] = []int64{int64(k), rng.Int63n(6) - 2, rng.Int63n(6) - 2, rng.Int63n(6) - 2}
	}
	return rows
}

// fetched runs q and returns the pages the buffer pool served it.
func fetched(h *harness, q string, args ...any) uint64 {
	pool := func() uint64 { s := h.db.Stats().Pool; return s.Hits + s.Misses }
	before := pool()
	if _, err := h.sess.Query(q, args...); err != nil {
		h.t.Fatalf("%s: %v", q, err)
	}
	return pool() - before
}

// TestPushedPredicateDifferential: a scan evaluates `col <cmp> operand` on
// the encoded tuple, the operand bound once per Open. Every operator, both
// operand orders, on b and c (16 and 24 bytes into the tuple), against every
// pushable kind of operand — NULL among them, which a `?`, a `? * ?` or a
// subquery over no row yields though no stored column holds it. A NULL
// operand or probe key empties its scan from Open on: it reads no page.
func TestPushedPredicateDifferential(t *testing.T) {
	runCase(t, pushDesigns, func(h *harness) {
		loadPush(h, rand.New(rand.NewSource(11)), pushRows)
		for _, col := range []string{"b", "c"} {
			for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
				for _, colLeft := range []bool{true, false} {
					cond := func(col, operand string) string {
						if colLeft {
							return col + " " + op + " " + operand
						}
						return operand + " " + op + " " + col
					}
					sel := "SELECT k FROM t WHERE "
					h.run(sel + cond(col, "1"))
					for _, arg := range []any{int64(2), nil, int64(-1)} { // the empty state must not stick
						h.run(sel+cond(col, "?"), arg)
					}
					for _, args := range [][]any{{int64(2), int64(-1)}, {int64(1), int64(1)}, {nil, int64(1)}} {
						h.run(sel+cond(col, "? * ?"), args...)
					}
					h.run(sel + cond(col, "(SELECT MIN(x) FROM o)"))
					h.run(sel + cond(col, "(SELECT MIN(x) FROM o WHERE y > 100)"))
					for _, arg := range []any{int64(0), nil, int64(2)} { // beside an index probe
						h.run(sel+"a = ? AND "+cond(col, "?"), arg, int64(1))
					}
					h.run(sel+"k = ? AND "+cond(col, "?"), int64(17), int64(0))
					h.run(sel+cond(col, "?")+" AND a + 0 < b", int64(0)) // beside a residual
					// An outer row's column: a nested loop's inner side and a
					// correlated EXISTS re-bind per outer row.
					tc := cond("t."+col, "o.x")
					h.run("SELECT o.y, t.k FROM o, t WHERE " + tc)
					h.run("SELECT o.y, t.k FROM o, t WHERE t.a = o.y AND " + tc)
					h.run("SELECT o.y FROM o WHERE EXISTS (SELECT k FROM t WHERE " + tc + ")")
				}
			}
		}
		for _, q := range []string{"SELECT k FROM t WHERE a = ?", "SELECT k FROM t WHERE b < ?"} {
			if n := fetched(h, q, nil); n != 0 {
				h.t.Errorf("%s with NULL read %d pages", q, n)
			}
		}
	})
}

// TestPushedPredicateStatementsSeeTheTableAsItWas: an UPDATE that sets the
// column its pushed predicate reads, a DELETE, and a MERGE whose source
// scans its own target work on the rows that matched before any change.
func TestPushedPredicateStatementsSeeTheTableAsItWas(t *testing.T) {
	runCase(t, pushDesigns, func(h *harness) {
		loadPush(h, rand.New(rand.NewSource(23)), pushRows)
		for range 2 { // c = 0 -> 2 -> 0, twice: the second round's recycled instances change rows
			for _, q := range []string{"UPDATE t SET c = 2 WHERE c = 0", "UPDATE t SET c = 0 WHERE c = 2"} {
				if h.run(q).n == 0 {
					h.t.Fatalf("%s changes no row", q)
				}
			}
		}
		h.run("UPDATE t SET c = c + 1 WHERE c < ?", int64(2))
		h.run("MERGE INTO t AS tt USING (SELECT k + ?, a, c FROM t WHERE b = 1) AS ss (k, a, c) ON (tt.k = ss.k) "+
			"WHEN MATCHED THEN UPDATE SET b = 1 WHEN NOT MATCHED THEN INSERT (k, a, b, c) VALUES (ss.k, ss.a, 1, ss.c)", int64(pushRows-40))
		h.run("DELETE FROM t WHERE a >= ?", int64(2))
	})
}

// corrupt stores each of bad(tuple) in place of the tuple of row 300 of t,
// clustered on k, and calls check after each.
func corrupt(t *testing.T, h *harness, check func(n int), bad ...func(tuple []byte) []byte) {
	tb, _ := h.db.Catalog().Get("t")
	it := tb.LookupEq(nil, []record.Value{record.Int(300)})
	if !it.Next() {
		t.Fatalf("row 300 not found: %v", it.Err())
	}
	tree := tb.Clustered().Tree()
	tuple, _, err := tree.Get(it.Loc().Key)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bad { // k, the key, is column 0: each bad tuple keeps it
		changed := b(slices.Clone(tuple))
		if err := tree.Put(changed, nil); err != nil {
			t.Fatal(err)
		}
		check(len(changed))
	}
}

var (
	cutShort = func(tuple []byte) []byte { return tuple[:len(tuple)-3] }
	tooLong  = func(tuple []byte) []byte { return append(tuple, 0) }
)

// TestPushedPredicateReportsTruncatedTuple: a tuple cut short, or one byte
// too long, is an error of the scan even when the pushed predicate rejects
// the row on a column that lies before the cut.
func TestPushedPredicateReportsTruncatedTuple(t *testing.T) {
	h := openHarness(t, pushDesigns[4])
	loadPush(h, rand.New(rand.NewSource(5)), pushRows)
	queries := []string{"SELECT k FROM t WHERE b = 1000000", "SELECT k FROM t WHERE 1000000 < a", "SELECT k FROM t WHERE k = 300 AND a = 1000000"}
	for _, q := range queries {
		h.run(q)
	}
	corrupt(t, h, func(n int) {
		for _, q := range queries {
			if rows, err := h.sess.Query(q); err == nil || !strings.Contains(err.Error(), "malformed") {
				t.Fatalf("%s over a %d-byte tuple: %v, error %v", q, n, rows, err)
			}
		}
	}, cutShort, tooLong)
}

// foldQ folds on the pages of t (table.Table.Fold): COUNT(*) and MIN or MAX
// of a column or of a + of columns, without GROUP BY, over a sequential
// scan with no residual. foldWheres are pushed comparisons with literal and
// bound operands: the rows with wrapping sums among those they pass, no row
// passing, NULL.
const foldQ = "SELECT MIN(a), MAX(b), MIN(a + b), COUNT(*) FROM t"

var foldWheres = []struct {
	where string
	args  []any
}{
	{"", nil}, {" WHERE c = 1", nil}, {" WHERE c <> ? AND b >= ?", []any{int64(0), int64(-200)}},
	{" WHERE ? < a AND c <= 2", []any{int64(-500)}}, {" WHERE c > 100", nil}, {" WHERE c = ?", []any{nil}},
}

// loadFold fills t with small values and, every 50th and 70th row, a and b
// whose sum wraps past MaxInt64 or MinInt64.
func loadFold(h *harness) {
	rng := rand.New(rand.NewSource(38))
	var rows [][]int64
	for k := int64(0); k < pushRows; k++ {
		a, b, c := rng.Int63n(2001)-1000, rng.Int63n(2001)-1000, rng.Int63n(6)-2
		switch {
		case k%50 == 7:
			a, b = math.MaxInt64-rng.Int63n(100), 100+rng.Int63n(100)
		case k%70 == 3:
			a, b = math.MinInt64+rng.Int63n(100), -100-rng.Int63n(100)
		}
		rows = append(rows, []int64{k, a, b, c})
	}
	h.fill("t", "k, a, b, c", rows...)
}

// TestScanFold: the fold answers as the reference does; it fetches the
// pages the row scan under its WHERE fetches; one prepared statement run
// from two goroutines at once answers each right; and a truncated tuple
// fails it with the error the row scan reports.
func TestScanFold(t *testing.T) {
	runCase(t, pushDesigns, func(h *harness) {
		loadFold(h)
		for i, c := range foldWheres {
			if m := h.run(foldQ+c.where, c.args...).rows[0]; i == 0 && m[2].I >= m[0].I+m[1].I {
				h.t.Fatalf("no sum wraps: MIN(a + b) %d", m[2].I)
			}
			if folded, scanned := fetched(h, foldQ+c.where, c.args...), fetched(h, "SELECT k FROM t"+c.where, c.args...); folded != scanned {
				h.t.Errorf("%s: the fold fetched %d pages, the scan %d", c.where, folded, scanned)
			}
		}
		ref, st := readRef(h.t, h.db), h.parse(foldQ+foldWheres[2].where)
		concurrently(h, foldQ+foldWheres[2].where, func(w, i int64) []any { return []any{(i+w)%4 - 2, i*50 - 500} },
			func(args []any) []record.Row { return evalRef(ref, st, args).rows })
	})

	h := openHarness(t, pushDesigns[4])
	loadFold(h)
	corrupt(t, h, func(int) {
		cause := func(err error) string { s, _, _ := strings.Cut(fmt.Sprint(err), "\n"); return s } // the statement follows its cause
		_, scanErr := h.sess.Query("SELECT a FROM t")
		if scanErr == nil || !strings.Contains(cause(scanErr), "malformed") {
			t.Fatalf("the row scan over a truncated tuple: %v", scanErr)
		}
		for _, c := range foldWheres[:5] {
			if res, err := h.sess.Query(foldQ+c.where, c.args...); err == nil || cause(err) != cause(scanErr) {
				t.Errorf("%s over a truncated tuple: %v, error %v; want %v", c.where, res, err, scanErr)
			}
		}
	}, cutShort)
}

// concurrently runs one prepared query from two goroutines at once, each
// binding args(w, i) for i < 20, and compares every result, rows in order,
// with want(args).
func concurrently(h *harness, q string, args func(w, i int64) []any, want func([]any) []record.Row) {
	st, err := h.db.Prepare(q)
	if err != nil {
		h.t.Fatal(err)
	}
	wants := map[string][]record.Row{}
	for w := int64(0); w < 2; w++ {
		for i := int64(0); i < 20; i++ {
			if _, ok := wants[fmt.Sprint(args(w, i))]; !ok {
				wants[fmt.Sprint(args(w, i))] = want(args(w, i))
			}
		}
	}
	var wg sync.WaitGroup
	for w := int64(0); w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 20; i++ {
				if res, err := st.Query(args(w, i)...); err != nil || !inOrder(res.Data, wants[fmt.Sprint(args(w, i))]) {
					h.t.Errorf("%s %v: got %v %v\nwant %v", q, args(w, i), res, err, wants[fmt.Sprint(args(w, i))])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// inOrder reports whether two lists of rows are equal, row for row.
func inOrder(got, want []record.Row) bool {
	return slices.EqualFunc(got, want, func(a, b record.Row) bool { return slices.Equal(a, b) })
}

// rankCase is the block `SELECT items, ROW_NUMBER() OVER (window) FROM from`
// kept to rank 1, run with each of its bindings in turn.
type rankCase struct {
	name, items, from, window string
	args                      [][]any
}

func (c rankCase) q() string {
	names := make([]string, strings.Count(c.items, ",")+1)
	for i := range names {
		names[i] = fmt.Sprintf("c%d", i)
	}
	list := strings.Join(names, ", ")
	return "SELECT " + list + ", rn FROM (SELECT " + c.items + ", ROW_NUMBER() OVER (" + c.window + ") FROM " + c.from +
		") tmp (" + list + ", rn) WHERE rn = 1"
}

// rankCases are windows over scans, index probes and joins: ties on the
// order values, one and two partition and order columns, no PARTITION BY, a
// partition on an argument (NULL among them), empty input; "retention"
// crosses the size above which Close drops the slabs and back (6 · bound
// offers, 5 · bound partitions: o.x repeats one value).
var rankCases = []rankCase{
	{"ties", "k, a, b, c", "t", "PARTITION BY a ORDER BY b", [][]any{nil}},
	{"two_columns", "k, a, b, c", "t", "PARTITION BY a, b ORDER BY c, 0 - k", [][]any{nil}},
	{"no_partition", "k, b, c", "t", "ORDER BY b, c", [][]any{nil}},
	{"argument", "k, a, c", "t", "PARTITION BY a + ? ORDER BY c", [][]any{{int64(1)}, {nil}, {int64(-2)}}},
	{"empty", "k, a", "t WHERE k < 0", "PARTITION BY a ORDER BY k", [][]any{nil}},
	{"probe", "k, b, c", "t WHERE a = ?", "PARTITION BY b ORDER BY c", [][]any{{int64(1)}, {int64(3)}, {int64(9)}}},
	{"join", "o.y, t.k, t.c", "o, t WHERE o.x = t.a", "PARTITION BY t.c ORDER BY o.y, t.k", [][]any{nil}},
	{"retention", "t.k, o.x, t.c", "o, t WHERE t.k < ?", "PARTITION BY t.k, o.x ORDER BY t.c",
		[][]any{{int64(pushRows)}, {int64(10)}, {int64(10)}, {int64(1)}, {int64(pushRows)}, {int64(1)}}},
}

// rankWant checks the query that reads c's window input (the same FROM and
// WHERE, so the same plan and row order) and returns the reference's answer
// to c fed those rows in that order: of rows that tie, the earliest wins,
// and the winners come in input order.
func rankWant(h *harness, ref refDB, c rankCase, args []any) []record.Row {
	st := h.parse(c.q())
	block := st.(*sql.SelectStmt).From[0].Sub
	var cols []string
	for _, f := range block.From {
		for _, col := range ref.table(f.Table).cols {
			cols = append(cols, f.Name()+"."+col)
		}
	}
	input, in := "SELECT "+strings.Join(cols, ", ")+" FROM "+c.from, args[len(args)-strings.Count(c.from, "?"):]
	h.run(input, in...)
	rows, err := h.sess.Query(input, in...)
	if err != nil {
		h.t.Fatalf("%s %v: %v", input, in, err)
	}
	e := newRef(ref, args)
	e.given = map[*sql.SelectStmt][]record.Row{block: rows.Data}
	return e.run(st).rows
}

// TestRankOneWindow checks the Window operator against the reference fed
// its input in the plan's order, whole rows in order. Every case runs its
// bindings through one prepared statement, twice, so the operator instance
// is recycled; then two executions of the retention statement run at once.
func TestRankOneWindow(t *testing.T) {
	runCase(t, pushDesigns, func(h *harness) {
		loadPush(h, rand.New(rand.NewSource(7)), pushRows)
		ref := readRef(h.t, h.db)
		for _, c := range rankCases {
			st, err := h.db.Prepare(c.q())
			want := make([][]record.Row, len(c.args))
			for i, args := range c.args {
				want[i] = rankWant(h, ref, c, args)
			}
			for rep := 0; rep < 2 && err == nil; rep++ {
				for i, args := range c.args {
					if rows, err := st.Query(args...); err != nil || !inOrder(rows.Data, want[i]) {
						h.t.Fatalf("%s rep %d %v: got %v %v\nwant %v", c.name, rep, args, rows, err, want[i])
					}
				}
			}
			if err != nil {
				h.t.Fatal(err)
			}
		}
		c := rankCases[len(rankCases)-1]
		concurrently(h, c.q(), func(w, _ int64) []any { return []any{[]int64{pushRows, 30}[w]} },
			func(args []any) []record.Row { return rankWant(h, ref, c, args) })
	})
}

// The row-lifetime battery: a row an operator returns is valid until its
// next Next (scans decode into one buffer, joins and projections rebuild
// one row), so every operator that keeps rows must copy them. Each runs a
// keeper over t (k, g, v, w), 2000 rows (~10 heap pages, ~15 clustered
// leaves): v is distinct, w is the v of the row after, g is indexed.
var lifeDesigns = designsOf("t", "k, g, v, w", "k", "g", allDesigns...)

func loadLife(h *harness) {
	val := func(k int64) int64 { return (k % 2000) * 7919 % 10007 }
	var rows [][]int64
	for k := int64(0); k < 2000; k++ {
		rows = append(rows, []int64{k, k % 97, val(k), val(k + 1)})
	}
	h.fill("t", "k, g, v, w", rows...)
}

func lifeCase(t *testing.T, stmts ...string) {
	runCase(t, lifeDesigns, func(h *harness) {
		loadLife(h)
		for _, q := range stmts {
			h.run(q)
		}
	})
}

// TestRowLifetimeSort: the list a query returns is the rows' own copies.
func TestRowLifetimeSort(t *testing.T) { lifeCase(t, "SELECT k, v FROM t") }

// TestRowLifetimeWindow: the window keeps each partition's winner, every
// column of it, however many pages later its last offer comes.
func TestRowLifetimeWindow(t *testing.T) {
	lifeCase(t, "SELECT k, g, v, w, rn FROM (SELECT k, g, v, w, ROW_NUMBER() OVER (PARTITION BY g ORDER BY v) FROM t) tmp (k, g, v, w, rn) WHERE rn = 1")
}

// TestRowLifetimeHashJoinBuild: no index is on v or w, so b is the hash
// join's build side; a.v = b.w pairs every row with the one before it.
func TestRowLifetimeHashJoinBuild(t *testing.T) {
	lifeCase(t, "SELECT a.k, b.k, b.g FROM t a, t b WHERE a.v = b.w")
}

// TestRowLifetimeMatchLists: the UPDATE, DELETE and MERGE match lists, with
// matches on every page; index maintenance needs each match's old row.
func TestRowLifetimeMatchLists(t *testing.T) {
	runCase(t, lifeDesigns, func(h *harness) {
		loadLife(h)
		h.run("UPDATE t SET v = v + 100000 WHERE g < ?", int64(50))
		h.run("UPDATE t SET v = v + 100000 WHERE g < ?", int64(20))
		h.run("UPDATE t SET g = g + 1000 WHERE v > ?", int64(100500))
		h.run("DELETE FROM t WHERE g >= ? AND g < 1000", int64(90))
		h.load("CREATE TABLE s (k INT, g INT, v INT, w INT)")
		var src [][]int64
		for k := int64(0); k < 2100; k += 7 {
			src = append(src, []int64{k, 5, k * 3, 1})
		}
		h.fill("s", "k, g, v, w", src...)
		h.run("MERGE INTO t AS tt USING s AS ss ON (tt.k = ss.k) WHEN MATCHED AND tt.v < ss.v THEN UPDATE SET v = ss.v, g = ss.g " +
			"WHEN NOT MATCHED THEN INSERT (k, g, v, w) VALUES (ss.k, ss.g, ss.v, ss.w)")
	})
}

// TestRowLifetimeMergeSourceReadsTarget merges t with a query over t: the
// source must be read in full before the first change.
func TestRowLifetimeMergeSourceReadsTarget(t *testing.T) {
	runCase(t, lifeDesigns, func(h *harness) {
		loadLife(h)
		h.run("MERGE INTO t AS tt USING (SELECT k + ?, g, v + 1, w FROM t WHERE g = 3) AS ss (k, g, v, w) ON (tt.k = ss.k) "+
			"WHEN MATCHED THEN UPDATE SET v = ss.v WHEN NOT MATCHED THEN INSERT (k, g, v, w) VALUES (ss.k, ss.g, ss.v, ss.w)", int64(1970))
	})
}

// TestConcurrentPreparedSelect runs one prepared SELECT from many sessions
// at once. Executions that overlap must each get an operator instance of
// their own: a page or row buffer shared between two would show as a
// differing result (and as a race under -race).
func TestConcurrentPreparedSelect(t *testing.T) {
	for _, d := range lifeDesigns[:3] {
		t.Run(d.name, func(t *testing.T) {
			h := openHarness(t, d)
			loadLife(h)
			const q = "SELECT a.k, b.k, a.v FROM t a, t b WHERE a.v = b.w AND a.g < ?"
			want, err := h.sess.Query(q, int64(40))
			var wg sync.WaitGroup
			for w := 0; w < 8 && err == nil; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sess := h.db.Session()
					defer sess.Close()
					st, err := sess.Prepare(q)
					for i := 0; i < 5 && err == nil; i++ {
						var rows *rdb.Rows
						if rows, err = st.Query(int64(40)); err == nil {
							if _, _, ok := sameRows(rows.Data, want.Data); !ok {
								err = fmt.Errorf("concurrent execution returned a different result (%d rows)", len(rows.Data))
							}
						}
					}
					if err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestScanAllocsIndependentOfRowCount is the allocation guard of the scan
// path: the frontier MIN probe and the BSDJ F-select (one matching row) over
// a TVisited-shaped table must cost the same number of allocations whether
// they scan 64 rows or 1024.
func TestScanAllocsIndependentOfRowCount(t *testing.T) {
	allocs := func(n int64) float64 {
		h := openHarness(t, design{ddl: []string{"CREATE TABLE v (nid INT PRIMARY KEY, d2s INT, p2s INT, f INT, d2t INT, p2t INT, b INT)"}})
		defer h.db.Close()
		for i := int64(0); i < n; i++ {
			h.load("INSERT INTO v (nid, d2s, p2s, f, d2t, p2t, b) VALUES (?, ?, ?, 0, 0, ?, 1)", i, 10+(i*37)%n, int64(-1), int64(-1))
		}
		var stmts []*rdb.Stmt // the MIN probe, the F-select and its reset
		for _, q := range []string{"SELECT MIN(d2s) FROM v WHERE f = 0",
			"UPDATE v SET f = 2 WHERE f = 0 AND d2s = (SELECT MIN(d2s) FROM v WHERE f = 0)", "UPDATE v SET f = 0 WHERE f = 2"} {
			st, err := h.sess.Prepare(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			stmts = append(stmts, st)
		}
		return testing.AllocsPerRun(50, func() {
			if d, null, err := stmts[0].QueryInt(); err != nil || null || d != 10 {
				t.Fatalf("MIN probe: %d %v %v", d, null, err)
			}
			for i, st := range stmts[1:] {
				if res, err := st.Exec(); err != nil || res.RowsAffected != 1 {
					t.Fatalf("%s: %d rows, %v", []string{"F-select", "reset"}[i], res.RowsAffected, err)
				}
			}
		})
	}
	small, large := allocs(64), allocs(1024)
	t.Logf("allocations per (MIN probe + F-select + reset): %.0f at n=64, %.0f at n=1024", small, large)
	if large-small > 8 {
		t.Fatalf("allocations grow with the row count: %.0f at n=64, %.0f at n=1024", small, large)
	}
}

// TestExistsDrivenDeleteDifferential: `DELETE FROM t WHERE EXISTS (SELECT
// ... FROM d WHERE d.x = t.a ...)` runs from d, probing t, when an index of
// t starts with the correlated column, and as a scan of t otherwise; d holds
// duplicate keys. Each statement runs first while d is empty, as the engine
// prepares its repair statements, then after each refill of d.
func TestExistsDrivenDeleteDifferential(t *testing.T) {
	for _, tc := range []struct {
		q    string
		args []any
	}{
		{"DELETE FROM t WHERE EXISTS (SELECT x FROM d WHERE d.x = t.a)", nil},
		{"DELETE FROM t WHERE EXISTS (SELECT x FROM d WHERE d.x = t.a AND d.y < t.b)", nil},
		{"DELETE FROM t WHERE EXISTS (SELECT DISTINCT y FROM d WHERE t.b = d.y AND t.a = d.x)", nil},
		{"DELETE FROM t WHERE c >= ? AND EXISTS (SELECT x FROM d WHERE d.x = t.a) AND k <> b", []any{int64(1)}},
		{"DELETE FROM t WHERE EXISTS (SELECT x FROM d WHERE d.x = t.a AND d.y > ?)", []any{int64(0)}},
		{"DELETE FROM t WHERE EXISTS (SELECT k FROM t m WHERE m.b = t.a AND m.k < t.k)", nil},
	} {
		designs := designsOf("t", "k, a, b, c", "k", "a, b", "clustered_prefix", "secondary", "heap")
		for i := range designs {
			designs[i].name += "/" + tc.q
		}
		runCase(t, designs, func(h *harness) {
			h.load("CREATE TABLE d (x INT, y INT)")
			rng := rand.New(rand.NewSource(7))
			h.run(tc.q, tc.args...)
			for rep := 0; rep < 3; rep++ {
				h.load("DELETE FROM t")
				h.fill("t", "k, a, b, c", smallRows(rng, pushRows/2)...)
				h.load("DELETE FROM d") // then repeats, and rows that match no row of t
				for i := 0; i < 2+rep; i++ {
					x, y := rng.Int63n(6)-2, rng.Int63n(6)-2
					for n := 1 + rng.Intn(2); n > 0; n-- {
						h.fill("d", "x, y", []int64{x, y})
					}
				}
				h.fill("d", "x, y", []int64{9, 1}, []int64{1, -1}, []int64{0, 2})
				if out := h.run(tc.q, tc.args...); out.n == 0 || len(out.db["t"].rows) == 0 {
					h.t.Fatalf("rep %d: %d of %d rows deleted", rep, out.n, pushRows/2)
				}
			}
		})
	}
}

// TestDirectWritesMatchReference: on a table clustered on a unique key with
// no secondary index, an UPDATE or MERGE the planner's gate admits changes
// each row through the leaf its scan or probe read. These run statements the
// gate sends down either path there and in designs that never write through
// a scan. The source s is the same heap in each, so the designs must agree
// where the outcome follows the source's order.
func TestDirectWritesMatchReference(t *testing.T) {
	// 600 rows of even keys fill three leaves, each full (a key-ordered load
	// leaves them so): the first odd key a MERGE inserts has no room.
	var evens, odds, thirds [][]int64
	for k := int64(0); k < 1200; k += 2 {
		evens = append(evens, []int64{k, k / 2, 0})
		thirds = append(thirds, []int64{k, k / 2, k / 2 % 3}) // a pushed f = 1 passes every third row
	}
	for k := int64(1); k < 1200; k += 4 {
		odds = append(odds, []int64{k, 1, 0})
	}
	merge := "MERGE INTO t AS tt USING s AS ss ON (tt.k = ss.k) WHEN MATCHED AND tt.d > ss.d THEN UPDATE SET d = ss.d, f = 0 " +
		"WHEN NOT MATCHED THEN INSERT (k, d, f) VALUES (ss.k, ss.d, 0)"
	cases := []struct {
		name, cols, key, also string
		rows, src             [][]int64
		stmts                 []string
	}{
		// frontierQ's shape: the MIN is evaluated first at the row the OR's
		// left side rejects, after rows before it were stamped.
		{"update-reads-own-target", "k, d, f", "k", "d", evens, nil, []string{
			"UPDATE t SET f = 7 WHERE f = 0 AND (d < 5 OR d = (SELECT MIN(d) FROM t WHERE f = 0))", "UPDATE t SET f = 8 WHERE f = 0 AND d < 300"}},
		{"update-every-third-row", "k, d, f", "k", "d", thirds, nil, []string{
			"UPDATE t SET d = d + 1000 WHERE f = 1", "UPDATE t SET f = 2, d = 0 WHERE f = 0 AND d > 100"}},
		{"merge-two-source-rows-one-key", "k, d, f", "k", "d", evens,
			[][]int64{{4, 1, 0}, {4, 0, 0}, {1001, 9, 0}, {1001, 3, 0}, {1001, 5, 0}}, []string{merge}},
		{"merge-inserts-split-leaves", "k, d, f", "k", "d", evens, append(slices.Clone(odds), []int64{6, 0, 0}, []int64{600, 0, 0}), []string{merge}},
		{"merge-insert-taken-key", "k, d, f", "k", "d", evens, [][]int64{{2001, 1, 0}, {2001, 2, 0}}, []string{
			"MERGE INTO t AS tt USING s AS ss ON (tt.k = ss.k AND tt.f = 9) WHEN MATCHED THEN UPDATE SET d = ss.d " +
				"WHEN NOT MATCHED THEN INSERT (k, d, f) VALUES (ss.k, ss.d, 0)"}},
		{"set-changes-key", "k, d, f", "k", "d", evens, nil, []string{"UPDATE t SET k = k + 5001, f = 1 WHERE d < 40"}},
		// A NULL probe key (the ? binds NULL) matches nothing, and the insert
		// that follows does not go through the probe that found nothing.
		{"merge-null-probe-key", "k, d, f", "k", "d", evens, odds[:40], []string{"MERGE INTO t AS tt USING s AS ss ON (tt.k = ss.k + ?) " +
			"WHEN MATCHED THEN UPDATE SET d = ss.d WHEN NOT MATCHED THEN INSERT (k, d, f) VALUES (ss.k + 5001, ss.d, 0)"}},
		{"composite-key-merge", "a, b, c", "a, b", "c", [][]int64{{1, 1, 10}, {1, 2, 10}, {2, 1, 10}, {3, 3, 10}},
			[][]int64{{1, 2, 4}, {2, 2, 4}, {3, 3, 40}, {1, 2, 3}}, []string{
				"MERGE INTO t AS tt USING s AS ss ON (tt.a = ss.a AND tt.b = ss.b) WHEN MATCHED AND tt.c > ss.c THEN UPDATE SET c = ss.c " +
					"WHEN NOT MATCHED THEN INSERT (a, b, c) VALUES (ss.a, ss.b, ss.c)", "UPDATE t SET c = c + 1 WHERE a = 1"}},
	}
	direct := func(t *testing.T, i int, designs ...string) {
		c := cases[i]
		runCase(t, designsOf("t", c.cols, c.key, c.also, designs...), func(h *harness) {
			h.ordered = true
			h.fill("t", c.cols, c.rows...)
			h.load("CREATE TABLE s (" + strings.ReplaceAll(c.cols, ",", " INT,") + " INT)")
			h.fill("s", c.cols, c.src...)
			for _, q := range c.stmts {
				h.run(q, make([]any, strings.Count(q, "?"))...)
			}
		})
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) { direct(t, i, "write_through", "heap_index", "clustered") })
	}
	t.Run("clustered_prefix", func(t *testing.T) { direct(t, 2, "write_through", "clustered_prefix") })
}
