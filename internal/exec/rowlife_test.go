package exec_test

// The row-lifetime battery. A row an operator returns is only valid until
// the operator's next Next — scans decode into one buffer, joins and
// projections rebuild one output row — so every operator that keeps rows
// must copy them. These tests run the keepers (a query's result list,
// ROW_NUMBER's winners, the hash-join build side, the UPDATE/DELETE/MERGE
// match lists) over tables that span several leaves and pages, in all three
// physical designs, and check every row of the outcome against a model in
// Go. They go through rdb sessions, the way statements reach the executor,
// and run each statement more than once, so the recycled operator instances
// of the plan cache are what executes.

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/rdb"
)

const batteryRows = 2000 // ~10 heap pages, ~15 clustered leaves

// row is the model of one battery row: v is distinct per row, w is the v of
// the row after it, g is what the secondary index is on.
type row struct{ k, g, v, w int64 }

func modelRow(k int64) row {
	val := func(k int64) int64 { return (k % batteryRows) * 7919 % 10007 }
	return row{k: k, g: k % 97, v: val(k), w: val(k + 1)}
}

// design is one physical design of the battery table.
type design struct {
	name string
	ddl  []string
}

var designs = []design{
	{"clustered", []string{"CREATE TABLE t (k INT PRIMARY KEY, g INT, v INT, w INT)"}},
	{"heap_index", []string{"CREATE TABLE t (k INT, g INT, v INT, w INT)",
		"CREATE UNIQUE INDEX t_k ON t (k)", "CREATE INDEX t_g ON t (g)"}},
	{"heap", []string{"CREATE TABLE t (k INT, g INT, v INT, w INT)"}},
}

// battery is a database holding table t in one design, and t's model.
type battery struct {
	t     *testing.T
	db    *rdb.DB
	sess  *rdb.Session
	model map[int64]row
}

func newBattery(t *testing.T, d design) *battery {
	t.Helper()
	db, err := rdb.Open(rdb.Options{BufferPoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	b := &battery{t: t, db: db, sess: db.Session(), model: map[int64]row{}}
	for _, q := range d.ddl {
		b.exec(q)
	}
	for k := int64(0); k < batteryRows; k++ {
		r := modelRow(k)
		b.exec("INSERT INTO t (k, g, v, w) VALUES (?, ?, ?, ?)", r.k, r.g, r.v, r.w)
		b.model[k] = r
	}
	return b
}

func (b *battery) exec(q string, args ...any) int64 {
	b.t.Helper()
	res, err := b.sess.Exec(q, args...)
	if err != nil {
		b.t.Fatalf("%s: %v", q, err)
	}
	return res.RowsAffected
}

// query returns the result as rows of ints, ordered by their first column
// (the dialect has no ORDER BY; a scan's order depends on the design).
func (b *battery) query(q string, args ...any) [][]int64 {
	b.t.Helper()
	rows, err := b.sess.Query(q, args...)
	if err != nil {
		b.t.Fatalf("%s: %v", q, err)
	}
	out := ints(b.t, rows)
	sort.SliceStable(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

func ints(t *testing.T, rows *rdb.Rows) [][]int64 {
	t.Helper()
	out := make([][]int64, len(rows.Data))
	for i, r := range rows.Data {
		out[i] = make([]int64, len(r))
		for j, v := range r {
			if v.Null {
				t.Fatalf("row %d column %d is NULL", i, j)
			}
			out[i][j] = v.I
		}
	}
	return out
}

// sorted returns the model's rows in key order.
func (b *battery) sorted() []row {
	out := make([]row, 0, len(b.model))
	for _, r := range b.model {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].k < out[j].k })
	return out
}

// check compares the stored table with the model, row for row, through a
// full scan and — where the design has the index — through a probe of every
// g value, which finds index entries a mutation left behind or lost.
func (b *battery) check(d design) {
	b.t.Helper()
	want := b.sorted()
	got := b.query("SELECT k, g, v, w FROM t")
	if len(got) != len(want) {
		b.t.Fatalf("table has %d rows, model %d", len(got), len(want))
	}
	for i, r := range want {
		if g := got[i]; g[0] != r.k || g[1] != r.g || g[2] != r.v || g[3] != r.w {
			b.t.Fatalf("row %d: stored %v, model %+v", i, g, r)
		}
	}
	if d.name != "heap_index" {
		return
	}
	byG := map[int64][]int64{}
	for _, r := range want {
		byG[r.g] = append(byG[r.g], r.v)
	}
	for g, vs := range byG {
		rows := b.query("SELECT k, v FROM t WHERE g = ?", g)
		if len(rows) != len(vs) {
			b.t.Fatalf("index probe g=%d: %d rows, model %d", g, len(rows), len(vs))
		}
		for i := range vs {
			if rows[i][1] != vs[i] {
				b.t.Fatalf("index probe g=%d row %d: v=%d, model %d", g, i, rows[i][1], vs[i])
			}
		}
	}
}

func forEachDesign(t *testing.T, f func(t *testing.T, b *battery, d design)) {
	for _, d := range designs {
		t.Run(d.name, func(t *testing.T) { f(t, newBattery(t, d), d) })
	}
}

// TestRowLifetimeSort: the list a query returns is the rows' own copies, so
// a client can keep it and sort it (the dialect leaves ordering to the
// client) after the scan has overwritten its buffer many pages over.
func TestRowLifetimeSort(t *testing.T) {
	forEachDesign(t, func(t *testing.T, b *battery, d design) {
		want := b.sorted()
		sort.Slice(want, func(i, j int) bool { return want[i].v > want[j].v })
		for rep := 0; rep < 2; rep++ {
			got := b.query("SELECT k, v FROM t")
			sort.Slice(got, func(i, j int) bool { return got[i][1] > got[j][1] })
			if len(got) != len(want) {
				t.Fatalf("%d rows, want %d", len(got), len(want))
			}
			for i, r := range want {
				if got[i][0] != r.k || got[i][1] != r.v {
					t.Fatalf("rep %d position %d: got %v, want k=%d v=%d", rep, i, got[i], r.k, r.v)
				}
			}
		}
	})
}

// TestRowLifetimeWindow: the window keeps each partition's winner while its
// input scans on, so the winner is the Window's own copy of the row, every
// column of it, however many pages later the partition's last offer comes.
func TestRowLifetimeWindow(t *testing.T) {
	forEachDesign(t, func(t *testing.T, b *battery, d design) {
		// the row with the least v (v is distinct) of each g partition
		best := map[int64]row{}
		for _, r := range b.sorted() {
			if w, ok := best[r.g]; !ok || r.v < w.v {
				best[r.g] = r
			}
		}
		for rep := 0; rep < 2; rep++ {
			got := b.query("SELECT k, g, v, w, rn FROM (SELECT k, g, v, w, ROW_NUMBER() OVER (PARTITION BY g ORDER BY v) FROM t) " +
				"tmp (k, g, v, w, rn) WHERE rn = 1")
			if len(got) != len(best) {
				t.Fatalf("%d rows, want %d", len(got), len(best))
			}
			for _, r := range got {
				if w := best[r[1]]; r[0] != w.k || r[2] != w.v || r[3] != w.w || r[4] != 1 {
					t.Fatalf("rep %d: row %v, want %+v ranked 1", rep, r, w)
				}
			}
		}
	})
}

func TestRowLifetimeHashJoinBuild(t *testing.T) {
	forEachDesign(t, func(t *testing.T, b *battery, d design) {
		// No index is on v or w, so b is the hash join's build side; a.v = b.w
		// pairs every row with the one before it.
		for rep := 0; rep < 2; rep++ {
			got := b.query("SELECT a.k, b.k, b.g FROM t a, t b WHERE a.v = b.w")
			if len(got) != batteryRows {
				t.Fatalf("%d rows, want %d", len(got), batteryRows)
			}
			seen := map[int64]bool{}
			for _, r := range got {
				prev := (r[0] + batteryRows - 1) % batteryRows
				if seen[r[0]] || r[1] != prev || r[2] != prev%97 {
					t.Fatalf("rep %d: joined %v, want b.k=%d", rep, r, prev)
				}
				seen[r[0]] = true
			}
		}
	})
}

func TestRowLifetimeMatchLists(t *testing.T) {
	forEachDesign(t, func(t *testing.T, b *battery, d design) {
		// UPDATE of an unindexed column, twice (recycled instance), over
		// matches on every page.
		for _, bound := range []int64{50, 20} {
			n := b.exec("UPDATE t SET v = v + 100000 WHERE g < ?", bound)
			var want int64
			for k, r := range b.model {
				if r.g < bound {
					r.v += 100000
					b.model[k] = r
					want++
				}
			}
			if n != want {
				t.Fatalf("UPDATE g < %d affected %d rows, want %d", bound, n, want)
			}
			b.check(d)
		}
		// UPDATE of the indexed column: index maintenance needs each match's
		// old row intact.
		n := b.exec("UPDATE t SET g = g + 1000 WHERE v > ?", 100500)
		var want int64
		for k, r := range b.model {
			if r.v > 100500 {
				r.g += 1000
				b.model[k] = r
				want++
			}
		}
		if n != want {
			t.Fatalf("UPDATE of g affected %d rows, want %d", n, want)
		}
		b.check(d)

		n = b.exec("DELETE FROM t WHERE g >= ? AND g < 1000", 90)
		want = 0
		for k, r := range b.model {
			if r.g >= 90 && r.g < 1000 {
				delete(b.model, k)
				want++
			}
		}
		if n != want {
			t.Fatalf("DELETE affected %d rows, want %d", n, want)
		}
		b.check(d)

		// MERGE from a second table: updates, skips and inserts.
		b.exec("CREATE TABLE s (k INT, g INT, v INT, w INT)")
		for k := int64(0); k < batteryRows+100; k += 7 {
			b.exec("INSERT INTO s (k, g, v, w) VALUES (?, ?, ?, ?)", k, int64(5), k*3, int64(1))
		}
		n = b.exec("MERGE INTO t AS tt USING s AS ss ON (tt.k = ss.k) " +
			"WHEN MATCHED AND tt.v < ss.v THEN UPDATE SET v = ss.v, g = ss.g " +
			"WHEN NOT MATCHED THEN INSERT (k, g, v, w) VALUES (ss.k, ss.g, ss.v, ss.w)")
		want = 0
		for k := int64(0); k < batteryRows+100; k += 7 {
			r, ok := b.model[k]
			switch {
			case !ok:
				b.model[k] = row{k: k, g: 5, v: k * 3, w: 1}
				want++
			case r.v < k*3:
				r.v, r.g = k*3, 5
				b.model[k] = r
				want++
			}
		}
		if n != want {
			t.Fatalf("MERGE affected %d rows, want %d", n, want)
		}
		b.check(d)
	})
}

// TestRowLifetimeMergeSourceReadsTarget merges t with a query over t: the
// source must be read in full before the first change, or the statement
// would see its own inserts and updates.
func TestRowLifetimeMergeSourceReadsTarget(t *testing.T) {
	forEachDesign(t, func(t *testing.T, b *battery, d design) {
		const shift = batteryRows - 30
		for rep := 0; rep < 2; rep++ {
			n := b.exec("MERGE INTO t AS tt USING (SELECT k + ?, g, v + 1, w FROM t WHERE g = 3) AS ss (k, g, v, w) "+
				"ON (tt.k = ss.k) WHEN MATCHED THEN UPDATE SET v = ss.v "+
				"WHEN NOT MATCHED THEN INSERT (k, g, v, w) VALUES (ss.k, ss.g, ss.v, ss.w)", int64(shift))
			var src []row
			for _, r := range b.sorted() {
				if r.g == 3 {
					src = append(src, r)
				}
			}
			for _, s := range src {
				if r, ok := b.model[s.k+shift]; ok {
					r.v = s.v + 1
					b.model[r.k] = r
				} else {
					b.model[s.k+shift] = row{k: s.k + shift, g: s.g, v: s.v + 1, w: s.w}
				}
			}
			if n != int64(len(src)) {
				t.Fatalf("rep %d: MERGE affected %d rows, want %d", rep, n, len(src))
			}
			b.check(d)
		}
	})
}

// TestConcurrentPreparedSelect runs one prepared SELECT from many sessions
// at once. Executions that overlap must each get an operator instance of
// their own: a page or row buffer shared between two would show as a
// differing result (and as a race under -race).
func TestConcurrentPreparedSelect(t *testing.T) {
	forEachDesign(t, func(t *testing.T, b *battery, d design) {
		const q = "SELECT a.k, b.k, a.v FROM t a, t b WHERE a.v = b.w AND a.g < ?"
		want := fmt.Sprint(b.query(q, int64(40)))
		const workers, reps = 8, 5
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sess := b.db.Session()
				defer sess.Close()
				st, err := sess.Prepare(q)
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < reps; i++ {
					rows, err := st.Query(int64(40))
					if err != nil {
						t.Error(err)
						return
					}
					out := make([][]int64, len(rows.Data))
					for i, r := range rows.Data {
						out[i] = []int64{r[0].I, r[1].I, r[2].I}
					}
					sort.SliceStable(out, func(i, j int) bool { return out[i][0] < out[j][0] })
					if got := fmt.Sprint(out); got != want {
						t.Errorf("concurrent execution returned a different result (%d rows)", len(out))
						return
					}
				}
			}()
		}
		wg.Wait()
	})
}

// TestScanAllocsIndependentOfRowCount is the allocation guard of the scan
// path: the frontier MIN probe and the BSDJ F-select (one matching row) over
// a TVisited-shaped table must cost the same number of allocations whether
// they scan 64 rows or 1024.
func TestScanAllocsIndependentOfRowCount(t *testing.T) {
	allocs := func(n int64) float64 {
		db, err := rdb.Open(rdb.Options{BufferPoolPages: 256})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		sess := db.Session()
		prepare := func(q string) *rdb.Stmt {
			st, err := sess.Prepare(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			return st
		}
		if _, err := sess.Exec("CREATE TABLE v (nid INT PRIMARY KEY, d2s INT, p2s INT, f INT, d2t INT, p2t INT, b INT)"); err != nil {
			t.Fatal(err)
		}
		ins := prepare("INSERT INTO v (nid, d2s, p2s, f, d2t, p2t, b) VALUES (?, ?, ?, 0, 0, ?, 1)")
		for i := int64(0); i < n; i++ {
			if _, err := ins.Exec(i, 10+(i*37)%n, int64(-1), int64(-1)); err != nil {
				t.Fatal(err)
			}
		}
		minProbe := prepare("SELECT MIN(d2s) FROM v WHERE f = 0")
		fSelect := prepare("UPDATE v SET f = 2 WHERE f = 0 AND d2s = (SELECT MIN(d2s) FROM v WHERE f = 0)")
		reset := prepare("UPDATE v SET f = 0 WHERE f = 2")
		return testing.AllocsPerRun(50, func() {
			if d, null, err := minProbe.QueryInt(); err != nil || null || d != 10 {
				t.Fatalf("MIN probe: %d %v %v", d, null, err)
			}
			for i, st := range []*rdb.Stmt{fSelect, reset} {
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
