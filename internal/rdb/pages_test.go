package rdb

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/storage"
)

// fillValues renders one multi-row INSERT of n rows (id 0..n-1, v = tag),
// so readers see the table either before or after all of them.
func fillValues(name string, n int, tag int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "INSERT INTO %s (id, v) VALUES ", name)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d)", i, tag)
	}
	return b.String()
}

func mustCheckPages(t *testing.T, db *DB, when string) {
	t.Helper()
	if err := db.CheckPages(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// TestDropRecyclesPages: DROP returns every page of the table's storage and
// indexes to the free list, the next tables are built from them without
// growing the file, and a statement prepared against the dropped table
// recompiles instead of reading pages that now belong to someone else.
func TestDropRecyclesPages(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TABLE a (id INT PRIMARY KEY, v INT)")
	mustExec(t, db, "CREATE INDEX a_v ON a (v)")
	mustExec(t, db, fillValues("a", 2000, 7))
	mustCheckPages(t, db, "after fill")
	sel, err := db.Prepare("SELECT COUNT(*) FROM a WHERE v = 7")
	if err != nil {
		t.Fatal(err)
	}
	if n, _, err := sel.QueryInt(); err != nil || n != 2000 {
		t.Fatalf("before drop: %d, %v", n, err)
	}
	tb, _ := db.Catalog().Get("a")
	owned := len(tb.Pages())
	pages := db.Pool().Disk().NumPages()

	mustExec(t, db, "DROP TABLE a")
	if st := db.Stats().Pool; int(st.Free) != owned || st.Leaked != 0 {
		t.Fatalf("drop of a %d-page table: %+v", owned, st)
	}
	mustCheckPages(t, db, "after drop")
	if _, _, err := sel.QueryInt(); err == nil || !strings.Contains(err.Error(), "unknown table") {
		t.Fatalf("a statement over the dropped table ran: %v", err)
	}

	mustExec(t, db, "CREATE TABLE b (id INT PRIMARY KEY, v INT)")
	mustExec(t, db, fillValues("b", 2000, 8))
	mustExec(t, db, "CREATE TABLE a (id INT PRIMARY KEY, v INT)")
	mustExec(t, db, fillValues("a", 10, 7))
	if n, _, err := sel.QueryInt(); err != nil || n != 10 {
		t.Fatalf("recreated a: %d rows, %v", n, err)
	}
	if got := db.Pool().Disk().NumPages(); got != pages {
		t.Fatalf("rebuilding from freed pages grew the file %d -> %d", pages, got)
	}
	if db.Stats().Pool.Recycled == 0 {
		t.Fatal("no page was recycled")
	}
	mustCheckPages(t, db, "after refill")
}

// TestDropRecycleUnderReaders: readers of a table race a writer that drops
// and recreates it while another table churns through the freed pages. DDL
// drains every statement first and the epoch bump recompiles the readers'
// plans, so a reader sees a whole generation of the table or none of it —
// never a row of the other table, which would mean it read a recycled page.
func TestDropRecycleUnderReaders(t *testing.T) {
	db := openDB(t, Options{})
	const rows, gens = 300, 30
	mustExec(t, db, "CREATE TABLE a (id INT PRIMARY KEY, v INT)")
	mustExec(t, db, fillValues("a", rows, 0))
	st, err := db.Prepare("SELECT COUNT(*), MIN(v), MAX(v) FROM a")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	errs := make(chan error, 3)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := st.Query()
				if err != nil {
					if strings.Contains(err.Error(), "unknown table") {
						continue // between DROP and CREATE
					}
					errs <- err
					return
				}
				n, lo, hi := res.Data[0][0].I, res.Data[0][1].I, res.Data[0][2].I
				if n != 0 && (n != rows || lo != hi || lo >= 1000) {
					errs <- fmt.Errorf("reader saw %d rows, v in [%d, %d]", n, lo, hi)
					return
				}
			}
		}()
	}
	for g := 1; g <= gens; g++ {
		mustExec(t, db, "DROP TABLE a")
		mustExec(t, db, "CREATE TABLE b (id INT PRIMARY KEY, v INT)")
		mustExec(t, db, fillValues("b", rows, 1000+g))
		mustExec(t, db, "DROP TABLE b")
		mustExec(t, db, "CREATE TABLE a (id INT PRIMARY KEY, v INT)")
		mustExec(t, db, fillValues("a", rows, g))
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	mustCheckPages(t, db, "after churn")
	if st := db.Stats().Pool; st.Recycled == 0 || st.Leaked != 0 {
		t.Fatalf("pool after churn: %+v", st)
	}
}

// TestCheckPagesReports: a page in no table and not free, and a page both
// in a table and on the free list, are each reported.
func TestCheckPagesReports(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TABLE a (id INT PRIMARY KEY, v INT)")
	mustCheckPages(t, db, "fresh table")
	pg, err := db.Pool().NewPage()
	if err != nil {
		t.Fatal(err)
	}
	orphan := pg.ID()
	db.Pool().Unpin(pg, true)
	if err := db.CheckPages(); err == nil || !strings.Contains(err.Error(), "in no table and not free") {
		t.Fatalf("an orphan page: %v", err)
	}
	db.Pool().Free(orphan)
	mustCheckPages(t, db, "orphan freed")
	tb, _ := db.Catalog().Get("a")
	db.Pool().Free(tb.Pages()[0])
	if err := db.CheckPages(); err == nil || !strings.Contains(err.Error(), "in both") {
		t.Fatalf("a page owned twice: %v", err)
	}
}

// TestTemporaryTable: a TEMPORARY table, its indexes included, takes its
// pages from the temp space and never from the database file; its
// transfers are counted in Stats.Temp, not Stats.IO; DROP hands its pages
// to the temp space's free list, from which the next temporary table
// takes them, and a durable table does not.
func TestTemporaryTable(t *testing.T) {
	db := openDB(t, Options{BufferPoolPages: 8})
	mustExec(t, db, "CREATE TABLE d (id INT PRIMARY KEY, v INT)")
	if err := db.Pool().FlushAll(); err != nil {
		t.Fatal(err)
	}
	writes := db.Stats().IO.Writes
	mustExec(t, db, "CREATE TEMPORARY TABLE s (id INT, v INT)")
	mustExec(t, db, "CREATE UNIQUE CLUSTERED INDEX s_id ON s (id)")
	mustExec(t, db, "CREATE INDEX s_v ON s (v)")
	mustExec(t, db, fillValues("s", 3000, 5))
	file := db.Pool().Disk().NumPages()
	tb, _ := db.Catalog().Get("s")
	if !tb.Temp() || tb.Clustered() == nil || len(tb.Secondary) != 1 {
		t.Fatalf("s: temp %v, clustered %v, %d secondary indexes", tb.Temp(), tb.Clustered() != nil, len(tb.Secondary))
	}
	for _, id := range tb.Pages() {
		if !id.Temp() {
			t.Fatalf("the temporary table holds database page %d", id)
		}
	}
	st := db.Stats()
	if st.Temp.Pages != len(tb.Pages()) || st.Temp.IO.Writes == 0 || st.IO.Writes != writes {
		t.Fatalf("%d temp pages for a %d-page table, %d temp writes, %d database writes",
			st.Temp.Pages, len(tb.Pages()), st.Temp.IO.Writes, st.IO.Writes-writes)
	}
	mustCheckPages(t, db, "after fill")
	if n, _, err := db.QueryInt("SELECT COUNT(*) FROM s WHERE v = 5"); err != nil || n != 3000 {
		t.Fatalf("count %d, %v", n, err)
	}

	mustExec(t, db, "DROP TABLE s")
	mustExec(t, db, fillValues("d", 3000, 1))
	if got := db.Stats().Temp.Pages; got != st.Temp.Pages {
		t.Fatalf("the temp space went from %d to %d pages", st.Temp.Pages, got)
	}
	if db.Pool().Disk().NumPages() == file {
		t.Fatal("the durable table took the temp space's freed pages")
	}
	mustExec(t, db, "CREATE TEMPORARY TABLE s (id INT PRIMARY KEY, v INT)")
	mustExec(t, db, fillValues("s", 3000, 6))
	if got := db.Stats().Temp.Pages; got != st.Temp.Pages {
		t.Fatalf("refilling from freed temp pages grew the temp space %d -> %d", st.Temp.Pages, got)
	}
	mustCheckPages(t, db, "after refill")
}

// TestCheckPagesReportsTemp: CheckPages reports a temp page in no table
// and not free, and one both in a temporary table and on the free list.
func TestCheckPagesReportsTemp(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TEMPORARY TABLE s (id INT PRIMARY KEY, v INT)")
	mustCheckPages(t, db, "fresh table")
	pg, err := db.Pool().NewPageFor(db.Pool().Owner("s").InTemp())
	if err != nil {
		t.Fatal(err)
	}
	orphan := pg.ID()
	db.Pool().Unpin(pg, true)
	if err := db.CheckPages(); err == nil || !strings.Contains(err.Error(), "temp pages in no table and not free") {
		t.Fatalf("an orphan temp page: %v", err)
	}
	db.Pool().Free(orphan)
	mustCheckPages(t, db, "orphan freed")
	tb, _ := db.Catalog().Get("s")
	db.Pool().Free(tb.Pages()[0])
	if err := db.CheckPages(); err == nil || !strings.Contains(err.Error(), "temp page 0 is in both") {
		t.Fatalf("a temp page owned twice: %v", err)
	}
}

// TestCheckPagesClauses feeds the checker hand-made page lists, one broken
// clause each: a durable table holding a temp page and a temporary one a
// database page, a page past its space's end, and a page of either space
// owned twice or by no one. The same page number in both spaces is no
// conflict.
func TestCheckPagesClauses(t *testing.T) {
	const tmp = storage.TempBit
	sizes := [2]int{2, 2}
	ok := []pageList{{name: "d", ids: []storage.PageID{0, 1}}, {name: "s", temp: true, ids: []storage.PageID{tmp | 0}}}
	if err := checkPages(ok, []storage.PageID{tmp | 1}, sizes); err != nil {
		t.Fatalf("a sound listing: %v", err)
	}
	for _, tc := range []struct {
		name   string
		tables []pageList
		free   []storage.PageID
		want   string
	}{
		{"durable holds temp", []pageList{{name: "d", ids: []storage.PageID{0, 1, tmp | 0}}}, []storage.PageID{tmp | 1},
			"durable table d holds temp page"},
		{"temporary holds database", []pageList{{name: "s", temp: true, ids: []storage.PageID{tmp | 0, tmp | 1, 0}}}, []storage.PageID{1},
			"temporary table s holds database page"},
		{"past the end", []pageList{{name: "s", temp: true, ids: []storage.PageID{tmp | 2}}}, nil,
			"s holds page 2 of a 2-page temp space"},
		{"database page twice", []pageList{{name: "d", ids: []storage.PageID{0, 1}}}, []storage.PageID{1},
			"database page 1 is in both"},
		{"temp page twice", []pageList{{name: "s", temp: true, ids: []storage.PageID{tmp | 0, tmp | 1}}, {name: "d", ids: []storage.PageID{0, 1}}},
			[]storage.PageID{tmp | 1}, "temp page 1 is in both"},
		{"database page leaked", []pageList{{name: "d", ids: []storage.PageID{0}}}, []storage.PageID{tmp | 0, tmp | 1},
			"1 of 2 database pages in no table and not free: [1]"},
		{"temp page leaked", []pageList{{name: "d", ids: []storage.PageID{0, 1}}}, []storage.PageID{tmp | 1},
			"1 of 2 temp pages in no table and not free: [0]"},
	} {
		if err := checkPages(tc.tables, tc.free, sizes); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want %q", tc.name, err, tc.want)
		}
	}
}
