package table

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/record"
	"repro/internal/storage"
)

func newCatalog(t testing.TB) *Catalog {
	t.Helper()
	return NewCatalog(storage.NewBufferPool(storage.NewMemDiskManager(0), 256))
}

func edgeSchema() *record.Schema {
	return record.MustSchema(
		record.Column{Name: "fid", Type: record.TInt},
		record.Column{Name: "tid", Type: record.TInt},
		record.Column{Name: "cost", Type: record.TInt},
	)
}

func TestHeapTableCRUD(t *testing.T) {
	c := newCatalog(t)
	tb, err := c.Create("edges", edgeSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	loc, err := tb.Insert(record.Row{record.Int(1), record.Int(2), record.Int(30)})
	if err != nil {
		t.Fatal(err)
	}
	row, ok, err := tb.Fetch(loc)
	if err != nil || !ok || row[2].I != 30 {
		t.Fatalf("fetch: %v %v %v", row, ok, err)
	}
	newLoc, err := tb.Update(loc, row, record.Row{record.Int(1), record.Int(2), record.Int(25)})
	if err != nil {
		t.Fatal(err)
	}
	row2, _, _ := tb.Fetch(newLoc)
	if row2[2].I != 25 {
		t.Fatalf("update lost: %v", row2)
	}
	if err := tb.Delete(newLoc, row2); err != nil {
		t.Fatal(err)
	}
	if tb.RowCount() != 0 {
		t.Fatalf("rowcount: %d", tb.RowCount())
	}
}

func TestClusteredTableOrdering(t *testing.T) {
	c := newCatalog(t)
	tb, err := c.Create("edges", edgeSchema(), Options{ClusterOn: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	// Insert out of order; scan must come back sorted by fid.
	for _, fid := range []int64{5, 1, 3, 1, 5, 2} {
		if _, err := tb.Insert(record.Row{record.Int(fid), record.Int(fid * 10), record.Int(1)}); err != nil {
			t.Fatal(err)
		}
	}
	it := tb.Scan()
	var got []int64
	for it.Next() {
		got = append(got, it.Row()[0].I)
	}
	want := []int64{1, 1, 2, 3, 5, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("clustered order: %v", got)
		}
	}
	// Prefix scan fetches exactly the duplicates.
	it = tb.ScanClusteredPrefix([]record.Value{record.Int(1)})
	n := 0
	for it.Next() {
		if it.Row()[0].I != 1 {
			t.Fatalf("prefix scan wrong row: %v", it.Row())
		}
		n++
	}
	if n != 2 {
		t.Fatalf("prefix scan count: %d", n)
	}
}

func TestClusteredUniqueViolation(t *testing.T) {
	c := newCatalog(t)
	tb, err := c.Create("v", record.MustSchema(
		record.Column{Name: "nid", Type: record.TInt},
		record.Column{Name: "d", Type: record.TInt},
	), Options{ClusterOn: []int{0}, ClusterUnique: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Insert(record.Row{record.Int(1), record.Int(0)}); err != nil {
		t.Fatal(err)
	}
	_, err = tb.Insert(record.Row{record.Int(1), record.Int(9)})
	if !errors.Is(err, ErrUniqueViolation) {
		t.Fatalf("expected unique violation, got %v", err)
	}
}

func TestSecondaryIndexMaintenance(t *testing.T) {
	c := newCatalog(t)
	tb, _ := c.Create("edges", edgeSchema(), Options{})
	ix, err := tb.CreateIndex("by_tid", []int{1}, false)
	if err != nil {
		t.Fatal(err)
	}
	locs := make([]Loc, 0)
	rows := []record.Row{
		{record.Int(1), record.Int(7), record.Int(10)},
		{record.Int(2), record.Int(7), record.Int(20)},
		{record.Int(3), record.Int(8), record.Int(30)},
	}
	for _, r := range rows {
		loc, err := tb.Insert(r)
		if err != nil {
			t.Fatal(err)
		}
		locs = append(locs, loc)
	}
	countEq := func(v int64) int {
		it := tb.LookupEq(ix, []record.Value{record.Int(v)})
		n := 0
		for it.Next() {
			n++
		}
		if it.Err() != nil {
			t.Fatal(it.Err())
		}
		return n
	}
	if countEq(7) != 2 || countEq(8) != 1 || countEq(9) != 0 {
		t.Fatal("index lookup counts wrong")
	}
	// Update moves index entries.
	nl, err := tb.Update(locs[0], rows[0], record.Row{record.Int(1), record.Int(8), record.Int(10)})
	if err != nil {
		t.Fatal(err)
	}
	if countEq(7) != 1 || countEq(8) != 2 {
		t.Fatal("index not maintained on update")
	}
	// Delete removes them.
	r, _, _ := tb.Fetch(nl)
	if err := tb.Delete(nl, r); err != nil {
		t.Fatal(err)
	}
	if countEq(8) != 1 {
		t.Fatal("index not maintained on delete")
	}
}

func TestUniqueSecondaryIndex(t *testing.T) {
	c := newCatalog(t)
	tb, _ := c.Create("v", record.MustSchema(
		record.Column{Name: "nid", Type: record.TInt},
		record.Column{Name: "d", Type: record.TInt},
	), Options{})
	if _, err := tb.CreateIndex("u_nid", []int{0}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Insert(record.Row{record.Int(5), record.Int(1)}); err != nil {
		t.Fatal(err)
	}
	_, err := tb.Insert(record.Row{record.Int(5), record.Int(2)})
	if !errors.Is(err, ErrUniqueViolation) {
		t.Fatalf("expected unique violation, got %v", err)
	}
	// Failed insert must not leave a stale row behind.
	if tb.RowCount() != 1 {
		t.Fatalf("rowcount after failed insert: %d", tb.RowCount())
	}
	n := 0
	it := tb.Scan()
	for it.Next() {
		n++
	}
	if n != 1 {
		t.Fatalf("scan after failed insert: %d rows", n)
	}
}

func TestCreateIndexBackfill(t *testing.T) {
	c := newCatalog(t)
	tb, _ := c.Create("edges", edgeSchema(), Options{})
	for i := 0; i < 50; i++ {
		if _, err := tb.Insert(record.Row{record.Int(int64(i % 5)), record.Int(int64(i)), record.Int(1)}); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := tb.CreateIndex("by_fid", []int{0}, false)
	if err != nil {
		t.Fatal(err)
	}
	it := tb.LookupEq(ix, []record.Value{record.Int(2)})
	n := 0
	for it.Next() {
		n++
	}
	if n != 10 {
		t.Fatalf("backfill count: %d", n)
	}
	// Unique backfill over duplicate data fails.
	if _, err := tb.CreateIndex("u_fid", []int{0}, true); err == nil {
		t.Fatal("unique backfill over duplicates must fail")
	}
}

func TestTruncate(t *testing.T) {
	c := newCatalog(t)
	tb, _ := c.Create("edges", edgeSchema(), Options{ClusterOn: []int{0}})
	ix, _ := tb.CreateIndex("by_tid", []int{1}, false)
	for i := 0; i < 10; i++ {
		if _, err := tb.Insert(record.Row{record.Int(int64(i)), record.Int(1), record.Int(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Truncate(); err != nil {
		t.Fatal(err)
	}
	if tb.RowCount() != 0 {
		t.Fatal("truncate rowcount")
	}
	it := tb.Scan()
	if it.Next() {
		t.Fatal("truncated table scan should be empty")
	}
	iit := tb.LookupEq(ix, []record.Value{record.Int(1)})
	if iit.Next() {
		t.Fatal("truncated index should be empty")
	}
	// Table remains usable after truncate.
	if _, err := tb.Insert(record.Row{record.Int(1), record.Int(2), record.Int(3)}); err != nil {
		t.Fatal(err)
	}
}

func TestCatalog(t *testing.T) {
	c := newCatalog(t)
	if _, err := c.Create("t", edgeSchema(), Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("T", edgeSchema(), Options{}); err == nil {
		t.Fatal("case-insensitive duplicate must fail")
	}
	if _, ok := c.Get("t"); !ok {
		t.Fatal("get by name")
	}
	if _, ok := c.Get("T"); !ok {
		t.Fatal("case-insensitive get")
	}
	if len(c.Names()) != 1 {
		t.Fatal("names")
	}
	if err := c.Drop("t"); err != nil {
		t.Fatal(err)
	}
	if err := c.Drop("t"); err == nil {
		t.Fatal("double drop must fail")
	}
}

func TestClusteredKeyUpdate(t *testing.T) {
	c := newCatalog(t)
	tb, _ := c.Create("v", record.MustSchema(
		record.Column{Name: "nid", Type: record.TInt},
		record.Column{Name: "d", Type: record.TInt},
	), Options{ClusterOn: []int{0}, ClusterUnique: true})
	loc, err := tb.Insert(record.Row{record.Int(1), record.Int(100)})
	if err != nil {
		t.Fatal(err)
	}
	// Non-key update keeps the location.
	loc2, err := tb.Update(loc, record.Row{record.Int(1), record.Int(100)}, record.Row{record.Int(1), record.Int(50)})
	if err != nil {
		t.Fatal(err)
	}
	if string(loc2.Key) != string(loc.Key) {
		t.Fatal("non-key update should keep the clustered key")
	}
	// Key update relocates.
	loc3, err := tb.Update(loc2, record.Row{record.Int(1), record.Int(50)}, record.Row{record.Int(2), record.Int(50)})
	if err != nil {
		t.Fatal(err)
	}
	if string(loc3.Key) == string(loc2.Key) {
		t.Fatal("key update must move the row")
	}
	row, ok, _ := tb.Fetch(loc3)
	if !ok || row[0].I != 2 {
		t.Fatalf("moved row: %v %v", row, ok)
	}
	if tb.RowCount() != 1 {
		t.Fatalf("rowcount: %d", tb.RowCount())
	}
}

func TestManyRowsThroughSmallPool(t *testing.T) {
	pool := storage.NewBufferPool(storage.NewMemDiskManager(0), 8)
	c := NewCatalog(pool)
	tb, _ := c.Create("edges", edgeSchema(), Options{ClusterOn: []int{0}})
	const n = 3000
	for i := 0; i < n; i++ {
		if _, err := tb.Insert(record.Row{record.Int(int64(i)), record.Int(int64(i * 2)), record.Int(int64(i % 100))}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	it := tb.Scan()
	count := 0
	for it.Next() {
		count++
	}
	if it.Err() != nil || count != n {
		t.Fatalf("scan through tiny pool: count=%d err=%v", count, it.Err())
	}
	if pool.PinnedPages() != 0 {
		t.Fatalf("pin leak: %d", pool.PinnedPages())
	}
}

func TestValidationErrors(t *testing.T) {
	c := newCatalog(t)
	tb, _ := c.Create("edges", edgeSchema(), Options{})
	if _, err := tb.Insert(record.Row{record.Int(1)}); err == nil {
		t.Fatal("short row must fail")
	}
	loc, err := tb.Insert(record.Row{record.Int(1), record.Int(2), record.Int(3)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Update(loc, record.Row{record.Int(1), record.Int(2), record.Int(3)}, record.Row{record.Int(1)}); err == nil {
		t.Fatal("short replacement row must fail")
	}
	if tb.RowCount() != 1 {
		t.Fatalf("rowcount after rejected rows: %d", tb.RowCount())
	}
}

// TestUpdateUniqueViolationKeepsRow: an update that moves a row's unique
// key — clustered or secondary, in either storage kind — onto a key another
// row holds is refused before anything is removed: both rows, and every
// index entry, are as they were.
func TestUpdateUniqueViolationKeepsRow(t *testing.T) {
	for _, d := range []struct {
		name      string
		opts      Options
		secondary bool // UNIQUE INDEX on column 0 instead of a clustered key
	}{
		{"clustered key", Options{ClusterOn: []int{0}, ClusterUnique: true}, false},
		{"unique index over heap", Options{}, true},
		{"unique index over clustered", Options{ClusterOn: []int{1}}, true},
	} {
		t.Run(d.name, func(t *testing.T) {
			tb, err := newCatalog(t).Create("t", edgeSchema(), d.opts)
			if err != nil {
				t.Fatal(err)
			}
			var ix *Index
			if d.secondary {
				if ix, err = tb.CreateIndex("t_a", []int{0}, true); err != nil {
					t.Fatal(err)
				}
			}
			one := record.Row{record.Int(1), record.Int(10), record.Int(100)}
			two := record.Row{record.Int(2), record.Int(20), record.Int(200)}
			loc, err := tb.Insert(one)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tb.Insert(two); err != nil {
				t.Fatal(err)
			}
			_, err = tb.Update(loc, one, record.Row{record.Int(2), record.Int(10), record.Int(100)})
			if !errors.Is(err, ErrUniqueViolation) {
				t.Fatalf("update onto a taken key: %v", err)
			}
			if tb.RowCount() != 2 {
				t.Fatalf("rowcount after the failed update: %d", tb.RowCount())
			}
			for _, want := range []record.Row{one, two} {
				it := tb.LookupEq(ix, []record.Value{want[0]})
				if !it.Next() || fmt.Sprint(it.Row()) != fmt.Sprint(want) || it.Next() {
					t.Fatalf("key %v after the failed update: row %v, err %v", want[0], it.Row(), it.Err())
				}
			}
			// The row is where it was: the same update onto a free key works.
			if _, err := tb.Update(loc, one, record.Row{record.Int(3), record.Int(10), record.Int(100)}); err != nil {
				t.Fatalf("update onto a free key: %v", err)
			}
		})
	}
}

func TestLocString(t *testing.T) {
	// RID formatting aids debugging; exercise it.
	l := Loc{}
	if l.bytes() == nil {
		t.Fatal("heap loc bytes")
	}
	s := fmt.Sprintf("%v", l.RID)
	if s == "" {
		t.Fatal("rid string")
	}
}

// benchmarkScan scans a TVisited-shaped table of 10000 rows, decoding two
// of its seven columns the way the FEM loop's statements do: every row
// (full), and the one row in a hundred that a pushed `d2s = 42` accepts
// (selective), which is what a frontier select over a mostly settled
// TVisited looks like.
func benchmarkScan(b *testing.B, opts Options) {
	const n = 10000
	cols := make([]record.Column, 7)
	for i, name := range []string{"nid", "d2s", "p2s", "f", "d2t", "p2t", "b"} {
		cols[i] = record.Column{Name: name, Type: record.TInt}
	}
	tb, err := newCatalog(b).Create("v", record.MustSchema(cols...), opts)
	if err != nil {
		b.Fatal(err)
	}
	for i := int64(0); i < n; i++ {
		row := record.Row{record.Int(i), record.Int(i % 100), record.Int(-1), record.Int(i % 3), record.Int(0), record.Int(-1), record.Int(1)}
		if _, err := tb.Insert(row); err != nil {
			b.Fatal(err)
		}
	}
	need := []bool{false, true, false, true, false, false, false}
	for _, v := range []struct {
		name  string
		preds []record.Pred
		rows  int64
	}{
		{"full", nil, n},
		{"selective", []record.Pred{{Col: 1, Sat: 2, Val: 42}}, n / 100},
	} {
		b.Run(v.name, func(b *testing.B) {
			var it Iterator
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var rows, sum int64
				for it.Start(tb, need, v.preds); it.Next(); rows++ {
					sum += it.Row()[1].I + it.Row()[3].I
				}
				if err := it.Err(); err != nil || rows != v.rows || sum == 0 {
					b.Fatalf("scan: %d rows, sum %d, %v", rows, sum, err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
		})
	}
}

func BenchmarkScanTableClustered(b *testing.B) {
	benchmarkScan(b, Options{ClusterOn: []int{0}, ClusterUnique: true})
}

func BenchmarkScanTableHeap(b *testing.B) { benchmarkScan(b, Options{}) }
