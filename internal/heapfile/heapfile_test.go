package heapfile

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/storage"
)

func newHeap(t testing.TB) *HeapFile {
	t.Helper()
	pool := storage.NewBufferPool(storage.NewMemDiskManager(0), 128)
	h, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestInsertGet(t *testing.T) {
	h := newHeap(t)
	rid, err := h.Insert([]byte("tuple-1"))
	if err != nil {
		t.Fatal(err)
	}
	data, ok, err := h.Get(rid)
	if err != nil || !ok || string(data) != "tuple-1" {
		t.Fatalf("get: %q %v %v", data, ok, err)
	}
	if h.Len() != 1 {
		t.Fatalf("len: %d", h.Len())
	}
}

func TestPageOverflowChains(t *testing.T) {
	h := newHeap(t)
	big := bytes.Repeat([]byte("x"), 1000)
	var rids []RID
	for i := 0; i < 100; i++ { // ~100 KB over 8 KB pages
		rid, err := h.Insert(append([]byte(fmt.Sprintf("%03d-", i)), big...))
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		rids = append(rids, rid)
	}
	pages := map[storage.PageID]bool{}
	for i, rid := range rids {
		pages[rid.Page] = true
		data, ok, err := h.Get(rid)
		if err != nil || !ok {
			t.Fatalf("get %d: %v %v", i, ok, err)
		}
		if string(data[:4]) != fmt.Sprintf("%03d-", i) {
			t.Fatalf("content %d wrong: %q", i, data[:4])
		}
	}
	if len(pages) < 10 {
		t.Fatalf("expected many pages, got %d", len(pages))
	}
}

func TestDelete(t *testing.T) {
	h := newHeap(t)
	rid, _ := h.Insert([]byte("gone"))
	if err := h.Delete(rid); err != nil {
		t.Fatal(err)
	}
	_, ok, err := h.Get(rid)
	if err != nil || ok {
		t.Fatalf("deleted tuple still visible: %v %v", ok, err)
	}
	if err := h.Delete(rid); err == nil {
		t.Fatal("double delete must fail")
	}
	if h.Len() != 0 {
		t.Fatalf("len after delete: %d", h.Len())
	}
}

func TestUpdateInPlaceAndMove(t *testing.T) {
	h := newHeap(t)
	rid, _ := h.Insert([]byte("abcdef"))
	// Shrink: stays in place.
	nrid, err := h.Update(rid, []byte("xyz"))
	if err != nil || nrid != rid {
		t.Fatalf("shrink update: %v %v", nrid, err)
	}
	data, _, _ := h.Get(rid)
	if string(data) != "xyz" {
		t.Fatalf("shrink content: %q", data)
	}
	// Grow within page free space: same RID.
	nrid, err = h.Update(rid, bytes.Repeat([]byte("g"), 100))
	if err != nil || nrid != rid {
		t.Fatalf("grow update: %v %v", nrid, err)
	}
	// Fill the page so the next growth must move.
	for i := 0; i < 7; i++ {
		if _, err := h.Insert(bytes.Repeat([]byte("f"), 1000)); err != nil {
			t.Fatal(err)
		}
	}
	moved, err := h.Update(rid, bytes.Repeat([]byte("m"), 4000))
	if err != nil {
		t.Fatal(err)
	}
	if moved == rid {
		t.Fatal("expected relocation")
	}
	data, ok, _ := h.Get(moved)
	if !ok || len(data) != 4000 {
		t.Fatalf("moved tuple: ok=%v len=%d", ok, len(data))
	}
	// The old slot is dead.
	_, ok, _ = h.Get(rid)
	if ok {
		t.Fatal("old RID should be dead after move")
	}
	if _, err := h.Update(rid, []byte("no")); err == nil {
		t.Fatal("update of dead tuple must fail")
	}
}

func TestScan(t *testing.T) {
	h := newHeap(t)
	var want []string
	for i := 0; i < 200; i++ {
		s := fmt.Sprintf("row-%d", i)
		if _, err := h.Insert([]byte(s)); err != nil {
			t.Fatal(err)
		}
		want = append(want, s)
	}
	// Delete every third row.
	it := h.Scan()
	var rids []RID
	for it.Next() {
		rids = append(rids, it.RID())
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	kept := map[string]bool{}
	for i, rid := range rids {
		if i%3 == 0 {
			if err := h.Delete(rid); err != nil {
				t.Fatal(err)
			}
		} else {
			kept[want[i]] = true
		}
	}
	it = h.Scan()
	n := 0
	for it.Next() {
		if !kept[string(it.Tuple())] {
			t.Fatalf("scan returned deleted/unknown tuple %q", it.Tuple())
		}
		n++
	}
	if n != len(kept) {
		t.Fatalf("scan count: %d want %d", n, len(kept))
	}
}

func TestTupleTooLarge(t *testing.T) {
	h := newHeap(t)
	if _, err := h.Insert(make([]byte, storage.PageSize)); err == nil {
		t.Fatal("page-sized tuple must fail")
	}
}

func TestBadSlot(t *testing.T) {
	h := newHeap(t)
	rid, _ := h.Insert([]byte("a"))
	bad := RID{Page: rid.Page, Slot: 99}
	if _, _, err := h.Get(bad); err == nil {
		t.Fatal("bad slot get must fail")
	}
	if err := h.Delete(bad); err == nil {
		t.Fatal("bad slot delete must fail")
	}
	if _, err := h.Update(bad, []byte("x")); err == nil {
		t.Fatal("bad slot update must fail")
	}
}

// filledHeap holds n tuples the size of a TVisited row.
func filledHeap(t testing.TB, n int) *HeapFile {
	t.Helper()
	h := newHeap(t)
	tuple := make([]byte, 57)
	for i := 0; i < n; i++ {
		if _, err := h.Insert(tuple); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func scanAll(t testing.TB, h *HeapFile, want int) {
	it := h.Scan()
	n := 0
	for it.Next() {
		n += len(it.Tuple()) / 57
	}
	if err := it.Err(); err != nil || n != want {
		t.Fatalf("scan saw %d of %d tuples: %v", n, want, err)
	}
}

// TestScanAllocsIndependentOfTupleCount: an iterator copies each page into
// the one page it owns, so a scan of sixteen times the tuples allocates no
// more.
func TestScanAllocsIndependentOfTupleCount(t *testing.T) {
	allocs := func(n int) float64 {
		h := filledHeap(t, n)
		return testing.AllocsPerRun(20, func() { scanAll(t, h, n) })
	}
	if small, large := allocs(64), allocs(1024); large-small > 8 {
		t.Fatalf("scan allocations grow with the tuple count: %.0f at 64, %.0f at 1024", small, large)
	}
}

func BenchmarkScanHeap(b *testing.B) {
	const n = 10000
	h := filledHeap(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanAll(b, h, n)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
}
