package heapfile

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/record"
	"repro/internal/storage"
)

// newPool is an in-memory pool that fails the test if, by its end, an
// Unpin found its page holding no pin.
func newPool(t testing.TB, pages int) *storage.BufferPool {
	pool := storage.NewBufferPool(storage.NewMemDiskManager(0), pages)
	t.Cleanup(func() {
		if n := pool.Stats().BadUnpins; n != 0 {
			t.Errorf("%d unbalanced Unpin calls", n)
		}
	})
	return pool
}

func newHeap(t testing.TB) *HeapFile {
	t.Helper()
	pool := newPool(t, 128)
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

// TestFilteredScan: a filtered scan and a Fold return, in file order and
// across pages, exactly the live tuples record.Match accepts — NULL-free or
// not, over-long or not — and a truncated tuple ends either with Match's
// error. A filtered scan copies only the passing tuples and keeps each one's
// RID.
func TestFilteredScan(t *testing.T) {
	h := newHeap(t)
	s := record.MustSchema(record.Column{Name: "a", Type: record.TInt}, record.Column{Name: "b", Type: record.TInt})
	encode := func(a, b int64) []byte {
		tuple, err := record.EncodeTuple(nil, s, record.Row{record.Int(a), record.Int(b)})
		if err != nil {
			t.Fatal(err)
		}
		return tuple
	}
	preds := []record.Pred{{Col: 1, Sat: 2, Val: 0}}
	var want []string
	for i := int64(0); i < 600; i++ {
		tuple := encode(i, i%3)
		rid, err := h.Insert(tuple)
		if err != nil {
			t.Fatal(err)
		}
		if i%13 == 0 {
			if err := h.Delete(rid); err != nil {
				t.Fatal(err)
			}
		} else if i%3 == 0 {
			want = append(want, string(tuple))
		}
	}
	var it Iterator
	scan := func() ([]string, error) {
		it.Reset(h, 2, preds)
		var got []string
		for it.Next() {
			got = append(got, string(it.Tuple()))
			if tuple, ok, err := h.Get(it.RID()); err != nil || !ok || string(tuple) != string(it.Tuple()) {
				t.Fatalf("RID %v of a filtered scan's tuple holds %x, %v, %v", it.RID(), tuple, ok, err)
			}
		}
		return got, it.Err()
	}
	fold := func() ([]string, error) {
		var got []string
		err := h.Fold(2, preds, func(tuple []byte) { got = append(got, string(tuple)) })
		return got, err
	}
	for _, f := range []func() ([]string, error){scan, fold} {
		if got, err := f(); err != nil || len(want) != 184 || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("filtered scan: %d tuples, %v; want %d", len(got), err, len(want))
		}
	}
	// A tuple of any length but 8 bytes a column ends the scan with an
	// error, whether or not the preds would reject its columns: one byte
	// short, one over, and the layout that led with a NULL bitmap.
	rejected := encode(1000, 1)
	for _, bad := range [][]byte{rejected[:15], append(rejected, 0), append([]byte{0}, rejected...)} {
		rid, err := h.Insert(bad)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []func() ([]string, error){scan, fold} {
			if got, err := f(); err == nil || len(got) != len(want) {
				t.Fatalf("a %d-byte tuple of 2 columns must end the filtered scan with an error after the %d tuples before it: %d, %v",
					len(bad), len(want), len(got), err)
			}
		}
		if err := h.Delete(rid); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []func() ([]string, error){scan, fold} {
		if got, err := f(); err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("filtered scan after the deletes: %d tuples, %v; want %d", len(got), err, len(want))
		}
	}
}

// filledHeap holds n tuples the size of a TVisited row.
func filledHeap(t testing.TB, n int) *HeapFile {
	t.Helper()
	h := newHeap(t)
	tuple := make([]byte, 56)
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
		n += len(it.Tuple()) / 56
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
