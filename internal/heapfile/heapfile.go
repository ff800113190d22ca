// Package heapfile implements slotted-page heap tables: unordered tuple
// storage addressed by RID (page, slot). Heap files back tables without a
// clustered index — the "NoIndex" and secondary-"Index" configurations of
// the paper's Fig 8(c) experiment.
package heapfile

import (
	"fmt"

	"repro/internal/storage"
)

// Page layout:
//
//	off 0  type      byte (3)
//	off 2  nSlots    uint16
//	off 4  freeStart uint16 (lowest used cell byte; cells grow down)
//	off 6  next      uint32 (next page in file chain)
//	off 10 slots     nSlots * (offset uint16, length uint16); length 0 = dead
const (
	heapPageType = 3

	offType      = 0
	offNSlots    = 2
	offFreeStart = 4
	offNext      = 6
	offSlots     = 10

	slotSize = 4
)

// RID addresses one tuple.
type RID struct {
	Page storage.PageID
	Slot uint16
}

// String renders the RID for diagnostics.
func (r RID) String() string { return fmt.Sprintf("(%d,%d)", r.Page, r.Slot) }

// HeapFile is a chain of slotted pages. Not safe for concurrent use.
type HeapFile struct {
	pool  *storage.BufferPool
	first storage.PageID
	last  storage.PageID
	pages []storage.PageID // every chained page, in allocation order
	n     int
}

// New creates an empty heap file with one page.
func New(pool *storage.BufferPool) (*HeapFile, error) {
	pg, err := pool.NewPage()
	if err != nil {
		return nil, err
	}
	initPage(pg)
	id := pg.ID()
	pool.Unpin(pg, true)
	return &HeapFile{pool: pool, first: id, last: id, pages: []storage.PageID{id}}, nil
}

func initPage(pg *storage.Page) {
	for i := range pg.Data {
		pg.Data[i] = 0
	}
	pg.Data[offType] = heapPageType
	pg.PutU16(offNSlots, 0)
	pg.PutU16(offFreeStart, storage.PageSize)
	pg.PutU32(offNext, uint32(storage.InvalidPageID))
}

// Len returns the number of live tuples.
func (h *HeapFile) Len() int { return h.n }

// FirstPage returns the head of the page chain (for diagnostics).
func (h *HeapFile) FirstPage() storage.PageID { return h.first }

func freeSpace(pg *storage.Page) int {
	return int(pg.U16(offFreeStart)) - (offSlots + slotSize*int(pg.U16(offNSlots)))
}

// Insert appends a tuple, returning its RID.
func (h *HeapFile) Insert(data []byte) (RID, error) {
	if len(data)+slotSize > storage.PageSize-offSlots {
		return RID{}, fmt.Errorf("heapfile: tuple of %d bytes exceeds page capacity", len(data))
	}
	pg, err := h.pool.Fetch(h.last)
	if err != nil {
		return RID{}, err
	}
	if freeSpace(pg) < len(data)+slotSize {
		// Allocate a new page and link it.
		npg, err := h.pool.NewPage()
		if err != nil {
			h.pool.Unpin(pg, false)
			return RID{}, err
		}
		initPage(npg)
		pg.PutU32(offNext, uint32(npg.ID()))
		h.pool.Unpin(pg, true)
		h.last = npg.ID()
		h.pages = append(h.pages, npg.ID())
		pg = npg
	}
	slot := pg.U16(offNSlots)
	start := int(pg.U16(offFreeStart)) - len(data)
	copy(pg.Data[start:], data)
	pg.PutU16(offFreeStart, uint16(start))
	base := offSlots + slotSize*int(slot)
	pg.PutU16(base, uint16(start))
	pg.PutU16(base+2, uint16(len(data)))
	pg.PutU16(offNSlots, slot+1)
	rid := RID{Page: pg.ID(), Slot: slot}
	h.pool.Unpin(pg, true)
	h.n++
	return rid, nil
}

// Reset truncates the heap in place: the first page is re-initialized and
// becomes the whole file again, and every other chained page is discarded
// from the buffer pool without write-back — a truncated table's pages are
// dead, and flushing them on eviction would charge I/O for content nothing
// will read. Hot truncate-refill cycles (the FEM scratch tables) reuse one
// page instead of leaking a page per cycle.
func (h *HeapFile) Reset() error {
	pg, err := h.pool.Fetch(h.first)
	if err != nil {
		return err
	}
	initPage(pg)
	h.pool.Unpin(pg, true)
	for _, id := range h.pages[1:] {
		h.pool.Discard(id)
	}
	h.pages = h.pages[:1]
	h.last = h.first
	h.n = 0
	return nil
}

// Get returns a copy of the tuple at rid, or ok=false if it was deleted.
func (h *HeapFile) Get(rid RID) ([]byte, bool, error) { return h.GetInto(nil, rid) }

// GetInto is Get into the caller's buffer: the tuple is appended to dst[:0].
func (h *HeapFile) GetInto(dst []byte, rid RID) ([]byte, bool, error) {
	pg, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return nil, false, err
	}
	defer h.pool.Unpin(pg, false)
	if int(rid.Slot) >= int(pg.U16(offNSlots)) {
		return nil, false, fmt.Errorf("heapfile: bad slot %v", rid)
	}
	base := offSlots + slotSize*int(rid.Slot)
	off, ln := int(pg.U16(base)), int(pg.U16(base+2))
	if ln == 0 {
		return nil, false, nil
	}
	return append(dst[:0], pg.Data[off:off+ln]...), true, nil
}

// Delete removes the tuple at rid (space reclaimed only on page reuse).
func (h *HeapFile) Delete(rid RID) error {
	pg, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	defer h.pool.Unpin(pg, true)
	if int(rid.Slot) >= int(pg.U16(offNSlots)) {
		return fmt.Errorf("heapfile: bad slot %v", rid)
	}
	base := offSlots + slotSize*int(rid.Slot)
	if pg.U16(base+2) == 0 {
		return fmt.Errorf("heapfile: double delete %v", rid)
	}
	pg.PutU16(base+2, 0)
	h.n--
	return nil
}

// Update replaces the tuple at rid. If the new tuple fits in the page's
// free space it stays on the page with the same RID; otherwise it moves to
// the end of the file and the new RID is returned.
func (h *HeapFile) Update(rid RID, data []byte) (RID, error) {
	pg, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return RID{}, err
	}
	if int(rid.Slot) >= int(pg.U16(offNSlots)) {
		h.pool.Unpin(pg, false)
		return RID{}, fmt.Errorf("heapfile: bad slot %v", rid)
	}
	base := offSlots + slotSize*int(rid.Slot)
	off, ln := int(pg.U16(base)), int(pg.U16(base+2))
	if ln == 0 {
		h.pool.Unpin(pg, false)
		return RID{}, fmt.Errorf("heapfile: update of deleted tuple %v", rid)
	}
	if len(data) <= ln {
		// Overwrite in place (shrink allowed; slack bytes stay dead).
		copy(pg.Data[off:], data)
		pg.PutU16(base+2, uint16(len(data)))
		h.pool.Unpin(pg, true)
		return rid, nil
	}
	if freeSpace(pg) >= len(data) {
		start := int(pg.U16(offFreeStart)) - len(data)
		copy(pg.Data[start:], data)
		pg.PutU16(offFreeStart, uint16(start))
		pg.PutU16(base, uint16(start))
		pg.PutU16(base+2, uint16(len(data)))
		h.pool.Unpin(pg, true)
		return rid, nil
	}
	// Move: delete here, insert at the end.
	pg.PutU16(base+2, 0)
	h.pool.Unpin(pg, true)
	h.n-- // Insert will re-increment
	return h.Insert(data)
}

// Iterator walks all live tuples. Each page is copied once into a page the
// iterator owns before advancing, so no pins are held between Next calls;
// tuples are slices of that copy. An Iterator can be restarted with Reset,
// which keeps the copy's memory.
type Iterator struct {
	h       *HeapFile
	page    *storage.Page // private copy of the current page
	pageID  storage.PageID
	slot, n int    // slot is the next slot to look at, n the page's slot count
	tuple   []byte // current tuple, inside page
	nextPg  storage.PageID
	lastErr error
}

// Scan returns an iterator over every live tuple.
func (h *HeapFile) Scan() *Iterator {
	it := new(Iterator)
	it.Reset(h)
	return it
}

// Reset restarts the iterator at the first tuple of h.
func (it *Iterator) Reset(h *HeapFile) {
	it.h, it.nextPg = h, h.first
	it.slot, it.n, it.lastErr = 0, 0, nil
}

// Next advances the iterator.
func (it *Iterator) Next() bool {
	for {
		for it.slot < it.n {
			base := offSlots + slotSize*it.slot
			it.slot++
			off, ln := int(it.page.U16(base)), int(it.page.U16(base+2))
			if ln != 0 {
				it.tuple = it.page.Data[off : off+ln]
				return true
			}
		}
		if it.nextPg == storage.InvalidPageID || it.lastErr != nil {
			return false
		}
		pg, err := it.h.pool.Fetch(it.nextPg)
		if err != nil {
			it.lastErr = err
			return false
		}
		if it.page == nil {
			it.page = new(storage.Page)
		}
		it.page.Data = pg.Data
		it.pageID, it.slot, it.n = pg.ID(), 0, int(pg.U16(offNSlots))
		it.nextPg = storage.PageID(pg.U32(offNext))
		it.h.pool.Unpin(pg, false)
	}
}

// Tuple returns the current tuple bytes (valid until the next Next or
// Reset).
func (it *Iterator) Tuple() []byte { return it.tuple }

// RID returns the current tuple's RID.
func (it *Iterator) RID() RID { return RID{Page: it.pageID, Slot: uint16(it.slot - 1)} }

// Err reports any error that terminated the scan.
func (it *Iterator) Err() error { return it.lastErr }
