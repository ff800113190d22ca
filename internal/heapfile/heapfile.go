// Package heapfile implements slotted-page heap tables: unordered tuple
// storage addressed by RID (page, slot). Heap files back tables without a
// clustered index — the "NoIndex" and secondary-"Index" configurations of
// the paper's Fig 8(c) experiment.
package heapfile

import (
	"fmt"
	"slices"

	"repro/internal/record"
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
	owner storage.Owner // what its pages are charged to
	first storage.PageID
	last  storage.PageID
	pages []storage.PageID // every chained page, in allocation order
	n     int
}

// New creates an empty heap file with one page.
func New(pool *storage.BufferPool) (*HeapFile, error) { return NewOwned(pool, 0) }

// NewOwned is New for a heap whose every page the pool charges to owner.
func NewOwned(pool *storage.BufferPool, owner storage.Owner) (*HeapFile, error) {
	pg, err := pool.NewPageFor(owner)
	if err != nil {
		return nil, err
	}
	initPage(pg)
	id := pg.ID()
	pool.Unpin(pg, true)
	return &HeapFile{pool: pool, owner: owner, first: id, last: id, pages: []storage.PageID{id}}, nil
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
		npg, err := h.pool.NewPageFor(h.owner)
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

// Pages lists every page of the chain, in allocation order. The slice is
// the heap's own: callers must not modify it.
func (h *HeapFile) Pages() []storage.PageID { return h.pages }

// Reset truncates the heap in place: the first page is re-initialized and
// becomes the whole file again, and every other chained page goes back to
// the buffer pool's free list, so a truncate-refill cycle (the FEM scratch
// tables) allocates from the pages the last cycle returned.
func (h *HeapFile) Reset() error {
	pg, err := h.pool.Fetch(h.first)
	if err != nil {
		return err
	}
	initPage(pg)
	h.pool.Unpin(pg, true)
	h.pool.Free(h.pages[1:]...)
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

// Iterator walks the live tuples in file order. Each page's wanted tuples
// are copied once into a page the iterator owns before advancing, so no pins
// are held between Next calls; tuples are slices of that copy. An Iterator
// can be restarted with Reset, which keeps the copy's memory.
//
// An iterator given a tuple width and predicates yields only the tuples of
// that many columns that satisfy them: each page's slot loop (match) checks
// them on the pinned page, and only the tuples that pass are copied, unless
// enough pass that the whole page is cheaper (load). A tuple of the wrong
// length ends the scan with an error, after the tuples before it.
type Iterator struct {
	h       *HeapFile
	page    *storage.Page // private copy of the current page's wanted tuples, at their offsets
	pageID  storage.PageID
	slots   []uint16 // the slots of the copied tuples, in file order
	pos     int      // slots[pos:] are still to come
	tuple   []byte   // current tuple, inside page
	nextPg  storage.PageID
	cols    int // column count of the tuples preds are checked on; 0 without preds
	preds   []record.Pred
	lastErr error
}

// Scan returns an iterator over every live tuple.
func (h *HeapFile) Scan() *Iterator {
	it := new(Iterator)
	it.Reset(h, 0, nil)
	return it
}

// Reset restarts the iterator at the first tuple of h that, given preds,
// is a cols-column tuple satisfying them. Without preds no tuple is checked:
// the caller decodes what it reads. preds is retained.
func (it *Iterator) Reset(h *HeapFile, cols int, preds []record.Pred) {
	if len(preds) == 0 {
		cols = 0
	}
	it.h, it.nextPg, it.cols, it.preds = h, h.first, cols, preds
	it.slots, it.pos, it.lastErr = it.slots[:0], 0, nil
}

// match is a heap page's slot loop: it returns the first live slot in
// [i, n) of pg whose tuple has cols columns and satisfies preds
// (record.Match), with that tuple, or n when there is none. With cols 0
// every live tuple passes. A tuple of the wrong length stops it with the
// error.
func match(pg *storage.Page, i, n, cols int, preds []record.Pred) (int, []byte, error) {
	for ; i < n; i++ {
		if pg.U16(offSlots+slotSize*i+2) == 0 {
			continue
		}
		tuple := tupleAt(pg, i)
		if cols == 0 {
			return i, tuple, nil
		}
		ok, err := record.Match(tuple, cols, preds)
		if err != nil {
			return i, nil, err
		}
		if ok {
			return i, tuple, nil
		}
	}
	return n, nil, nil
}

// tupleAt returns the tuple in live slot i of pg.
func tupleAt(pg *storage.Page, i int) []byte {
	base := offSlots + slotSize*i
	off, ln := int(pg.U16(base)), int(pg.U16(base+2))
	return pg.Data[off : off+ln]
}

// Fold runs fn on every live tuple, in file order, that has cols columns
// and satisfies preds (cols > 0): each page's slot loop (match) checks the
// tuples on the pinned page and fn reads the passing tuple there, so nothing
// is copied. It fetches the pages a Scan does. fn must not keep the tuple. A
// tuple of the wrong length ends it with the error, after fn has seen the
// tuples before it.
func (h *HeapFile) Fold(cols int, preds []record.Pred, fn func(tuple []byte)) error {
	for id := h.first; id != storage.InvalidPageID; {
		pg, err := h.pool.Fetch(id)
		if err != nil {
			return err
		}
		var tuple []byte
		for i, n := 0, int(pg.U16(offNSlots)); ; i++ {
			if i, tuple, err = match(pg, i, n, cols, preds); err != nil || i == n {
				break
			}
			fn(tuple)
		}
		id = storage.PageID(pg.U32(offNext))
		h.pool.Unpin(pg, false)
		if err != nil {
			return err
		}
	}
	return nil
}

// load collects the live slots of pinned page pg that pass the filter and
// copies them: the slot array, then the tuples at their offsets, or the
// whole page at once when a sixteenth of its slots or more are wanted, the
// rule btree's loadLeaf measured for its cells. A malformed tuple makes this
// page the last, its slots before it returned.
func (it *Iterator) load(pg *storage.Page) {
	if it.page == nil {
		it.page = new(storage.Page)
	}
	n := int(pg.U16(offNSlots))
	it.pageID, it.pos = pg.ID(), 0
	it.nextPg = storage.PageID(pg.U32(offNext))
	it.slots = slices.Grow(it.slots[:0], n)
	for i := 0; ; i++ {
		var err error
		if i, _, err = match(pg, i, n, it.cols, it.preds); err != nil {
			it.lastErr, it.nextPg = err, storage.InvalidPageID
			break
		}
		if i == n {
			break
		}
		it.slots = append(it.slots, uint16(i))
	}
	if 16*len(it.slots) >= n {
		it.page.Data = pg.Data
		return
	}
	copy(it.page.Data[:offSlots+slotSize*n], pg.Data[:])
	for _, i := range it.slots {
		base := offSlots + slotSize*int(i)
		off := int(pg.U16(base))
		copy(it.page.Data[off:], tupleAt(pg, int(i)))
	}
}

// Next advances the iterator to the next tuple it yields.
func (it *Iterator) Next() bool {
	for {
		if it.pos < len(it.slots) {
			it.tuple = tupleAt(it.page, int(it.slots[it.pos]))
			it.pos++
			return true
		}
		if it.nextPg == storage.InvalidPageID {
			return false
		}
		pg, err := it.h.pool.Fetch(it.nextPg)
		if err != nil {
			it.lastErr = err
			return false
		}
		it.load(pg)
		it.h.pool.Unpin(pg, false)
	}
}

// Tuple returns the current tuple bytes (valid until the next Next or
// Reset).
func (it *Iterator) Tuple() []byte { return it.tuple }

// RID returns the current tuple's RID.
func (it *Iterator) RID() RID { return RID{Page: it.pageID, Slot: it.slots[it.pos-1]} }

// Err reports any error that terminated the scan.
func (it *Iterator) Err() error { return it.lastErr }
