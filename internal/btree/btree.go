// Package btree implements a disk-resident B+tree over the storage layer's
// buffer pool. Keys and values are arbitrary byte slices; keys compare with
// bytes.Compare, so callers use record.EncodeKey to obtain order-preserving
// composite keys.
//
// The tree backs every index in the engine: clustered tables store whole
// tuples in leaf values, secondary indexes store RIDs. Leaves are chained
// for range scans — the access pattern the paper's clustered-index
// experiment (Fig 8(c)) depends on: edges of one node land on adjacent
// leaves, so an expansion touches few pages.
//
// Deletion is lazy (no merging/rebalancing); the workload is insert- and
// scan-heavy, and empty leaves are skipped by iterators.
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/record"
	"repro/internal/storage"
)

// Node page layout (both kinds):
//
//	off 0  type      byte  (1 = leaf, 2 = internal)
//	off 1  reserved  byte
//	off 2  nKeys     uint16
//	off 4  next      uint32 (leaf: right sibling; internal: leftmost child)
//	off 8  cellStart uint16 (lowest used cell offset; cells grow down)
//	off 10 slots     nKeys * uint16 (cell offsets in key order)
//
// Leaf cell:     uvarint keyLen | key | uvarint valLen | val
// Internal cell: uvarint keyLen | key | uint32 rightChild
const (
	nodeLeaf     = 1
	nodeInternal = 2

	offType      = 0
	offNKeys     = 2
	offNext      = 4
	offCellStart = 8
	offSlots     = 10
)

// ErrDuplicateKey is returned by Insert when the exact key already exists.
var ErrDuplicateKey = errors.New("btree: duplicate key")

// MaxEntrySize bounds key+value size so at least four cells fit per page.
const MaxEntrySize = (storage.PageSize - offSlots) / 4

// BTree is a handle to one tree. It is not safe for concurrent use; the
// engine serializes statements, as the paper's client does.
type BTree struct {
	pool   *storage.BufferPool
	root   storage.PageID
	pages  []storage.PageID // every node page, in allocation order
	n      int              // entry count
	splits uint64           // node splits and Resets so far: a key's leaf moves only on one
}

// New allocates an empty tree (a single empty leaf as root).
func New(pool *storage.BufferPool) (*BTree, error) {
	pg, err := pool.NewPage()
	if err != nil {
		return nil, err
	}
	initNode(pg, nodeLeaf)
	id := pg.ID()
	pool.Unpin(pg, true)
	return &BTree{pool: pool, root: id, pages: []storage.PageID{id}}, nil
}

// Pages lists every node page, in allocation order. The slice is the
// tree's own: callers must not modify it.
func (t *BTree) Pages() []storage.PageID { return t.pages }

// Reset truncates the tree in place: its first-allocated page is
// re-initialized as an empty leaf root and every other node page goes back
// to the buffer pool's free list, so a truncate-refill cycle (the FEM
// scratch tables, cleared every expansion round) allocates from the pages
// the last cycle returned.
func (t *BTree) Reset() error {
	first := t.pages[0]
	pg, err := t.pool.Fetch(first)
	if err != nil {
		return err
	}
	initNode(pg, nodeLeaf)
	t.pool.Unpin(pg, true)
	t.pool.Free(t.pages[1:]...)
	t.pages = t.pages[:1]
	t.root = first
	t.n = 0
	t.splits++
	return nil
}

// Len returns the number of live entries.
func (t *BTree) Len() int { return t.n }

func initNode(pg *storage.Page, typ byte) {
	for i := range pg.Data {
		pg.Data[i] = 0
	}
	pg.Data[offType] = typ
	pg.PutU16(offNKeys, 0)
	pg.PutU32(offNext, uint32(storage.InvalidPageID))
	pg.PutU16(offCellStart, storage.PageSize)
}

// cell accessors ------------------------------------------------------------

func nKeys(pg *storage.Page) int     { return int(pg.U16(offNKeys)) }
func cellStart(pg *storage.Page) int { return int(pg.U16(offCellStart)) }
func slotOff(i int) int              { return offSlots + 2*i }

// cellAt reads the cell in slot i. A length below 128 — every key and tuple
// the engine stores — is one byte, read without the varint loop.
func cellAt(pg *storage.Page, i int) (key, val []byte, child storage.PageID) {
	off := int(pg.U16(slotOff(i)))
	kl, w := uint64(pg.Data[off]), 1
	if kl >= 0x80 {
		kl, w = binary.Uvarint(pg.Data[off:])
	}
	key = pg.Data[off+w : off+w+int(kl)]
	rest := off + w + int(kl)
	if pg.Data[offType] == nodeLeaf {
		vl, w2 := uint64(pg.Data[rest]), 1
		if vl >= 0x80 {
			vl, w2 = binary.Uvarint(pg.Data[rest:])
		}
		val = pg.Data[rest+w2 : rest+w2+int(vl)]
		return key, val, storage.InvalidPageID
	}
	return key, nil, storage.PageID(pg.U32(rest))
}

// leafCell returns the bytes of leaf slot i's cell and, inside them, its
// value: cellAt's reading of a leaf, without the key.
func leafCell(pg *storage.Page, i int) (cell, val []byte) {
	off := int(pg.U16(slotOff(i)))
	kl, w := uint64(pg.Data[off]), 1
	if kl >= 0x80 {
		kl, w = binary.Uvarint(pg.Data[off:])
	}
	v := off + w + int(kl)
	vl, w := uint64(pg.Data[v]), 1
	if vl >= 0x80 {
		vl, w = binary.Uvarint(pg.Data[v:])
	}
	end := v + w + int(vl)
	return pg.Data[off:end], pg.Data[v+w : end]
}

func freeSpace(pg *storage.Page) int {
	return cellStart(pg) - (offSlots + 2*nKeys(pg))
}

func leafCellSize(key, val []byte) int {
	return uvarintLen(len(key)) + len(key) + uvarintLen(len(val)) + len(val)
}

func internalCellSize(key []byte) int {
	return uvarintLen(len(key)) + len(key) + 4
}

func uvarintLen(n int) int {
	l := 1
	for n >= 0x80 {
		n >>= 7
		l++
	}
	return l
}

// search returns the index of the first slot whose key is >= key, and
// whether an exact match exists at that index.
func search(pg *storage.Page, key []byte) (int, bool) {
	lo, hi := 0, nKeys(pg)
	for lo < hi {
		mid := (lo + hi) / 2
		k, _, _ := cellAt(pg, mid)
		if bytes.Compare(k, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < nKeys(pg) {
		k, _, _ := cellAt(pg, lo)
		return lo, bytes.Equal(k, key)
	}
	return lo, false
}

// childFor returns the child page to descend into for key.
func childFor(pg *storage.Page, key []byte) storage.PageID {
	// children: leftmost in header; cell i holds separator key_i and the
	// child holding keys >= key_i (until key_{i+1}).
	lo, hi := 0, nKeys(pg)
	for lo < hi {
		mid := (lo + hi) / 2
		k, _, _ := cellAt(pg, mid)
		if bytes.Compare(k, key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return storage.PageID(pg.U32(offNext))
	}
	_, _, child := cellAt(pg, lo-1)
	return child
}

// rawCell copies the full cell bytes at slot i (for splits/compaction).
func rawCell(pg *storage.Page, i int) []byte {
	off := int(pg.U16(slotOff(i)))
	kl, w := binary.Uvarint(pg.Data[off:])
	end := off + w + int(kl)
	if pg.Data[offType] == nodeLeaf {
		vl, w2 := binary.Uvarint(pg.Data[end:])
		end += w2 + int(vl)
	} else {
		end += 4
	}
	out := make([]byte, end-off)
	copy(out, pg.Data[off:end])
	return out
}

// insertCellAt writes a prepared cell into the node at slot index i.
// The caller must have verified space.
func insertCellAt(pg *storage.Page, i int, cell []byte) { copy(reserveCellAt(pg, i, len(cell)), cell) }

// reserveCellAt gives slot index i a new cell of size bytes, below the
// lowest one, and returns those bytes for the caller to fill. The caller
// must have verified space.
func reserveCellAt(pg *storage.Page, i, size int) []byte {
	start := cellStart(pg) - size
	pg.PutU16(offCellStart, uint16(start))
	n := nKeys(pg)
	// shift slots [i, n) right by one
	copy(pg.Data[slotOff(i+1):slotOff(n+1)], pg.Data[slotOff(i):slotOff(n)])
	pg.PutU16(slotOff(i), uint16(start))
	pg.PutU16(offNKeys, uint16(n+1))
	return pg.Data[start : start+size]
}

// removeCellAt deletes slot i (cell bytes become dead space).
func removeCellAt(pg *storage.Page, i int) {
	n := nKeys(pg)
	copy(pg.Data[slotOff(i):slotOff(n-1)], pg.Data[slotOff(i+1):slotOff(n)])
	pg.PutU16(offNKeys, uint16(n-1))
}

// compact rewrites all live cells tightly to reclaim dead space.
func compact(pg *storage.Page) {
	n := nKeys(pg)
	cells := make([][]byte, n)
	for i := 0; i < n; i++ {
		cells[i] = rawCell(pg, i)
	}
	typ := pg.Data[offType]
	next := pg.U32(offNext)
	initNode(pg, typ)
	pg.PutU32(offNext, next)
	writeCells(pg, cells)
}

// writeCells appends cells (already in key order) to an empty node.
func writeCells(pg *storage.Page, cells [][]byte) {
	start := cellStart(pg)
	for i, c := range cells {
		start -= len(c)
		copy(pg.Data[start:], c)
		pg.PutU16(slotOff(i), uint16(start))
	}
	pg.PutU16(offCellStart, uint16(start))
	pg.PutU16(offNKeys, uint16(len(cells)))
}

// makeLeafCell builds the serialized leaf cell for key/val.
func makeLeafCell(key, val []byte) []byte {
	return appendLeafCell(make([]byte, 0, leafCellSize(key, val)), key, val)
}

// appendLeafCell appends the serialized leaf cell for key/val to dst.
func appendLeafCell(dst, key, val []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	dst = binary.AppendUvarint(dst, uint64(len(val)))
	return append(dst, val...)
}

// makeInternalCell builds the serialized internal cell.
func makeInternalCell(key []byte, child storage.PageID) []byte {
	out := make([]byte, 0, internalCellSize(key))
	out = binary.AppendUvarint(out, uint64(len(key)))
	out = append(out, key...)
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], uint32(child))
	out = append(out, tmp[:]...)
	return out
}

// public operations ---------------------------------------------------------

// Get returns a copy of the value stored under key.
func (t *BTree) Get(key []byte) ([]byte, bool, error) { return t.GetInto(nil, key) }

// GetInto is Get into the caller's buffer: the value is appended to dst[:0].
func (t *BTree) GetInto(dst, key []byte) ([]byte, bool, error) {
	id := t.root
	for {
		pg, err := t.pool.Fetch(id)
		if err != nil {
			return nil, false, err
		}
		if pg.Data[offType] == nodeInternal {
			next := childFor(pg, key)
			t.pool.Unpin(pg, false)
			id = next
			continue
		}
		i, exact := search(pg, key)
		if !exact {
			t.pool.Unpin(pg, false)
			return nil, false, nil
		}
		_, v, _ := cellAt(pg, i)
		out := append(dst[:0], v...)
		t.pool.Unpin(pg, false)
		return out, true, nil
	}
}

// Insert stores key/val, failing with ErrDuplicateKey if key exists.
func (t *BTree) Insert(key, val []byte) error { return t.put(key, val, false) }

// Put stores key/val, overwriting any existing value.
func (t *BTree) Put(key, val []byte) error { return t.put(key, val, true) }

type splitResult struct {
	split bool
	sep   []byte
	right storage.PageID
}

func (t *BTree) put(key, val []byte, overwrite bool) error {
	if leafCellSize(key, val) > MaxEntrySize {
		return fmt.Errorf("btree: entry of %d bytes exceeds max %d", leafCellSize(key, val), MaxEntrySize)
	}
	res, inserted, err := t.putRec(t.root, key, val, overwrite)
	if err != nil {
		return err
	}
	if res.split {
		// Grow a new root.
		pg, err := t.pool.NewPage()
		if err != nil {
			return err
		}
		initNode(pg, nodeInternal)
		pg.PutU32(offNext, uint32(t.root))
		insertCellAt(pg, 0, makeInternalCell(res.sep, res.right))
		t.root = pg.ID()
		t.pages = append(t.pages, pg.ID())
		t.pool.Unpin(pg, true)
	}
	if inserted {
		t.n++
	}
	return nil
}

func (t *BTree) putRec(id storage.PageID, key, val []byte, overwrite bool) (splitResult, bool, error) {
	pg, err := t.pool.Fetch(id)
	if err != nil {
		return splitResult{}, false, err
	}
	if pg.Data[offType] == nodeInternal {
		child := childFor(pg, key)
		t.pool.Unpin(pg, false)
		res, inserted, err := t.putRec(child, key, val, overwrite)
		if err != nil || !res.split {
			return splitResult{}, inserted, err
		}
		// Re-fetch parent to add the separator.
		pg, err = t.pool.Fetch(id)
		if err != nil {
			return splitResult{}, inserted, err
		}
		defer func() { t.pool.Unpin(pg, true) }()
		cell := makeInternalCell(res.sep, res.right)
		i, _ := search(pg, res.sep)
		if len(cell)+2 <= freeSpace(pg) {
			insertCellAt(pg, i, cell)
			return splitResult{}, inserted, nil
		}
		if deadSpace(pg)+freeSpace(pg) >= len(cell)+2 {
			compact(pg)
			insertCellAt(pg, i, cell)
			return splitResult{}, inserted, nil
		}
		sr, err := t.splitInsert(pg, i, cell)
		return sr, inserted, err
	}
	// Leaf.
	defer func() { t.pool.Unpin(pg, true) }()
	i, exact := search(pg, key)
	if exact {
		if !overwrite {
			return splitResult{}, false, ErrDuplicateKey
		}
		// Replace: in place when the value keeps its size (an all-INT tuple
		// always does), else remove then re-insert.
		if _, old, _ := cellAt(pg, i); len(old) == len(val) {
			copy(old, val)
			return splitResult{}, false, nil
		}
		removeCellAt(pg, i)
		cell := makeLeafCell(key, val)
		if len(cell)+2 <= freeSpace(pg) {
			insertCellAt(pg, i, cell)
			return splitResult{}, false, nil
		}
		if deadSpace(pg)+freeSpace(pg) >= len(cell)+2 {
			compact(pg)
			insertCellAt(pg, i, cell)
			return splitResult{}, false, nil
		}
		sr, err := t.splitInsert(pg, i, cell)
		return sr, false, err
	}
	cell := makeLeafCell(key, val)
	if len(cell)+2 <= freeSpace(pg) {
		insertCellAt(pg, i, cell)
		return splitResult{}, true, nil
	}
	if deadSpace(pg)+freeSpace(pg) >= len(cell)+2 {
		compact(pg)
		insertCellAt(pg, i, cell)
		return splitResult{}, true, nil
	}
	sr, err := t.splitInsert(pg, i, cell)
	return sr, true, err
}

// deadSpace estimates reclaimable bytes (space between the slot region and
// cellStart already counted as free; dead cells are PageSize - cellStart
// minus live cell bytes).
func deadSpace(pg *storage.Page) int {
	live := 0
	for i := 0; i < nKeys(pg); i++ {
		live += len(rawCellView(pg, i))
	}
	return (storage.PageSize - cellStart(pg)) - live
}

// rawCellView is rawCell without the copy (only for length accounting).
func rawCellView(pg *storage.Page, i int) []byte {
	off := int(pg.U16(slotOff(i)))
	kl, w := binary.Uvarint(pg.Data[off:])
	end := off + w + int(kl)
	if pg.Data[offType] == nodeLeaf {
		vl, w2 := binary.Uvarint(pg.Data[end:])
		end += w2 + int(vl)
	} else {
		end += 4
	}
	return pg.Data[off:end]
}

// splitInsert splits pg while inserting cell at slot i, returning the
// separator and new right sibling. pg remains the left node.
func (t *BTree) splitInsert(pg *storage.Page, i int, cell []byte) (splitResult, error) {
	n := nKeys(pg)
	cells := make([][]byte, 0, n+1)
	for j := 0; j < n; j++ {
		cells = append(cells, rawCell(pg, j))
	}
	cells = append(cells[:i], append([][]byte{cell}, cells[i:]...)...)

	typ := pg.Data[offType]
	mid := len(cells) - 1
	switch {
	case i == n && typ == nodeLeaf && storage.PageID(pg.U32(offNext)) == storage.InvalidPageID:
		// An insert past the last cell of the rightmost leaf — every insert
		// of a key-ordered load — moves only the new cell right, so the
		// leaves such a load leaves behind stay full, not half empty.
	case i == n && typ == nodeInternal:
		// Likewise at an internal node's last slot: the cell before the new
		// one moves up and the new one is the right node's only cell.
		mid = len(cells) - 2
	default:
		// Split by bytes so variable-size cells balance.
		total := 0
		for _, c := range cells {
			total += len(c)
		}
		acc := 0
		for mid = 0; mid < len(cells)-1; mid++ {
			acc += len(cells[mid])
			if acc*2 >= total {
				mid++
				break
			}
		}
	}
	if mid < 1 {
		mid = 1
	}
	if mid >= len(cells) {
		mid = len(cells) - 1
	}
	left, right := cells[:mid], cells[mid:]

	rpg, err := t.pool.NewPage()
	if err != nil {
		return splitResult{}, err
	}
	t.splits++
	t.pages = append(t.pages, rpg.ID())
	initNode(rpg, typ)

	var sep []byte
	if typ == nodeLeaf {
		// Copy-up: separator is the first key of the right node.
		next := pg.U32(offNext)
		rpg.PutU32(offNext, next)
		writeCells(rpg, right)
		k, _ := cellKey(right[0], true)
		sep = append([]byte(nil), k...)

		initNode(pg, nodeLeaf)
		pg.PutU32(offNext, uint32(rpg.ID()))
		writeCells(pg, left)
	} else {
		// Move-up: right's first cell's key becomes the separator; its child
		// becomes the right node's leftmost child.
		k, child := cellKeyChild(right[0])
		sep = append([]byte(nil), k...)
		rpg.PutU32(offNext, uint32(child))
		writeCells(rpg, right[1:])

		old := pg.U32(offNext)
		initNode(pg, nodeInternal)
		pg.PutU32(offNext, old)
		writeCells(pg, left)
	}
	rid := rpg.ID()
	t.pool.Unpin(rpg, true)
	return splitResult{split: true, sep: sep, right: rid}, nil
}

// cellKey extracts the key bytes from a serialized cell.
func cellKey(cell []byte, leaf bool) ([]byte, int) {
	kl, w := binary.Uvarint(cell)
	return cell[w : w+int(kl)], w + int(kl)
}

func cellKeyChild(cell []byte) ([]byte, storage.PageID) {
	kl, w := binary.Uvarint(cell)
	key := cell[w : w+int(kl)]
	child := storage.PageID(binary.LittleEndian.Uint32(cell[w+int(kl):]))
	return key, child
}

// Delete removes key, reporting whether it existed. Nodes are not merged.
func (t *BTree) Delete(key []byte) (bool, error) {
	id := t.root
	for {
		pg, err := t.pool.Fetch(id)
		if err != nil {
			return false, err
		}
		if pg.Data[offType] == nodeInternal {
			next := childFor(pg, key)
			t.pool.Unpin(pg, false)
			id = next
			continue
		}
		i, exact := search(pg, key)
		if !exact {
			t.pool.Unpin(pg, false)
			return false, nil
		}
		removeCellAt(pg, i)
		t.pool.Unpin(pg, true)
		t.n--
		return true, nil
	}
}

// Iterator walks entries in key order within [lo, hi); nil bounds mean
// unbounded. Each leaf's wanted entries are copied once into a page the
// iterator owns before advancing, so the iterator holds no pins between Next
// calls and tolerates page eviction; keys and values are slices of that copy.
// An Iterator can be re-aimed with Reset, which keeps the copy's memory.
//
// An iterator given a tuple width and predicates yields only the entries
// whose value, a tuple of that many columns, satisfies them: each leaf's
// slot loop (match) checks them on the pinned page, and only the entries
// that pass are copied, unless enough pass that the whole leaf is cheaper
// (loadLeaf). A tuple of the wrong length ends the scan with an error, after
// the entries before it.
//
// Two writes go through an iterator without a descent of their own:
// Overwrite rewrites the current entry on the page its leaf copy came from,
// and InsertAtProbe inserts the key of the last ResetPrefix into the leaf
// that descent ended at.
type Iterator struct {
	tree     *BTree
	hi       []byte
	leaf     *storage.Page  // private copy of the current leaf's wanted cells, at their offsets
	leafPg   storage.PageID // the page leaf was copied from
	slots    []uint16       // the slots of the copied cells, in key order
	pos      int            // slots[pos:] are still to come
	key, val []byte         // current entry, inside leaf
	nextPg   storage.PageID
	hiBuf    []byte         // backs hi for ResetPrefix
	probe    []byte         // the last ResetPrefix's prefix, inside hiBuf; nil after a Reset
	probePg  storage.PageID // the leaf the last Reset descended to
	splits   uint64         // the tree's splits at that descent
	cols     int            // column count of the tuples preds are checked on; 0 without preds
	preds    []record.Pred
	done     bool
	lastErr  error
}

// Scan returns an iterator over [lo, hi).
func (t *BTree) Scan(lo, hi []byte) *Iterator {
	it := new(Iterator)
	it.Reset(t, lo, hi, 0, nil)
	return it
}

// ScanPrefix iterates all entries whose key starts with prefix.
func (t *BTree) ScanPrefix(prefix []byte) *Iterator {
	it := new(Iterator)
	it.ResetPrefix(t, prefix, 0, nil)
	return it
}

// ResetPrefix re-aims the iterator at the entries of t whose key starts
// with prefix and, given preds, whose value is a cols-column tuple that
// satisfies them. prefix is not retained; preds is.
func (it *Iterator) ResetPrefix(t *BTree, prefix []byte, cols int, preds []record.Pred) {
	// No key component begins with 0xFF, so prefix+0xFF bounds every
	// extension of prefix from above.
	it.hiBuf = append(append(it.hiBuf[:0], prefix...), 0xFF)
	it.Reset(t, prefix, it.hiBuf, cols, preds)
	it.probe = it.hiBuf[:len(prefix)]
}

// Reset re-aims the iterator at the entries of [lo, hi) of t and, given
// preds, whose value is a cols-column tuple that satisfies them. Without
// preds no value is checked: the caller decodes what it reads. hi and preds
// must stay unchanged while the iterator is in use; lo is not retained.
func (it *Iterator) Reset(t *BTree, lo, hi []byte, cols int, preds []record.Pred) {
	if len(preds) == 0 {
		cols = 0
	}
	it.tree, it.hi, it.cols, it.preds, it.probe = t, hi, cols, preds, nil
	it.pos, it.slots, it.done, it.lastErr = 0, it.slots[:0], false, nil
	it.probePg, it.splits = storage.InvalidPageID, t.splits
	pg, err := t.descend(lo)
	if err != nil {
		it.lastErr, it.done = err, true
		return
	}
	it.probePg = pg.ID()
	start := 0
	if lo != nil {
		start, _ = search(pg, lo)
	}
	it.loadLeaf(pg, start)
	t.pool.Unpin(pg, false)
}

// descend returns the leaf, pinned, that holds lo's place in key order; the
// leftmost leaf when lo is nil.
func (t *BTree) descend(lo []byte) (*storage.Page, error) {
	id := t.root
	for {
		pg, err := t.pool.Fetch(id)
		if err != nil || pg.Data[offType] == nodeLeaf {
			return pg, err
		}
		if lo == nil {
			id = storage.PageID(pg.U32(offNext))
		} else {
			id = childFor(pg, lo)
		}
		t.pool.Unpin(pg, false)
	}
}

// match is a leaf's slot loop: it returns the first slot in [i, end) of pg
// whose value is a cols-column tuple that satisfies preds (record.Match),
// with that value, or end when there is none. With cols 0 every slot passes,
// unread. A tuple of the wrong length stops it with the error.
func match(pg *storage.Page, i, end, cols int, preds []record.Pred) (int, []byte, error) {
	if cols == 0 {
		return min(i, end), nil, nil
	}
	for ; i < end; i++ {
		_, val := leafCell(pg, i)
		ok, err := record.Match(val, cols, preds)
		if err != nil {
			return i, nil, err
		}
		if ok {
			return i, val, nil
		}
	}
	return end, nil, nil
}

// loadLeaf collects the slots of pinned leaf pg to return — from start, up
// to hi (a leaf holding a key at or past hi is the scan's last), that pass
// the filter — and copies them: the slot array, then the cells at their
// offsets. A cell copied on its own costs about what 16–20 cells of one
// copy of the whole cell area do (17 ns against 90 ns for a leaf of 100
// cells of 56-byte tuples, in cache, on a 2-vCPU Xeon), so a sixteenth of
// the slots or more get that copy. A malformed tuple makes this leaf the
// last, its slots before it returned.
func (it *Iterator) loadLeaf(pg *storage.Page, start int) {
	if it.leaf == nil {
		it.leaf = new(storage.Page)
	}
	n, end := nKeys(pg), nKeys(pg)
	it.pos, it.leafPg = 0, pg.ID()
	it.nextPg = storage.PageID(pg.U32(offNext))
	if it.hi != nil {
		if e, _ := search(pg, it.hi); e < n {
			end, it.nextPg = e, storage.InvalidPageID
		}
	}
	it.slots = slices.Grow(it.slots[:0], max(end-start, 0))
	for i := start; ; i++ {
		var err error
		if i, _, err = match(pg, i, end, it.cols, it.preds); err != nil {
			it.lastErr, it.nextPg = err, storage.InvalidPageID
			break
		}
		if i == end {
			break
		}
		it.slots = append(it.slots, uint16(i))
	}
	copy(it.leaf.Data[:slotOff(n)], pg.Data[:])
	if 16*len(it.slots) >= n {
		copy(it.leaf.Data[cellStart(pg):], pg.Data[cellStart(pg):])
		return
	}
	for _, i := range it.slots {
		cell, _ := leafCell(pg, int(i))
		copy(it.leaf.Data[pg.U16(slotOff(int(i))):], cell)
	}
}

// Fold runs fn on the value of every entry, in key order, that is a
// cols-column tuple satisfying preds (cols > 0): each leaf's slot loop
// (match) checks the entries on the pinned page and fn reads the passing
// tuple there, so nothing is copied. It fetches the pages Scan(nil, nil)
// does. fn must not keep the tuple. A tuple of the wrong length ends it with
// the error, after fn has seen the tuples before it.
func (t *BTree) Fold(cols int, preds []record.Pred, fn func(tuple []byte)) error {
	pg, err := t.descend(nil)
	for err == nil {
		var val []byte
		for i, n := 0, nKeys(pg); ; i++ {
			if i, val, err = match(pg, i, n, cols, preds); err != nil || i == n {
				break
			}
			fn(val)
		}
		next := storage.PageID(pg.U32(offNext))
		t.pool.Unpin(pg, false)
		if err != nil || next == storage.InvalidPageID {
			return err
		}
		pg, err = t.pool.Fetch(next)
	}
	return err
}

// Next advances to the next entry the iterator yields, returning false at
// the end.
func (it *Iterator) Next() bool {
	for !it.done {
		if it.pos < len(it.slots) {
			it.key, it.val, _ = cellAt(it.leaf, int(it.slots[it.pos]))
			it.pos++
			return true
		}
		if it.nextPg == storage.InvalidPageID {
			break
		}
		pg, err := it.tree.pool.Fetch(it.nextPg)
		if err != nil {
			it.lastErr = err
			break
		}
		it.loadLeaf(pg, 0)
		it.tree.pool.Unpin(pg, false)
	}
	it.done = true
	return false
}

// Key returns the current entry's key (valid until the next Next or Reset).
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current entry's value (valid until the next Next or
// Reset).
func (it *Iterator) Value() []byte { return it.val }

// Err reports any I/O error that terminated the scan.
func (it *Iterator) Err() error { return it.lastErr }

// Overwrite replaces the current entry's value with val, of the same
// length, on the page the iterator's leaf copy came from: the bytes Put
// writes for an existing key, without Put's descent. The slot it was read
// from must still hold its key and a value of val's length; a leaf that
// changed since the copy is an error, and nothing is written.
func (it *Iterator) Overwrite(val []byte) error {
	pg, err := it.tree.pool.Fetch(it.leafPg)
	if err != nil {
		return err
	}
	if it.pos > 0 && pg.Data[offType] == nodeLeaf {
		if i := int(it.slots[it.pos-1]); i < nKeys(pg) {
			if key, old, _ := cellAt(pg, i); bytes.Equal(key, it.key) && len(old) == len(val) {
				copy(old, val)
				it.tree.pool.Unpin(pg, true)
				return nil
			}
		}
	}
	it.tree.pool.Unpin(pg, false)
	return fmt.Errorf("btree: overwrite of key %x: page %d no longer holds it where the scan read it", it.key, it.leafPg)
}

// InsertAtProbe inserts key/val into the leaf the last ResetPrefix
// descended to, when key is that prefix, no split or Reset of the tree has
// happened since — so the leaf is the one Insert would descend to — and the
// leaf has room for the cell as it stands. It then writes the bytes Insert
// writes and reports true; otherwise it writes nothing and reports false,
// and the caller takes Insert, which compacts or splits. An existing key is
// ErrDuplicateKey.
func (it *Iterator) InsertAtProbe(key, val []byte) (bool, error) {
	t := it.tree
	size := leafCellSize(key, val)
	if it.probePg == storage.InvalidPageID || it.probe == nil || !bytes.Equal(key, it.probe) ||
		it.splits != t.splits || size > MaxEntrySize {
		return false, nil
	}
	pg, err := t.pool.Fetch(it.probePg)
	if err != nil {
		return false, err
	}
	i, exact := search(pg, key)
	if exact || size+2 > freeSpace(pg) {
		t.pool.Unpin(pg, false)
		if exact {
			return false, ErrDuplicateKey
		}
		return false, nil
	}
	appendLeafCell(reserveCellAt(pg, i, size)[:0], key, val)
	t.pool.Unpin(pg, true)
	t.n++
	return true, nil
}

// Check verifies structural invariants (sorted keys per node, leaf chain
// globally sorted, separator bounds). Test helper.
func (t *BTree) Check() error {
	var prev []byte
	it := t.Scan(nil, nil)
	count := 0
	for it.Next() {
		if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
			return fmt.Errorf("btree: leaf chain out of order at %x", it.Key())
		}
		prev = append(prev[:0], it.Key()...)
		count++
	}
	if err := it.Err(); err != nil {
		return err
	}
	if count != t.n {
		return fmt.Errorf("btree: count mismatch scan=%d len=%d", count, t.n)
	}
	return nil
}
