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
	pool  *storage.BufferPool
	root  storage.PageID
	pages []storage.PageID // every node page, in allocation order
	n     int              // entry count
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

// Reset truncates the tree in place: its first-allocated page is
// re-initialized as an empty leaf root and every other node page is
// discarded from the buffer pool without write-back — a truncated table's
// nodes are dead, and flushing them on eviction would charge I/O for
// content nothing will read. Hot truncate-refill cycles (the FEM scratch
// tables, cleared every expansion round) reuse one page instead of leaking
// the whole tree per cycle.
func (t *BTree) Reset() error {
	first := t.pages[0]
	pg, err := t.pool.Fetch(first)
	if err != nil {
		return err
	}
	initNode(pg, nodeLeaf)
	t.pool.Unpin(pg, true)
	for _, id := range t.pages[1:] {
		t.pool.Discard(id)
	}
	t.pages = t.pages[:1]
	t.root = first
	t.n = 0
	return nil
}

// RootID returns the current root page (it changes as the tree grows).
func (t *BTree) RootID() storage.PageID { return t.root }

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
func insertCellAt(pg *storage.Page, i int, cell []byte) {
	start := cellStart(pg) - len(cell)
	copy(pg.Data[start:], cell)
	pg.PutU16(offCellStart, uint16(start))
	n := nKeys(pg)
	// shift slots [i, n) right by one
	copy(pg.Data[slotOff(i+1):slotOff(n+1)], pg.Data[slotOff(i):slotOff(n)])
	pg.PutU16(slotOff(i), uint16(start))
	pg.PutU16(offNKeys, uint16(n+1))
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
	out := make([]byte, 0, leafCellSize(key, val))
	out = binary.AppendUvarint(out, uint64(len(key)))
	out = append(out, key...)
	out = binary.AppendUvarint(out, uint64(len(val)))
	out = append(out, val...)
	return out
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

	// Split by bytes so variable-size cells balance.
	total := 0
	for _, c := range cells {
		total += len(c)
	}
	mid, acc := 0, 0
	for mid = 0; mid < len(cells)-1; mid++ {
		acc += len(cells[mid])
		if acc*2 >= total {
			mid++
			break
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
	t.pages = append(t.pages, rpg.ID())
	typ := pg.Data[offType]
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
// unbounded. Each leaf is copied once into a page the iterator owns before
// advancing, so the iterator holds no pins between Next calls and tolerates
// page eviction; keys and values are slices of that copy. An Iterator can
// be re-aimed with Reset, which keeps the copy's memory.
type Iterator struct {
	tree     *BTree
	hi       []byte
	leaf     *storage.Page // private copy of the current leaf
	pos, end int           // slots [pos, end) of leaf are still to come
	key, val []byte        // current entry, inside leaf
	nextPg   storage.PageID
	hiBuf    []byte // backs hi for ResetPrefix
	done     bool
	lastErr  error
}

// Scan returns an iterator over [lo, hi).
func (t *BTree) Scan(lo, hi []byte) *Iterator {
	it := new(Iterator)
	it.Reset(t, lo, hi)
	return it
}

// ScanPrefix iterates all entries whose key starts with prefix.
func (t *BTree) ScanPrefix(prefix []byte) *Iterator {
	it := new(Iterator)
	it.ResetPrefix(t, prefix)
	return it
}

// ResetPrefix re-aims the iterator at the entries of t whose key starts
// with prefix. prefix is not retained.
func (it *Iterator) ResetPrefix(t *BTree, prefix []byte) {
	// No key component begins with 0xFF, so prefix+0xFF bounds every
	// extension of prefix from above.
	it.hiBuf = append(append(it.hiBuf[:0], prefix...), 0xFF)
	it.Reset(t, prefix, it.hiBuf)
}

// Reset re-aims the iterator at [lo, hi) of t. hi must stay unchanged while
// the iterator is in use; lo is not retained.
func (it *Iterator) Reset(t *BTree, lo, hi []byte) {
	it.tree, it.hi = t, hi
	it.pos, it.end, it.done, it.lastErr = 0, 0, false, nil
	id := t.root
	for {
		pg, err := t.pool.Fetch(id)
		if err != nil {
			it.lastErr, it.done = err, true
			return
		}
		if pg.Data[offType] == nodeInternal {
			var next storage.PageID
			if lo == nil {
				next = storage.PageID(pg.U32(offNext))
			} else {
				next = childFor(pg, lo)
			}
			t.pool.Unpin(pg, false)
			id = next
			continue
		}
		start := 0
		if lo != nil {
			start, _ = search(pg, lo)
		}
		it.loadLeaf(pg, start)
		t.pool.Unpin(pg, false)
		return
	}
}

// loadLeaf bounds the slots to return by hi — a leaf holding a key at or
// past hi is the scan's last — and copies them: the slot array, then the
// cells at their offsets, the whole cell area at once when the whole leaf is
// wanted and cell by cell for a probe after a few of its entries.
func (it *Iterator) loadLeaf(pg *storage.Page, start int) {
	if it.leaf == nil {
		it.leaf = new(storage.Page)
	}
	n := nKeys(pg)
	it.pos, it.end = start, n
	it.nextPg = storage.PageID(pg.U32(offNext))
	if it.hi != nil {
		if e, _ := search(pg, it.hi); e < n {
			it.end, it.nextPg = e, storage.InvalidPageID
		}
	}
	copy(it.leaf.Data[:slotOff(n)], pg.Data[:])
	if it.pos == 0 && it.end == n {
		copy(it.leaf.Data[cellStart(pg):], pg.Data[cellStart(pg):])
		return
	}
	for i := it.pos; i < it.end; i++ {
		copy(it.leaf.Data[pg.U16(slotOff(i)):], rawCellView(pg, i))
	}
}

// Next advances to the next entry, returning false at the end.
func (it *Iterator) Next() bool {
	if it.done {
		return false
	}
	for it.pos >= it.end {
		if it.nextPg == storage.InvalidPageID {
			it.done = true
			return false
		}
		pg, err := it.tree.pool.Fetch(it.nextPg)
		if err != nil {
			it.lastErr = err
			it.done = true
			return false
		}
		it.loadLeaf(pg, 0)
		it.tree.pool.Unpin(pg, false)
	}
	it.key, it.val, _ = cellAt(it.leaf, it.pos)
	it.pos++
	return true
}

// Key returns the current entry's key (valid until the next Next or Reset).
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current entry's value (valid until the next Next or
// Reset).
func (it *Iterator) Value() []byte { return it.val }

// Err reports any I/O error that terminated the scan.
func (it *Iterator) Err() error { return it.lastErr }

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
