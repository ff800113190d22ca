// Package btree implements a disk-resident B+tree over the storage layer's
// buffer pool. An entry is a byte string that holds its own key: a tree is
// ordered by key columns, each an int64 stored as 8 little-endian bytes at a
// fixed offset of the entry (column c at 8·c, the layout of a stored tuple),
// and compares them as int64s. A key — what Get, Delete and the scans take,
// and what internal nodes store as separators — is those columns' 8-byte
// values in key order. A key of fewer columns is a prefix: it sorts before
// every key it begins.
//
// The tree backs every index in the engine: a clustered table's entry is its
// tuple (plus a uniquifier column when the clustered key is not unique), so
// a row is stored once; a secondary index's entry is the indexed columns
// followed by the row's location. Leaves are chained for range scans — the
// access pattern the paper's clustered-index experiment (Fig 8(c)) depends
// on: edges of one node land on adjacent leaves, so an expansion touches few
// pages — and they are kept full: a key-ordered load leaves them full
// (insertCell), and Pack refills the leaves that inserts between stored
// keys split.
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
// Leaf cell:     uvarint entryLen | entry
// Internal cell: key | uint32 rightChild (a key is 8 bytes a key column)
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

// MaxEntrySize bounds a leaf cell (an entry and its length) so at least four
// cells fit per page.
const MaxEntrySize = (storage.PageSize - offSlots) / 4

// BTree is a handle to one tree. It is not safe for concurrent use; the
// engine serializes statements, as the paper's client does.
type BTree struct {
	pool     *storage.BufferPool
	owner    storage.Owner // what its pages are charged to
	key      []int         // the byte offset in an entry of each key column, in key order
	sep      []int         // the same columns' offsets in a key: 0, 8, 16, ...
	width    int           // the bytes an entry must hold: up to its last key column
	root     storage.PageID
	pages    []storage.PageID // every node page, in allocation order
	n        int              // entry count
	splits   uint64           // splits, shares, Packs and Resets so far: a key's leaf changes only on one
	keyBuf   []byte           // the key of the entry put stores
	entryBuf []byte           // the entry put or InsertAtProbe stores
	scratch  []byte           // backs the cells a split or Pack moves
	cellBuf  [][]byte         // a split's cells, in scratch
}

// New allocates an empty tree (a single empty leaf as root) ordered by the
// given columns of its entries, in that order — column 0 when none is given
// — column c being the int64 at bytes 8·c.
func New(pool *storage.BufferPool, cols ...int) (*BTree, error) { return NewOwned(pool, 0, cols...) }

// NewOwned is New for a tree whose every page the pool charges to owner.
func NewOwned(pool *storage.BufferPool, owner storage.Owner, cols ...int) (*BTree, error) {
	if len(cols) == 0 {
		cols = []int{0}
	}
	if 8*len(cols)+4 > MaxEntrySize {
		return nil, fmt.Errorf("btree: a key of %d columns", len(cols))
	}
	t := &BTree{pool: pool, owner: owner}
	for j, c := range cols {
		t.key = append(t.key, 8*c)
		t.sep = append(t.sep, 8*j)
		t.width = max(t.width, 8*c+8)
	}
	pg, err := pool.NewPageFor(owner)
	if err != nil {
		return nil, err
	}
	initNode(pg, nodeLeaf)
	t.root = pg.ID()
	t.pages = []storage.PageID{t.root}
	pool.Unpin(pg, true)
	return t, nil
}

// Pages lists every node page, in allocation order. The slice is the
// tree's own: callers must not modify it.
func (t *BTree) Pages() []storage.PageID { return t.pages }

// KeyOf appends the key of entry to dst.
func (t *BTree) KeyOf(dst, entry []byte) []byte {
	for _, off := range t.key {
		dst = append(dst, entry[off:off+8]...)
	}
	return dst
}

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

// entrySpan finds leaf slot i's entry through the slot array on the page
// itself: it is pg.Data[off : off+n]. Its uvarint length, at the slot's
// offset, is one byte below 128 — every entry the engine stores — and two
// otherwise, an entry being shorter than 1<<14 (MaxEntrySize), so neither
// takes the varint loop. Small enough to inline into the slot loop and the
// key compares, so finding a cell costs no call.
func entrySpan(pg *storage.Page, i int) (off, n int) {
	off = int(binary.LittleEndian.Uint16(pg.Data[offSlots+2*i:]))
	if n = int(pg.Data[off]); n < 0x80 {
		return off + 1, n
	}
	return off + 2, n&0x7f | int(pg.Data[off+1])<<7
}

// A leaf cell's length takes two bytes at most (entrySpan): this constant
// overflows, and the package does not build, if MaxEntrySize reaches 1<<14.
const _ = uint(1<<14 - 1 - MaxEntrySize)

// entryAt returns leaf slot i's entry, on the page.
func entryAt(pg *storage.Page, i int) []byte {
	off, n := entrySpan(pg, i)
	return pg.Data[off : off+n]
}

// sepAt returns internal slot i's separator key, on the page.
func (t *BTree) sepAt(pg *storage.Page, i int) []byte {
	off := int(pg.U16(slotOff(i)))
	return pg.Data[off : off+len(t.sep)*8]
}

// child returns internal node pg's j-th child: the leftmost in the header,
// then the right child of each separator.
func (t *BTree) child(pg *storage.Page, j int) storage.PageID {
	if j == 0 {
		return storage.PageID(pg.U32(offNext))
	}
	return storage.PageID(pg.U32(int(pg.U16(slotOff(j-1))) + len(t.sep)*8))
}

// cellAt returns the bytes of slot i's cell, on the page.
func (t *BTree) cellAt(pg *storage.Page, i int) []byte {
	off := int(pg.U16(slotOff(i)))
	if pg.Data[offType] == nodeLeaf {
		e, n := entrySpan(pg, i)
		return pg.Data[off : e+n]
	}
	return pg.Data[off : off+len(t.sep)*8+4]
}

func freeSpace(pg *storage.Page) int {
	return cellStart(pg) - (offSlots + 2*nKeys(pg))
}

func leafCellSize(entry []byte) int { return uvarintLen(len(entry)) + len(entry) }

func uvarintLen(n int) int {
	l := 1
	for n >= 0x80 {
		n >>= 7
		l++
	}
	return l
}

// cmp compares key, a key or a prefix of one, with the key whose columns lie
// at offs of x (an entry, or a separator with the offsets t.sep), on key's
// columns only: 0 when x's key begins with key.
func cmp(key, x []byte, offs []int) int {
	for j, off := range offs[:len(key)/8] {
		a, b := int64(binary.LittleEndian.Uint64(key[8*j:])), int64(binary.LittleEndian.Uint64(x[off:]))
		if a != b {
			if a < b {
				return -1
			}
			return 1
		}
	}
	return 0
}

// bound returns the first slot from lo on of leaf pg whose entry's key does
// not sort before key: before it, or with past before it or one of the keys
// it begins. It steps over the first walk slots one at a time, then
// binary-searches the rest. Each step reads its key on the page (entrySpan,
// cmp, both inlined), so no step makes a call.
func (t *BTree) bound(pg *storage.Page, lo int, key []byte, past bool, walk int) int {
	hi := nKeys(pg)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if walk > 0 {
			mid, walk = lo, walk-1
		}
		off, _ := entrySpan(pg, mid)
		if c := cmp(key, pg.Data[off:], t.key); c > 0 || c == 0 && past {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// search returns the first slot of leaf pg whose entry's key is at or after
// key, and whether that key is key.
func (t *BTree) search(pg *storage.Page, key []byte) (int, bool) {
	i := t.bound(pg, 0, key, false, 0)
	return i, i < nKeys(pg) && len(key) == len(t.sep)*8 && cmp(key, entryAt(pg, i), t.key) == 0
}

// childFor returns the index and page of internal node pg's child that holds
// key's place: the one right of the last separator at or before key. A
// prefix sorts before the keys it begins, so it descends left of them.
func (t *BTree) childFor(pg *storage.Page, key []byte) (int, storage.PageID) {
	full := len(key) == len(t.sep)*8
	lo, hi := 0, nKeys(pg)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c := cmp(key, t.sepAt(pg, mid), t.sep); c > 0 || c == 0 && full {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, t.child(pg, lo)
}

// checkKey refuses a key that is not 8 bytes for each of some of the key
// columns.
func (t *BTree) checkKey(key []byte) error {
	if len(key)%8 != 0 || len(key) > len(t.sep)*8 {
		return fmt.Errorf("btree: a %d-byte key for a tree of %d key columns", len(key), len(t.sep))
	}
	return nil
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

// cells appends the cells of pg, in slot order, to dst, their bytes copied
// to the tree's scratch buffer: valid until the next put.
func (t *BTree) cells(dst [][]byte, pg *storage.Page) [][]byte {
	for i := 0; i < nKeys(pg); i++ {
		at := len(t.scratch)
		t.scratch = append(t.scratch, t.cellAt(pg, i)...)
		dst = append(dst, t.scratch[at:len(t.scratch):len(t.scratch)])
	}
	return dst
}

// rewrite empties node pg, keeping its type and next pointer, and writes
// cells (in key order, fitting) into it.
func rewrite(pg *storage.Page, cells [][]byte) {
	typ, next := pg.Data[offType], pg.U32(offNext)
	initNode(pg, typ)
	pg.PutU32(offNext, next)
	start := cellStart(pg)
	for i, c := range cells {
		start -= len(c)
		copy(pg.Data[start:], c)
		pg.PutU16(slotOff(i), uint16(start))
	}
	pg.PutU16(offCellStart, uint16(start))
	pg.PutU16(offNKeys, uint16(len(cells)))
}

// room is the space a cell and its slot can take in pg once its dead cells
// are compacted away.
func (t *BTree) room(pg *storage.Page) int {
	live := 0
	for i := 0; i < nKeys(pg); i++ {
		live += len(t.cellAt(pg, i))
	}
	return freeSpace(pg) + (storage.PageSize - cellStart(pg)) - live
}

// size is the space cells and their slots take in a node.
func size(cells [][]byte) int {
	s := 0
	for _, c := range cells {
		s += len(c) + 2
	}
	return s
}

// makeLeafCell builds the serialized leaf cell of entry.
func makeLeafCell(entry []byte) []byte {
	return append(binary.AppendUvarint(make([]byte, 0, leafCellSize(entry)), uint64(len(entry))), entry...)
}

// makeInternalCell builds the serialized internal cell.
func makeInternalCell(key []byte, child storage.PageID) []byte {
	return binary.LittleEndian.AppendUint32(append(make([]byte, 0, len(key)+4), key...), uint32(child))
}

// public operations ---------------------------------------------------------

// Get returns a copy of the entry stored under key.
func (t *BTree) Get(key []byte) ([]byte, bool, error) { return t.GetInto(nil, key) }

// GetInto is Get into the caller's buffer: the entry is appended to dst[:0].
func (t *BTree) GetInto(dst, key []byte) ([]byte, bool, error) {
	pg, err := t.descend(key)
	if err != nil {
		return nil, false, err
	}
	defer t.pool.Unpin(pg, false)
	i, exact := t.search(pg, key)
	if !exact {
		return nil, false, nil
	}
	return append(dst[:0], entryAt(pg, i)...), true, nil
}

// Insert stores the entry head followed by tail — a tuple and the
// uniquifier of a non-unique clustered key, an index's columns and the
// row's location — failing with ErrDuplicateKey if its key exists.
func (t *BTree) Insert(head, tail []byte) error { return t.put(head, tail, false) }

// Put stores the entry head followed by tail, replacing the entry of the
// same key if one exists.
func (t *BTree) Put(head, tail []byte) error { return t.put(head, tail, true) }

// entry assembles head and tail in the tree's entry buffer and checks that
// the entry holds its key columns and fits a leaf.
func (t *BTree) entry(head, tail []byte) ([]byte, error) {
	t.entryBuf = append(append(t.entryBuf[:0], head...), tail...)
	if n := len(t.entryBuf); n < t.width || leafCellSize(t.entryBuf) > MaxEntrySize {
		return nil, fmt.Errorf("btree: a %d-byte entry, where a tree keyed up to byte %d stores at most %d", n, t.width, MaxEntrySize)
	}
	return t.entryBuf, nil
}

// splitResult is what an insert into a node reports to its parent: the
// node split, and its new right sibling right holds the keys from sep on;
// or, shifted, its first cells moved onto its left sibling, and its keys
// now start at sep.
type splitResult struct {
	split, shifted bool
	sep            []byte
	right          storage.PageID
}

func (t *BTree) put(head, tail []byte, overwrite bool) error {
	entry, err := t.entry(head, tail)
	if err != nil {
		return err
	}
	t.keyBuf = t.KeyOf(t.keyBuf[:0], entry)
	res, inserted, err := t.putRec(t.root, storage.InvalidPageID, t.keyBuf, entry, overwrite)
	if err != nil {
		return err
	}
	if res.split {
		// Grow a new root.
		pg, err := t.pool.NewPageFor(t.owner)
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

// putRec stores entry, of key key, in the subtree of node id, whose left
// sibling under the same parent is left (InvalidPageID: none).
func (t *BTree) putRec(id, left storage.PageID, key, entry []byte, overwrite bool) (splitResult, bool, error) {
	pg, err := t.pool.Fetch(id)
	if err != nil {
		return splitResult{}, false, err
	}
	if pg.Data[offType] == nodeInternal {
		j, child := t.childFor(pg, key)
		childLeft := storage.InvalidPageID
		if j > 0 {
			childLeft = t.child(pg, j-1)
		}
		t.pool.Unpin(pg, false)
		res, inserted, err := t.putRec(child, childLeft, key, entry, overwrite)
		if err != nil || !res.split && !res.shifted {
			return splitResult{}, inserted, err
		}
		// Re-fetch the parent to record what child j did.
		if pg, err = t.pool.Fetch(id); err != nil {
			return splitResult{}, inserted, err
		}
		defer func() { t.pool.Unpin(pg, true) }()
		if res.shifted { // keys have one size: the separator is rewritten in place
			copy(t.sepAt(pg, j-1), res.sep)
			return splitResult{}, inserted, nil
		}
		sr, err := t.insertCell(pg, j, makeInternalCell(res.sep, res.right), storage.InvalidPageID)
		return sr, inserted, err
	}
	// Leaf.
	defer func() { t.pool.Unpin(pg, true) }()
	i, exact := t.search(pg, key)
	if exact {
		if !overwrite {
			return splitResult{}, false, ErrDuplicateKey
		}
		// Replace: in place when the entry keeps its size (an all-INT tuple
		// always does), else remove then re-insert.
		if old := entryAt(pg, i); len(old) == len(entry) {
			copy(old, entry)
			return splitResult{}, false, nil
		}
		removeCellAt(pg, i)
	}
	sr, err := t.insertCell(pg, i, makeLeafCell(entry), left)
	return sr, !exact, err
}

// insertCell stores cell at slot i of node pg: in its free space, compacted
// if its dead cells make the room, else, at a leaf, by moving its first
// cells onto left, its left sibling under the same parent, until the two
// hold about as much (balanceLeft), and otherwise by a split.
//
// A split moves the cells from the middle on, by bytes, to a new right
// sibling. At the last slot it moves less: at a leaf with no right sibling
// only the new cell, so the leaves a key-ordered load leaves behind stay
// full, not half empty; at an internal node the cell before the new one
// moves up and the new one is the right node's only cell.
func (t *BTree) insertCell(pg *storage.Page, i int, cell []byte, left storage.PageID) (splitResult, error) {
	if len(cell)+2 <= freeSpace(pg) {
		insertCellAt(pg, i, cell)
		return splitResult{}, nil
	}
	t.scratch = t.scratch[:0]
	cells := slices.Insert(t.cells(t.cellBuf[:0], pg), i, cell)
	t.cellBuf = cells
	if size(cells) <= storage.PageSize-offSlots {
		rewrite(pg, cells)
		return splitResult{}, nil
	}
	if left != storage.InvalidPageID {
		if ok, err := t.balanceLeft(pg, cells, left); ok || err != nil {
			return splitResult{shifted: ok, sep: t.KeyOf(nil, entryAt(pg, 0))}, err
		}
	}
	leaf := pg.Data[offType] == nodeLeaf
	var mid int
	switch {
	case i == len(cells)-1 && leaf && storage.PageID(pg.U32(offNext)) == storage.InvalidPageID:
		mid = len(cells) - 1
	case i == len(cells)-1 && !leaf:
		mid = len(cells) - 2
	default:
		total, acc := size(cells), 0
		for ; mid < len(cells)-1 && 2*acc < total; mid++ {
			acc += len(cells[mid]) + 2
		}
	}
	mid = min(max(mid, 1), len(cells)-1)

	rpg, err := t.pool.NewPageFor(t.owner)
	if err != nil {
		return splitResult{}, err
	}
	t.splits++
	t.pages = append(t.pages, rpg.ID())
	initNode(rpg, pg.Data[offType])
	var sep []byte
	if leaf {
		// Copy-up: the separator is the first key of the right node.
		rpg.PutU32(offNext, pg.U32(offNext))
		rewrite(rpg, cells[mid:])
		sep = t.KeyOf(nil, entryAt(rpg, 0))
		pg.PutU32(offNext, uint32(rpg.ID()))
	} else {
		// Move-up: the right node's first cell's key becomes the separator;
		// its child becomes the right node's leftmost child.
		kl := len(t.sep) * 8
		sep = slices.Clone(cells[mid][:kl])
		rpg.PutU32(offNext, binary.LittleEndian.Uint32(cells[mid][kl:]))
		rewrite(rpg, cells[mid+1:])
	}
	rewrite(pg, cells[:mid])
	rid := rpg.ID()
	t.pool.Unpin(rpg, true)
	return splitResult{split: true, sep: sep, right: rid}, nil
}

// balanceLeft moves the first of cells — leaf pg's cells with a new one —
// onto the end of left while left would still hold no more than pg keeps,
// and rewrites pg with the rest: a random insert that overflows a leaf next
// to one with room shares it instead of splitting, which leaves a tree
// filled in random order fuller (69.6% against 67.4% for 32-byte entries,
// TestAscendingInsertFillsLeaves' load). It reports false, and
// changes nothing, when no cell moves or the rest would not fit pg.
func (t *BTree) balanceLeft(pg *storage.Page, cells [][]byte, left storage.PageID) (bool, error) {
	lpg, err := t.pool.Fetch(left)
	if err != nil {
		return false, err
	}
	have, keep, m := storage.PageSize-offSlots-t.room(lpg), size(cells), 0
	for ; m < len(cells)-1 && have+len(cells[m])+2 <= keep-len(cells[m])-2; m++ {
		have, keep = have+len(cells[m])+2, keep-len(cells[m])-2
	}
	if m == 0 || keep > storage.PageSize-offSlots {
		t.pool.Unpin(lpg, false)
		return false, nil
	}
	if size(cells[:m]) > freeSpace(lpg) { // its dead cells make the room
		rewrite(lpg, t.cells(nil, lpg))
	}
	for _, c := range cells[:m] {
		insertCellAt(lpg, nKeys(lpg), c)
	}
	t.pool.Unpin(lpg, true)
	rewrite(pg, cells[m:])
	t.splits++
	return true, nil
}

// Pack rewrites the leaves that hold the keys from lo's place up to hi's
// (nil: the first and the last), and the one before, full, in key order:
// under each parent, every leaf takes the cells of the ones after it until
// it holds no more, the leaves left empty are unlinked and their pages
// freed, and the separators follow the leaves' first keys. Inserts that land between stored keys
// split the leaves they meet in halves — the SegTable build merging a batch
// of segments between the original edges leaves them 57–68% full — and
// packing the leaves a batch touched leaves them as full as a key-ordered
// load does, before the next batch adds to the pages the tree holds.
func (t *BTree) Pack(lo, hi []byte) error {
	if err := t.checkKey(lo); err != nil {
		return err
	}
	if err := t.checkKey(hi); err != nil {
		return err
	}
	return t.pack(t.root, lo, hi)
}

// pack packs the leaves of [lo's, hi's] under internal node id.
func (t *BTree) pack(id storage.PageID, lo, hi []byte) error {
	pg, err := t.pool.Fetch(id)
	if err != nil {
		return err
	}
	if pg.Data[offType] == nodeLeaf { // a root leaf is as packed as it gets
		t.pool.Unpin(pg, false)
		return nil
	}
	first, last := 0, nKeys(pg)
	if lo != nil {
		first, _ = t.childFor(pg, lo)
	}
	if hi != nil {
		last, _ = t.childFor(pg, hi)
	}
	child, err := t.pool.Fetch(t.child(pg, first))
	if err != nil {
		t.pool.Unpin(pg, false)
		return err
	}
	leaves := child.Data[offType] == nodeLeaf
	t.pool.Unpin(child, false)
	if leaves { // from the leaf before lo's: it may hold what a split left of lo's
		err = t.packLeaves(pg, max(first-1, 0), last)
		t.pool.Unpin(pg, true)
		return err
	}
	var ids []storage.PageID
	for j := first; j <= last; j++ {
		ids = append(ids, t.child(pg, j))
	}
	t.pool.Unpin(pg, false)
	for _, c := range ids {
		if err := t.pack(c, lo, hi); err != nil {
			return err
		}
	}
	return nil
}

// packLeaves packs leaves first..last of parent, reading each before it
// writes any leaf at or after it.
func (t *BTree) packLeaves(parent *storage.Page, first, last int) error {
	if first == last {
		return nil
	}
	ids := make([]storage.PageID, 0, last-first+1)
	for j := first; j <= last; j++ {
		ids = append(ids, t.child(parent, j))
	}
	var next uint32 // the last leaf's right sibling
	var cells, pending [][]byte
	var held []byte   // backs pending
	dst, used := 0, 0 // the leaf pending goes to, and the bytes it will take
	flush := func() error {
		pg, err := t.pool.Fetch(ids[dst])
		if err != nil {
			return err
		}
		rewrite(pg, pending)
		if dst > 0 { // its separator is its first key
			t.KeyOf(t.sepAt(parent, first+dst-1)[:0], entryAt(pg, 0))
		}
		t.pool.Unpin(pg, true)
		pending, held, dst, used = pending[:0], held[:0], dst+1, 0
		return nil
	}
	for _, id := range ids {
		pg, err := t.pool.Fetch(id)
		if err != nil {
			return err
		}
		t.scratch = t.scratch[:0] // a copy: pg may be the next leaf flushed
		cells = t.cells(cells[:0], pg)
		next = pg.U32(offNext)
		t.pool.Unpin(pg, false)
		for _, c := range cells {
			if used+len(c)+2 > storage.PageSize-offSlots {
				if err := flush(); err != nil {
					return err
				}
			}
			at := len(held)
			held = append(held, c...)
			pending, used = append(pending, held[at:len(held):len(held)]), used+len(c)+2
		}
	}
	if len(pending) > 0 || dst == 0 {
		if err := flush(); err != nil {
			return err
		}
	}
	pg, err := t.pool.Fetch(ids[dst-1])
	if err != nil {
		return err
	}
	pg.PutU32(offNext, next)
	t.pool.Unpin(pg, true)
	gone := ids[dst:]
	for range gone { // their separators go
		removeCellAt(parent, first+dst-1)
	}
	t.pages = slices.DeleteFunc(t.pages, func(id storage.PageID) bool { return slices.Contains(gone, id) })
	t.pool.Free(gone...)
	t.splits++
	return nil
}

// Delete removes the entry of key, reporting whether it existed. Nodes are
// not merged.
func (t *BTree) Delete(key []byte) (bool, error) {
	pg, err := t.descend(key)
	if err != nil {
		return false, err
	}
	i, exact := t.search(pg, key)
	if exact {
		removeCellAt(pg, i)
		t.n--
	}
	t.pool.Unpin(pg, exact)
	return exact, nil
}

// Iterator walks entries in key order within [lo, hi); nil bounds mean
// unbounded. Each leaf's wanted entries are copied once into a page the
// iterator owns before advancing, so the iterator holds no pins between Next
// calls and tolerates page eviction; keys and entries are slices of that
// copy. An Iterator can be re-aimed with Reset, which keeps the copy's
// memory.
//
// An iterator given a tuple width and predicates yields only the entries
// that, read as a tuple of that many columns, satisfy them: each leaf's
// slot loop (match) checks them on the pinned page, and only the entries
// that pass are copied, unless enough pass that the whole leaf is cheaper
// (loadLeaf). An entry of the wrong length ends the scan with an error,
// after the entries before it.
//
// Two writes go through an iterator without a descent of their own:
// Overwrite rewrites the current entry on the page its leaf copy came from,
// and InsertAtProbe inserts an entry of the last ResetPrefix's key into the
// leaf that re-aim started at.
//
// A re-aim costs no descent when its lower bound lands on the leaf the last
// one did (the finger): the iterator remembers that leaf's first and last
// keys, and a bound that sorts strictly after the first (so a prefix has no
// match in the leaf before) and at or before the last, in a tree with no
// split, share, Pack or Reset since, has its place there. Its separators
// bound those keys, and only those four move a separator (Delete never
// merges), so descend would end at the same leaf. The check is a compare of
// keys, not a fetch; a shuffled probe that misses it descends as before.
type Iterator struct {
	tree    *BTree
	hi      []byte
	past    bool           // hi is a prefix whose keys the scan yields
	leaf    *storage.Page  // private copy of the current leaf's wanted cells, at their offsets
	leafPg  storage.PageID // the page leaf was copied from
	slots   []uint16       // the slots of the copied cells, in key order
	pos     int            // slots[pos:] are still to come
	val     []byte         // current entry, inside leaf
	key     []byte         // Key's buffer
	nextPg  storage.PageID
	hiBuf   []byte         // backs hi and probe for ResetPrefix
	probe   []byte         // the last ResetPrefix's prefix; nil after a Reset
	probePg storage.PageID // the leaf the last Reset started at
	splits  uint64         // the tree's splits when a Reset last descended
	first   []byte         // the key probePg held first then, if any
	last    []byte         // and the key it held last
	cols    int            // column count of the tuples preds are checked on; 0 without preds
	preds   []record.Pred
	done    bool
	lastErr error
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
// with prefix and, given preds, that are a cols-column tuple satisfying
// them. prefix is not retained; preds is.
func (it *Iterator) ResetPrefix(t *BTree, prefix []byte, cols int, preds []record.Pred) {
	it.hiBuf = append(it.hiBuf[:0], prefix...)
	it.reset(t, it.hiBuf, it.hiBuf, true, cols, preds)
	it.probe = it.hiBuf
}

// Reset re-aims the iterator at the entries of [lo, hi) of t and, given
// preds, that are a cols-column tuple satisfying them. Without preds no
// entry is checked: the caller decodes what it reads. hi and preds must
// stay unchanged while the iterator is in use; lo is not retained.
func (it *Iterator) Reset(t *BTree, lo, hi []byte, cols int, preds []record.Pred) {
	it.reset(t, lo, hi, false, cols, preds)
	it.probe = nil
}

func (it *Iterator) reset(t *BTree, lo, hi []byte, past bool, cols int, preds []record.Pred) {
	if len(preds) == 0 {
		cols = 0
	}
	err := t.checkKey(hi)
	if err == nil {
		err = t.checkKey(lo)
	}
	finger := err == nil && it.tree == t && it.probePg != storage.InvalidPageID && it.splits == t.splits &&
		lo != nil && len(it.last) > 0 && cmp(lo, it.first, t.sep) > 0 && cmp(lo, it.last, t.sep) <= 0
	it.tree, it.hi, it.past, it.cols, it.preds = t, hi, past, cols, preds
	it.pos, it.slots, it.done, it.lastErr = 0, it.slots[:0], false, nil
	var pg *storage.Page
	switch {
	case err != nil:
	case finger:
		pg, err = t.pool.Fetch(it.probePg)
	default:
		pg, err = t.descend(lo)
	}
	if err != nil {
		it.probePg, it.lastErr, it.done = storage.InvalidPageID, err, true
		return
	}
	if !finger { // a finger's leaf, splits and keys stand as they were
		it.probePg, it.splits = pg.ID(), t.splits
		it.first, it.last = it.first[:0], it.last[:0]
		if n := nKeys(pg); n > 0 {
			it.first, it.last = t.KeyOf(it.first, entryAt(pg, 0)), t.KeyOf(it.last, entryAt(pg, n-1))
		}
	}
	start := 0
	if lo != nil {
		start, _ = t.search(pg, lo)
	}
	it.loadLeaf(pg, start)
	t.pool.Unpin(pg, false)
}

// descend returns the leaf, pinned, that holds key's place in key order;
// the leftmost leaf when key is nil.
func (t *BTree) descend(key []byte) (*storage.Page, error) {
	if err := t.checkKey(key); err != nil {
		return nil, err
	}
	id := t.root
	for {
		pg, err := t.pool.Fetch(id)
		if err != nil || pg.Data[offType] == nodeLeaf {
			return pg, err
		}
		if key == nil {
			id = t.child(pg, 0)
		} else {
			_, id = t.childFor(pg, key)
		}
		t.pool.Unpin(pg, false)
	}
}

// match is a leaf's slot loop: it returns the first slot in [i, end) of pg
// whose entry is a cols-column tuple that satisfies preds, with that entry,
// or end when there is none. With cols 0 every slot passes, unread. It finds
// each cell through the slot array (entrySpan) and decides each pred on its
// column's 8 bytes on the page (record.Pred.Holds), both inlined, so a
// rejected row costs no call. An entry of any length but 8·cols stops it
// with record.ErrMalformed, as record.Match would.
func match(pg *storage.Page, i, end, cols int, preds []record.Pred) (int, []byte, error) {
	if cols == 0 {
		return min(i, end), nil, nil
	}
next:
	for ; i < end; i++ {
		off, n := entrySpan(pg, i)
		if n != 8*cols {
			return i, nil, record.ErrMalformed
		}
		val := pg.Data[off : off+n]
		for _, p := range preds {
			if !p.Holds(int64(binary.LittleEndian.Uint64(val[8*p.Col:]))) {
				continue next
			}
		}
		return i, val, nil
	}
	return end, nil, nil
}

// endWalk is how many slots loadLeaf steps over from its start, looking
// for hi's place, before it binary-searches the rest of the leaf: a probe
// usually returns a row or a few.
const endWalk = 8

// loadLeaf collects the slots of pinned leaf pg to return — from start, up
// to hi (a leaf holding a key past hi is the scan's last), that pass the
// filter — and copies them: the slot array, then the cells at their
// offsets. A cell copied on its own costs about what 16–20 cells of one
// copy of the whole cell area do (17 ns against 90 ns for a leaf of 100
// cells of 56-byte tuples, in cache, on a 2-vCPU Xeon), so a sixteenth of
// the slots or more get that copy. A malformed tuple makes this leaf the
// last, its slots before it returned.
func (it *Iterator) loadLeaf(pg *storage.Page, start int) {
	if it.leaf == nil {
		it.leaf = new(storage.Page)
	}
	t, n, end := it.tree, nKeys(pg), nKeys(pg)
	it.pos, it.leafPg = 0, pg.ID()
	it.nextPg = storage.PageID(pg.U32(offNext))
	if it.hi != nil {
		e := t.bound(pg, start, it.hi, it.past, endWalk)
		// A whole key's place is in this leaf: the separator after it sorts
		// past the key, and so does every key of the leaves after it.
		if e < n || it.past && len(it.hi) == len(t.sep)*8 {
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
		at := pg.U16(slotOff(int(i)))
		e, n := entrySpan(pg, int(i))
		copy(it.leaf.Data[at:e+n], pg.Data[at:e+n])
	}
}

// Fold runs fn on every entry, in key order, that is a cols-column tuple
// satisfying preds (cols > 0): each leaf's slot loop (match) checks the
// entries on the pinned page and fn reads the passing tuple there, so
// nothing is copied. It fetches the pages Scan(nil, nil) does. fn must not
// keep the tuple. An entry of the wrong length ends it with the error, after
// fn has seen the tuples before it.
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
			it.val = entryAt(it.leaf, int(it.slots[it.pos]))
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

// Key returns the current entry's key (valid until the next Key, Next or
// Reset).
func (it *Iterator) Key() []byte {
	it.key = it.tree.KeyOf(it.key[:0], it.val)
	return it.key
}

// Value returns the current entry (valid until the next Next or Reset).
func (it *Iterator) Value() []byte { return it.val }

// Err reports any I/O error that terminated the scan.
func (it *Iterator) Err() error { return it.lastErr }

// sameKey reports whether entries a and b hold the same key.
func (t *BTree) sameKey(a, b []byte) bool {
	for _, off := range t.key {
		if !bytes.Equal(a[off:off+8], b[off:off+8]) {
			return false
		}
	}
	return true
}

// Overwrite replaces the current entry with entry, of the same key and
// length, on the page the iterator's leaf copy came from: the bytes Put
// writes for an existing key, without Put's descent. The slot it was read
// from must still hold its key and an entry of that length; a leaf that
// changed since the copy is an error, and nothing is written.
func (it *Iterator) Overwrite(entry []byte) error {
	t := it.tree
	if len(entry) != len(it.val) || !t.sameKey(entry, it.val) {
		return fmt.Errorf("btree: an overwrite of key %x changes the key or the entry's length", it.Key())
	}
	pg, err := t.pool.Fetch(it.leafPg)
	if err != nil {
		return err
	}
	if it.pos > 0 && pg.Data[offType] == nodeLeaf {
		if i := int(it.slots[it.pos-1]); i < nKeys(pg) {
			if old := entryAt(pg, i); len(old) == len(entry) && t.sameKey(old, entry) {
				copy(old, entry)
				t.pool.Unpin(pg, true)
				return nil
			}
		}
	}
	t.pool.Unpin(pg, false)
	return fmt.Errorf("btree: overwrite of key %x: page %d no longer holds it where the scan read it", it.Key(), it.leafPg)
}

// InsertAtProbe inserts the entry head followed by tail into the leaf the
// last ResetPrefix started at, when its key is that prefix, no split, Pack or Reset of the tree
// has happened since — so the leaf is the one Insert would descend to — and
// the leaf has room for the cell as it stands. It then writes the bytes
// Insert writes and reports true; otherwise it writes nothing and reports
// false, and the caller takes Insert, which compacts or splits. An existing
// key is ErrDuplicateKey.
func (it *Iterator) InsertAtProbe(head, tail []byte) (bool, error) {
	t := it.tree
	entry, err := t.entry(head, tail)
	if it.probePg == storage.InvalidPageID || len(it.probe) != len(t.sep)*8 || it.splits != t.splits ||
		err != nil || cmp(it.probe, entry, t.key) != 0 {
		return false, nil
	}
	size := leafCellSize(entry)
	pg, err := t.pool.Fetch(it.probePg)
	if err != nil {
		return false, err
	}
	i, exact := t.search(pg, it.probe)
	if exact || size+2 > freeSpace(pg) {
		t.pool.Unpin(pg, false)
		if exact {
			return false, ErrDuplicateKey
		}
		return false, nil
	}
	cell := reserveCellAt(pg, i, size)
	copy(cell[binary.PutUvarint(cell, uint64(len(entry))):], entry)
	t.pool.Unpin(pg, true)
	t.n++
	return true, nil
}

// Check verifies the tree's invariants: every entry holds its key, keys
// ascend in every node, every key of a subtree lies within the separators
// around it, the leaf chain links the leaves in key order, and Len counts
// the entries. Test helper.
func (t *BTree) Check() error {
	var prevLeaf storage.PageID = storage.InvalidPageID
	count := 0
	var walk func(id storage.PageID, lo, hi []byte) error
	walk = func(id storage.PageID, lo, hi []byte) error {
		pg, err := t.pool.Fetch(id)
		if err != nil {
			return err
		}
		n, typ, next := nKeys(pg), pg.Data[offType], storage.PageID(pg.U32(offNext))
		keys := make([][]byte, n)
		children := []storage.PageID{t.child(pg, 0)}
		for i := range keys {
			if typ == nodeLeaf {
				if e := entryAt(pg, i); len(e) >= t.width {
					keys[i] = t.KeyOf(nil, e)
				}
			} else {
				keys[i] = slices.Clone(t.sepAt(pg, i))
				children = append(children, t.child(pg, i+1))
			}
		}
		t.pool.Unpin(pg, false)
		for i, k := range keys {
			switch {
			case k == nil:
				return fmt.Errorf("btree: page %d slot %d: an entry shorter than its key", id, i)
			case i > 0 && cmp(keys[i-1], k, t.sep) >= 0, lo != nil && cmp(lo, k, t.sep) > 0, hi != nil && cmp(hi, k, t.sep) <= 0:
				return fmt.Errorf("btree: page %d slot %d: key %x out of order", id, i, k)
			}
		}
		if typ == nodeLeaf {
			if prevLeaf != storage.InvalidPageID {
				if err := t.linksTo(prevLeaf, id); err != nil {
					return err
				}
			}
			prevLeaf, count = id, count+n
			if hi == nil && next != storage.InvalidPageID {
				return fmt.Errorf("btree: the last leaf %d links to %d", id, next)
			}
			return nil
		}
		for j, c := range children {
			clo, chi := lo, hi
			if j > 0 {
				clo = keys[j-1]
			}
			if j < n {
				chi = keys[j]
			}
			if err := walk(c, clo, chi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, nil, nil); err != nil {
		return err
	}
	if count != t.n {
		return fmt.Errorf("btree: count mismatch scan=%d len=%d", count, t.n)
	}
	return nil
}

// linksTo reports an error unless leaf id's next pointer is next.
func (t *BTree) linksTo(id, next storage.PageID) error {
	pg, err := t.pool.Fetch(id)
	if err != nil {
		return err
	}
	got := storage.PageID(pg.U32(offNext))
	t.pool.Unpin(pg, false)
	if got != next {
		return fmt.Errorf("btree: leaf %d links to %d, not to the next leaf %d", id, got, next)
	}
	return nil
}

// LevelFills returns, per level from the root down, each node's live bytes
// (header, slots and cells) over the page size, left to right.
func (t *BTree) LevelFills() ([][]float64, error) {
	var levels [][]float64
	for ids := []storage.PageID{t.root}; len(ids) > 0; {
		var fills []float64
		var next []storage.PageID
		for _, id := range ids {
			pg, err := t.pool.Fetch(id)
			if err != nil {
				return nil, err
			}
			used := offSlots
			for i := 0; i < nKeys(pg); i++ {
				used += 2 + len(t.cellAt(pg, i))
			}
			fills = append(fills, float64(used)/storage.PageSize)
			if pg.Data[offType] == nodeInternal {
				for j := 0; j <= nKeys(pg); j++ {
					next = append(next, t.child(pg, j))
				}
			}
			t.pool.Unpin(pg, false)
		}
		levels, ids = append(levels, fills), next
	}
	return levels, nil
}
