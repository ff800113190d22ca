// Package table layers schemas, index maintenance and uniqueness
// enforcement over the heapfile and btree packages. A table is stored
// either as a heap file (optionally with secondary B+tree indexes) or as a
// clustered B+tree whose leaves hold the tuples themselves — the three
// physical designs compared by the paper's Fig 8(c) experiment
// (NoIndex / Index / CluIndex).
package table

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/btree"
	"repro/internal/heapfile"
	"repro/internal/record"
	"repro/internal/storage"
)

// ErrUniqueViolation is returned when an insert or update would duplicate a
// unique key.
var ErrUniqueViolation = errors.New("table: unique constraint violation")

// Loc addresses one row inside a table: a heap RID for heap tables, or the
// clustered B+tree key for clustered tables.
type Loc struct {
	RID heapfile.RID
	Key []byte // non-nil iff the table is clustered
}

// ridBytes encodes r as one key column: an int64 (page, then slot), 8
// little-endian bytes.
func ridBytes(r heapfile.RID) []byte {
	return binary.LittleEndian.AppendUint64(nil, uint64(r.Page)<<16|uint64(r.Slot))
}

func ridFromBytes(b []byte) heapfile.RID {
	v := binary.LittleEndian.Uint64(b)
	return heapfile.RID{Page: storage.PageID(v >> 16), Slot: uint16(v)}
}

func (l Loc) bytes() []byte {
	if l.Key != nil {
		return l.Key
	}
	return ridBytes(l.RID)
}

// appendKey appends vals to dst as a B+tree key: each an int64, the 8
// little-endian bytes a stored tuple holds. It reports false, having
// appended what came before, at a NULL, which no stored row holds.
func appendKey(dst []byte, vals ...record.Value) ([]byte, bool) {
	for _, v := range vals {
		if v.Null {
			return dst, false
		}
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v.I))
	}
	return dst, true
}

// rowKey appends the values of row's columns cols to dst as a key.
func rowKey(dst []byte, row record.Row, cols []int) []byte {
	for _, c := range cols {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(row[c].I))
	}
	return dst
}

// Index is a B+tree index over a subset of columns: the table's clustered
// index, whose entry is the tuple itself (followed by a uniquifier column
// when the key is not unique), or a secondary index, whose entry is the
// indexed columns followed by what else the row's location needs — the heap
// RID, or the clustered key's columns other than the indexed ones (a
// non-unique key's uniquifier among them) — so lookups fetch rows without
// an extra indirection table, and a column is stored in an entry once. A
// unique secondary index is keyed on the columns, a non-unique one on the
// whole entry, the location included.
//
// Its entries cover a scan whose columns and predicates they all hold
// (Iterator's index-only scans).
type Index struct {
	Name   string
	Cols   []int // ordinals into the table schema
	Unique bool
	tree   *btree.BTree
	// For a secondary index: loc[p] is the entry column that holds column p
	// of a row's location, and tail the location columns the entry holds
	// after the indexed ones, in location order. at[c] is the entry column
	// that holds column c of the row, -1 when no entry column does.
	loc, tail, at []int
}

// locLayout lays out the location columns of a secondary index on cols
// (Index.loc, Index.tail and so Index.at): a heap's RID is stored after the
// indexed columns; a clustered key's column is read from the indexed
// columns when one of them is it, and stored after them otherwise.
func (t *Table) locLayout(cols []int) (loc, tail, at []int) {
	at = make([]int, t.Schema.Len())
	for c := range at {
		at[c] = slices.Index(cols, c)
	}
	if t.clustered == nil {
		return []int{len(cols)}, []int{0}, at
	}
	key := t.clustered.Cols
	if !t.clustered.Unique {
		key = append(slices.Clone(key), t.Schema.Len()) // the uniquifier, after the tuple
	}
	for p, c := range key {
		if j := slices.Index(cols, c); j >= 0 {
			loc = append(loc, j)
		} else {
			loc = append(loc, len(cols)+len(tail))
			tail = append(tail, p)
		}
		if c < len(at) {
			at[c] = loc[p]
		}
	}
	return loc, tail, at
}

// appendTail appends to dst the columns of loc that secondary index ix
// stores after its indexed ones.
func (ix *Index) appendTail(dst []byte, loc Loc) []byte {
	b := loc.bytes()
	for _, p := range ix.tail {
		dst = append(dst, b[8*p:8*p+8]...)
	}
	return dst
}

// appendLoc appends to dst the row location that secondary index ix's
// entry leads to.
func (ix *Index) appendLoc(dst, entry []byte) []byte {
	for _, c := range ix.loc {
		dst = append(dst, entry[8*c:8*c+8]...)
	}
	return dst
}

// Tree exposes the underlying B+tree (diagnostics/tests).
func (ix *Index) Tree() *btree.BTree { return ix.tree }

// covers reports whether secondary index ix's entries hold every column
// need asks for (each one when need is nil) and every column preds read,
// having appended to dst preds with their columns remapped to the entry's.
func (ix *Index) covers(dst []record.Pred, need []bool, preds []record.Pred) ([]record.Pred, bool) {
	for c, at := range ix.at {
		if at < 0 && (need == nil || need[c]) {
			return dst, false
		}
	}
	for _, p := range preds {
		if p.Col = ix.at[p.Col]; p.Col < 0 {
			return dst, false
		}
		dst = append(dst, p)
	}
	return dst, true
}

// rowOf lays the columns entry holds out as a tuple of the table's n
// columns in dst, reusing its memory; a column the entry lacks keeps
// whatever dst held.
func (ix *Index) rowOf(dst, entry []byte, n int) []byte {
	dst = slices.Grow(dst[:0], 8*n)[:8*n]
	for c, at := range ix.at {
		if at >= 0 {
			copy(dst[8*c:8*c+8], entry[8*at:8*at+8])
		}
	}
	return dst
}

// Table is one relational table.
type Table struct {
	Name       string
	Schema     *record.Schema
	pool       *storage.BufferPool
	owner      storage.Owner      // the pool's id for Name, which the clustered tree's or the heap's pages are charged to
	heap       *heapfile.HeapFile // nil iff clustered
	clustered  *Index             // nil iff heap
	Secondary  []*Index
	uniquifier int64 // suffix for non-unique clustered keys
	rows       int
	enc        []byte // Insert's and Update's encoding buffer (writers hold the table exclusively)
}

// Options configures table creation.
type Options struct {
	// ClusterOn lists column ordinals for a clustered index; empty = heap.
	ClusterOn []int
	// ClusterUnique marks the clustered key as unique.
	ClusterUnique bool
	// Temp allocates every page of the table, its indexes' included, in
	// the pool's temp space (a TEMPORARY table).
	Temp bool
}

// New creates an empty table.
func New(pool *storage.BufferPool, name string, schema *record.Schema, opts Options) (*Table, error) {
	t := &Table{Name: name, Schema: schema, pool: pool, owner: pool.Owner(name)}
	if opts.Temp {
		t.owner = t.owner.InTemp()
	}
	if len(opts.ClusterOn) > 0 {
		key := slices.Clone(opts.ClusterOn)
		if !opts.ClusterUnique {
			key = append(key, schema.Len()) // the uniquifier, after the tuple
		}
		tr, err := btree.NewOwned(pool, t.owner, key...)
		if err != nil {
			return nil, err
		}
		t.clustered = &Index{Name: name + "_clu", Cols: slices.Clone(opts.ClusterOn), Unique: opts.ClusterUnique, tree: tr}
	} else {
		h, err := heapfile.NewOwned(pool, t.owner)
		if err != nil {
			return nil, err
		}
		t.heap = h
	}
	return t, nil
}

// Temp reports whether the table's pages are in the pool's temp space.
func (t *Table) Temp() bool { return t.owner.IsTemp() }

// Clustered returns the clustered index, or nil for heap tables.
func (t *Table) Clustered() *Index { return t.clustered }

// WritesThrough reports whether t takes writes through a scan
// (Iterator.Overwrite and Iterator.Insert): it is clustered on a unique key,
// so a row's key is all that locates it. The writes keep its secondary
// indexes as Update and Insert do.
func (t *Table) WritesThrough() bool {
	return t.clustered != nil && t.clustered.Unique
}

// RowCount returns the number of live rows.
func (t *Table) RowCount() int { return t.rows }

// indexKey builds the key of row at loc in secondary index ix: the
// indexed columns, and the location columns stored after them when the
// index is not unique.
func indexKey(ix *Index, row record.Row, loc Loc) []byte {
	k := rowKey(nil, row, ix.Cols)
	if !ix.Unique {
		k = ix.appendTail(k, loc)
	}
	return k
}

// encode encodes row into t.enc.
func (t *Table) encode(row record.Row) ([]byte, error) {
	data, err := record.EncodeTuple(t.enc[:0], t.Schema, row)
	if err == nil {
		t.enc = data
	}
	return data, err
}

// tupleOf returns the tuple of an entry of the clustered tree: the entry,
// less the uniquifier when the key is not unique. An entry of the wrong
// length is returned whole, for the decoder to refuse.
func (t *Table) tupleOf(entry []byte) []byte {
	if n := 8 * t.Schema.Len(); !t.clustered.Unique && len(entry) == n+8 {
		return entry[:n]
	}
	return entry
}

// width is the column count of an entry of the clustered tree: the tuple's,
// and the uniquifier when the key is not unique.
func (t *Table) width() int {
	if t.clustered.Unique {
		return t.Schema.Len()
	}
	return t.Schema.Len() + 1
}

// clusteredTaken is the error of an insert whose unique clustered key a row
// already holds: err itself unless it is btree.ErrDuplicateKey.
func (t *Table) clusteredTaken(err error) error {
	if errors.Is(err, btree.ErrDuplicateKey) {
		return fmt.Errorf("%w: %s clustered key", ErrUniqueViolation, t.Name)
	}
	return err
}

// Insert stores a row, maintaining all indexes.
func (t *Table) Insert(row record.Row) (Loc, error) {
	data, err := t.encode(row)
	if err != nil {
		return Loc{}, err
	}
	var loc Loc
	if t.clustered != nil {
		if !t.clustered.Unique {
			t.uniquifier++
			data = binary.LittleEndian.AppendUint64(data, uint64(t.uniquifier))
			t.enc = data
		}
		if err := t.clustered.tree.Insert(data, nil); err != nil {
			return Loc{}, t.clusteredTaken(err)
		}
		loc = Loc{Key: t.clustered.tree.KeyOf(nil, data)}
	} else {
		// Check unique secondary indexes before touching storage.
		for _, ix := range t.Secondary {
			if !ix.Unique {
				continue
			}
			if _, found, err := ix.tree.Get(rowKey(nil, row, ix.Cols)); err != nil {
				return Loc{}, err
			} else if found {
				return Loc{}, fmt.Errorf("%w: index %s", ErrUniqueViolation, ix.Name)
			}
		}
		rid, err := t.heap.Insert(data)
		if err != nil {
			return Loc{}, err
		}
		loc = Loc{RID: rid}
	}
	if err := t.indexRow(row, loc); err != nil {
		return Loc{}, err
	}
	t.rows++
	return loc, nil
}

// indexRow adds the entries of row, just stored at loc, to the secondary
// indexes; a unique one that holds its key already takes the row out of
// storage again.
func (t *Table) indexRow(row record.Row, loc Loc) error {
	for _, ix := range t.Secondary {
		err := ix.tree.Insert(rowKey(nil, row, ix.Cols), ix.appendTail(nil, loc))
		if ix.Unique && errors.Is(err, btree.ErrDuplicateKey) {
			// Roll back the storage write to keep the table consistent.
			t.removeStorage(loc)
			return fmt.Errorf("%w: index %s", ErrUniqueViolation, ix.Name)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (t *Table) removeStorage(loc Loc) {
	if t.clustered != nil {
		_, _ = t.clustered.tree.Delete(loc.Key)
	} else {
		_ = t.heap.Delete(loc.RID)
	}
}

// Delete removes the row at loc; row must be its current content (needed to
// locate index entries).
func (t *Table) Delete(loc Loc, row record.Row) error {
	for _, ix := range t.Secondary {
		if _, err := ix.tree.Delete(indexKey(ix, row, loc)); err != nil {
			return err
		}
	}
	if t.clustered != nil {
		ok, err := t.clustered.tree.Delete(loc.Key)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("table: delete of missing clustered key in %s", t.Name)
		}
	} else {
		if err := t.heap.Delete(loc.RID); err != nil {
			return err
		}
	}
	t.rows--
	return nil
}

// Update replaces the row at loc with newRow, returning the row's new
// location. Clustered-key changes or heap relocations are handled by
// delete+insert of the affected index entries; a unique key the update moves
// is checked first, so a violation leaves the table as it was.
func (t *Table) Update(loc Loc, oldRow, newRow record.Row) (Loc, error) {
	return t.update(loc, oldRow, newRow, nil)
}

// update is Update; a non-nil overwrite writes the new tuple of a row that
// keeps its clustered key instead of Put.
func (t *Table) update(loc Loc, oldRow, newRow record.Row, overwrite func([]byte) error) (Loc, error) {
	data, err := t.encode(newRow)
	if err != nil {
		return Loc{}, err
	}
	if err := t.movedKeyTaken(t.clustered, oldRow, newRow); err != nil {
		return Loc{}, err
	}
	for _, ix := range t.Secondary {
		if err := t.movedKeyTaken(ix, oldRow, newRow); err != nil {
			return Loc{}, err
		}
	}
	if t.clustered != nil {
		if colsDiffer(t.clustered.Cols, oldRow, newRow) {
			if err := t.Delete(loc, oldRow); err != nil {
				return Loc{}, err
			}
			return t.Insert(newRow)
		}
		if overwrite != nil {
			err = overwrite(data)
		} else if t.clustered.Unique {
			err = t.clustered.tree.Put(data, nil)
		} else { // the row keeps its uniquifier, its key's last column
			err = t.clustered.tree.Put(data, loc.Key[len(loc.Key)-8:])
		}
		if err != nil {
			return Loc{}, err
		}
		if err := t.fixSecondaries(loc, loc, oldRow, newRow); err != nil {
			return Loc{}, err
		}
		return loc, nil
	}
	newRID, err := t.heap.Update(loc.RID, data)
	if err != nil {
		return Loc{}, err
	}
	newLoc := Loc{RID: newRID}
	if err := t.fixSecondaries(loc, newLoc, oldRow, newRow); err != nil {
		return Loc{}, err
	}
	return newLoc, nil
}

func colsDiffer(cols []int, a, b record.Row) bool {
	for _, c := range cols {
		if record.Compare(a[c], b[c]) != 0 {
			return true
		}
	}
	return false
}

// movedKeyTaken reports a unique violation when the update changes the row's
// key in unique index ix (nil: no such index) to one another row holds.
func (t *Table) movedKeyTaken(ix *Index, oldRow, newRow record.Row) error {
	if ix == nil || !ix.Unique || !colsDiffer(ix.Cols, oldRow, newRow) {
		return nil
	}
	_, taken, err := ix.tree.Get(rowKey(nil, newRow, ix.Cols))
	if err == nil && taken {
		err = fmt.Errorf("%w: index %s", ErrUniqueViolation, ix.Name)
	}
	return err
}

func (t *Table) fixSecondaries(oldLoc, newLoc Loc, oldRow, newRow record.Row) error {
	for _, ix := range t.Secondary {
		oldK, newK := indexKey(ix, oldRow, oldLoc), indexKey(ix, newRow, newLoc)
		if string(oldK) == string(newK) && string(oldLoc.bytes()) == string(newLoc.bytes()) {
			continue
		}
		if _, err := ix.tree.Delete(oldK); err != nil {
			return err
		}
		if err := ix.tree.Insert(rowKey(nil, newRow, ix.Cols), ix.appendTail(nil, newLoc)); err != nil {
			if errors.Is(err, btree.ErrDuplicateKey) {
				return fmt.Errorf("%w: index %s", ErrUniqueViolation, ix.Name)
			}
			return err
		}
	}
	return nil
}

// Fetch reads the row at loc.
func (t *Table) Fetch(loc Loc) (record.Row, bool, error) {
	var data []byte
	var ok bool
	var err error
	if t.clustered != nil {
		data, ok, err = t.clustered.tree.Get(loc.Key)
	} else {
		data, ok, err = t.heap.Get(loc.RID)
	}
	if err != nil || !ok {
		return nil, ok, err
	}
	if t.clustered != nil {
		data = t.tupleOf(data)
	}
	row, _, err := record.DecodeTuple(data, t.Schema)
	if err != nil {
		return nil, false, err
	}
	return row, true, nil
}

// CreateIndex adds a secondary index (backfilling existing rows); a failed
// backfill frees the index's pages.
func (t *Table) CreateIndex(name string, cols []int, unique bool) (_ *Index, err error) {
	loc, tail, at := t.locLayout(cols)
	key := make([]int, len(cols)) // a non-unique index is keyed on its whole entry
	if !unique {
		key = make([]int, len(cols)+len(tail))
	}
	for i := range key {
		key[i] = i
	}
	// The index's pages are charged to an owner of its own, so page
	// counters tell its traffic from the table's.
	owner := t.pool.Owner(t.Name + "." + name)
	if t.Temp() {
		owner = owner.InTemp()
	}
	tr, err := btree.NewOwned(t.pool, owner, key...)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			t.pool.Free(tr.Pages()...)
		}
	}()
	ix := &Index{Name: name, Cols: slices.Clone(cols), Unique: unique, tree: tr, loc: loc, tail: tail, at: at}
	it := t.Scan()
	for it.Next() {
		if err := ix.tree.Insert(rowKey(nil, it.Row(), ix.Cols), ix.appendTail(nil, it.Loc())); err != nil {
			if errors.Is(err, btree.ErrDuplicateKey) {
				return nil, fmt.Errorf("%w: backfill of %s", ErrUniqueViolation, name)
			}
			return nil, err
		}
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	t.Secondary = append(t.Secondary, ix)
	return ix, nil
}

// Pages lists every page the table's storage and indexes own.
func (t *Table) Pages() []storage.PageID {
	var ids []storage.PageID
	if t.clustered != nil {
		ids = append(ids, t.clustered.tree.Pages()...)
	} else {
		ids = append(ids, t.heap.Pages()...)
	}
	for _, ix := range t.Secondary {
		ids = append(ids, ix.tree.Pages()...)
	}
	return ids
}

// Truncate discards every row, resetting storage and all indexes in place:
// each structure keeps its first page and returns the rest to the pool's
// free list, so truncate-heavy scratch traffic (the FEM expansion table,
// cleared every round) refills from the pages it gave back instead of
// growing the file, and leaves no dead dirty pages awaiting eviction I/O.
func (t *Table) Truncate() error {
	if t.clustered != nil {
		if err := t.clustered.tree.Reset(); err != nil {
			return err
		}
	} else if err := t.heap.Reset(); err != nil {
		return err
	}
	for _, ix := range t.Secondary {
		if err := ix.tree.Reset(); err != nil {
			return err
		}
	}
	t.rows = 0
	t.uniquifier = 0
	return nil
}

// Pack rewrites the leaves of the clustered tree that hold the rows whose
// leading key column lies in [lo, hi) full, in key order (btree.Pack). A
// heap, whose pages fill in insertion order, has nothing to pack.
func (t *Table) Pack(lo, hi int64) error {
	if t.clustered == nil {
		return nil
	}
	return t.clustered.tree.Pack(binary.LittleEndian.AppendUint64(nil, uint64(lo)), binary.LittleEndian.AppendUint64(nil, uint64(hi)))
}

// PackIndexes rewrites every leaf of each secondary index full, in key
// order (btree.Pack over the whole tree).
func (t *Table) PackIndexes() error {
	for _, ix := range t.Secondary {
		if err := ix.tree.Pack(nil, nil); err != nil {
			return err
		}
	}
	return nil
}

// Fold runs fn on the encoded tuple of every row of t that satisfies preds,
// in storage order, on the page that holds it while the page is pinned:
// the storage's slot loop checks each tuple's length and preds
// (record.Match) and fn reads the columns of a passing one in place, so no
// row is decoded or copied. It fetches the pages a scan of t does. fn must
// not keep the tuple, which on a clustered table whose key is not unique
// goes on with the uniquifier. A malformed tuple ends it with the error a
// scan reports.
func (t *Table) Fold(preds []record.Pred, fn func(tuple []byte)) error {
	if t.clustered != nil {
		return t.clustered.tree.Fold(t.width(), preds, fn)
	}
	return t.heap.Fold(t.Schema.Len(), preds, fn)
}

// Iterator yields the rows of one table: all of them in storage order
// (clustered-key order for clustered tables), or those whose clustered or
// secondary index key starts with given values.
//
// A row failing one of the iterator's preds is skipped on its encoded form,
// before anything is copied or decoded. A secondary-index scan whose index
// holds the columns to decode and the preds' is index-only: the index's
// slot loop checks the preds on the entry and the row is read from it, with
// no fetch of a clustered or heap page (Materialize and FullRow, which read
// every column, fetch one the entry lacks). Row returns a buffer the iterator
// owns: it is overwritten by the next Next, and only the columns asked for
// are decoded into it. A caller that keeps a row past the next Next takes a
// copy with Materialize. Start and Seek re-aim an Iterator in place, keeping its page,
// tuple and row buffers, so an operator that re-opens its scan allocates
// nothing.
//
// On a table that takes writes through a scan (WritesThrough), a clustered
// scan also writes: Overwrite changes the row it stands on and Insert adds
// the row its Seek probed for, each without a descent of its own.
type Iterator struct {
	t     *Table
	ix    *Index // secondary index the rows are reached through; nil = storage order
	need  []bool // column ordinals to decode; nil = all
	preds []record.Pred
	bit   btree.Iterator
	hit   heapfile.Iterator
	tuple []byte        // encoded current row (inside bit's or hit's page, or fetch)
	fetch []byte        // base tuple fetched through ix, or laid out from its entry
	at    []byte        // the location ix's current entry leads to
	probe []byte        // encoded Seek prefix
	null  bool          // the last Seek probed for a NULL: it yields nothing
	cover bool          // ix covers the scan: rows come from its entries
	epred []record.Pred // preds remapped to ix's entry columns
	row   record.Row
	prev  record.Row // Overwrite's decoding of the row it replaces
	err   error
}

// Scan iterates every row, fully decoded.
func (t *Table) Scan() *Iterator {
	it := new(Iterator)
	it.Start(t, nil, nil)
	return it
}

// ScanClusteredPrefix iterates clustered rows whose key starts with the
// encoding of vals.
func (t *Table) ScanClusteredPrefix(vals []record.Value) *Iterator { return t.LookupEq(nil, vals) }

// LookupEq iterates rows where the index columns equal vals. vals may be a
// prefix of the index columns; a nil ix means the clustered index.
func (t *Table) LookupEq(ix *Index, vals []record.Value) *Iterator {
	it := new(Iterator)
	it.Seek(t, ix, vals, nil, nil)
	return it
}

// Start aims the iterator at the rows of t that satisfy preds, decoding need.
func (it *Iterator) Start(t *Table, need []bool, preds []record.Pred) {
	it.reset(t, nil, need, preds)
	if t.clustered != nil {
		it.bit.Reset(t.clustered.tree, nil, nil, t.width(), preds)
	} else {
		it.hit.Reset(t.heap, len(it.row), preds)
	}
}

// Seek aims the iterator at the rows of t whose ix columns (clustered-index
// columns when ix is nil) equal vals and that satisfy preds, decoding need.
// A NULL among vals equals no stored value: the iterator yields nothing.
func (it *Iterator) Seek(t *Table, ix *Index, vals []record.Value, need []bool, preds []record.Pred) {
	it.reset(t, ix, need, preds)
	var ok bool
	it.probe, ok = appendKey(it.probe[:0], vals...)
	switch {
	case !ok:
		it.null = true
	case ix == nil: // the clustered tree's entries are the tuples themselves
		it.bit.ResetPrefix(t.clustered.tree, it.probe, t.width(), preds)
	default:
		if it.epred, it.cover = ix.covers(it.epred[:0], need, preds); it.cover {
			it.bit.ResetPrefix(ix.tree, it.probe, len(ix.Cols)+len(ix.tail), it.epred)
			return
		}
		it.bit.ResetPrefix(ix.tree, it.probe, 0, nil)
	}
}

func (it *Iterator) reset(t *Table, ix *Index, need []bool, preds []record.Pred) {
	it.t, it.ix, it.need, it.preds, it.err, it.null, it.cover = t, ix, need, preds, nil, false, false
	if n := t.Schema.Len(); cap(it.row) < n {
		it.row = make(record.Row, n)
	} else {
		it.row = it.row[:n]
	}
}

// Next advances the iterator to the next row its preds accept. A clustered
// or heap scan hands its preds to the storage iterator, which checks them in
// its slot loop on the pinned page and copies only the tuples that pass, and
// so does an index-only scan, on the entries; any other secondary-index scan
// checks each fetched base tuple here.
func (it *Iterator) Next() bool {
	switch {
	case it.null:
		return false
	case it.cover:
		if !it.bit.Next() {
			it.err = it.bit.Err()
			return false
		}
		it.fetch = it.ix.rowOf(it.fetch, it.bit.Value(), len(it.row))
		it.tuple = it.fetch
	case it.ix != nil:
		for {
			if !it.bit.Next() {
				it.err = it.bit.Err()
				return false
			}
			if it.err = it.fetchRow(); it.err != nil {
				return false
			}
			if len(it.preds) == 0 {
				break
			}
			match, err := record.Match(it.fetch, len(it.row), it.preds)
			if err != nil {
				it.err = err
				return false
			}
			if match {
				break
			}
		}
	case it.t.clustered != nil:
		if !it.bit.Next() {
			it.err = it.bit.Err()
			return false
		}
		it.tuple = it.t.tupleOf(it.bit.Value())
	default:
		if !it.hit.Next() {
			it.err = it.hit.Err()
			return false
		}
		it.tuple = it.hit.Tuple()
	}
	_, it.err = record.DecodeInto(it.row, it.tuple, it.t.Schema, it.need)
	return it.err == nil
}

// fetchRow reads the row the current index entry leads to (its location)
// into it.fetch, the current tuple.
func (it *Iterator) fetchRow() error {
	var ok bool
	var err error
	if loc := it.loc(); it.t.clustered != nil {
		it.fetch, ok, err = it.t.clustered.tree.GetInto(it.fetch, loc)
	} else {
		it.fetch, ok, err = it.t.heap.GetInto(it.fetch, ridFromBytes(loc))
	}
	if err == nil && !ok {
		err = fmt.Errorf("table: index %s points at missing row", it.ix.Name)
	}
	if err == nil && it.t.clustered != nil {
		it.fetch = it.t.tupleOf(it.fetch)
	}
	it.tuple = it.fetch
	return err
}

// whole makes the current tuple hold every column: an index-only scan over
// an index that lacks one fetches the row.
func (it *Iterator) whole() error {
	if it.cover && slices.Contains(it.ix.at, -1) {
		return it.fetchRow()
	}
	return nil
}

// Row returns the current row: valid until the next Next, Start or Seek,
// and holding only the columns the iterator was asked to decode.
func (it *Iterator) Row() record.Row { return it.row }

// loc returns the location the current secondary-index entry leads to,
// valid until the next Next, Start or Seek.
func (it *Iterator) loc() []byte {
	it.at = it.ix.appendLoc(it.at[:0], it.bit.Value())
	return it.at
}

// Loc returns the current row's location, in memory of its own.
func (it *Iterator) Loc() Loc {
	switch {
	case it.t.clustered == nil && it.ix == nil:
		return Loc{RID: it.hit.RID()}
	case it.t.clustered == nil:
		return Loc{RID: ridFromBytes(it.loc())}
	case it.ix == nil:
		return Loc{Key: slices.Clone(it.bit.Key())}
	}
	return Loc{Key: slices.Clone(it.loc())}
}

// Materialize returns the current row's location and a copy of the row with
// every column decoded, both valid for as long as the caller keeps them.
func (it *Iterator) Materialize() (Loc, record.Row, error) {
	if err := it.whole(); err != nil {
		return Loc{}, nil, err
	}
	row, _, err := record.DecodeTuple(it.tuple, it.t.Schema)
	return it.Loc(), row, err
}

// Key returns the clustered key of the row a clustered-order scan stands
// on: Loc's key without the copy, valid until the next Next, Start or Seek.
func (it *Iterator) Key() []byte { return it.bit.Key() }

// FullRow decodes every column of the current row into the buffer Row
// returns, and returns it.
func (it *Iterator) FullRow() (record.Row, error) {
	if err := it.whole(); err != nil {
		return nil, err
	}
	_, err := record.DecodeInto(it.row, it.tuple, it.t.Schema, nil)
	return it.row, err
}

// Overwrite replaces the current row with row, which keeps its clustered
// key, on the page the scan read it from (btree.Iterator.Overwrite): the
// bytes Update writes, without Update's descent, and the secondary entries
// Update changes. Only a clustered-order scan of a table that takes writes
// through a scan may. The scan goes on over its own copy of the leaf, so it
// does not meet the row again.
func (it *Iterator) Overwrite(row record.Row) error {
	t := it.t
	if it.ix != nil || !t.WritesThrough() {
		return fmt.Errorf("table: %s takes no write through this scan", t.Name)
	}
	it.prev = slices.Grow(it.prev[:0], len(row))[:len(row)] // the leaf copy still holds the row
	if _, err := record.DecodeInto(it.prev, it.tuple, t.Schema, nil); err != nil {
		return err
	}
	_, err := t.update(Loc{Key: it.bit.Key()}, it.prev, row, it.bit.Overwrite)
	return err
}

// Insert stores row as Table.Insert does. When the last Seek probed row's
// whole clustered key on a table that takes writes through a scan, the row
// goes into the leaf that Seek descended to, if it has room
// (btree.Iterator.InsertAtProbe), and costs no descent of its own.
func (it *Iterator) Insert(row record.Row) error {
	t := it.t
	if it.ix != nil || it.null || !t.WritesThrough() {
		_, err := t.Insert(row)
		return err
	}
	data, err := t.encode(row)
	if err != nil {
		return err
	}
	done, err := it.bit.InsertAtProbe(data, nil)
	if err != nil {
		return t.clusteredTaken(err)
	}
	if !done {
		_, err = t.Insert(row)
		return err
	}
	if len(t.Secondary) > 0 {
		if err := t.indexRow(row, Loc{Key: t.clustered.tree.KeyOf(nil, data)}); err != nil {
			return err
		}
	}
	t.rows++
	return nil
}

// Err reports any error that terminated iteration.
func (it *Iterator) Err() error { return it.err }
