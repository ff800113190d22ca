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

func ridBytes(r heapfile.RID) []byte {
	var b [6]byte
	binary.LittleEndian.PutUint32(b[:4], uint32(r.Page))
	binary.LittleEndian.PutUint16(b[4:], r.Slot)
	return b[:]
}

func ridFromBytes(b []byte) heapfile.RID {
	return heapfile.RID{
		Page: storage.PageID(binary.LittleEndian.Uint32(b[:4])),
		Slot: binary.LittleEndian.Uint16(b[4:6]),
	}
}

func (l Loc) bytes() []byte {
	if l.Key != nil {
		return l.Key
	}
	return ridBytes(l.RID)
}

// Index is a secondary B+tree index over a subset of columns.
//
// Unique secondary index entry:     key = EncodeKey(cols...)            val = loc
// Non-unique secondary index entry: key = EncodeKey(cols...) ++ loc     val = loc
//
// loc is the heap RID or the clustered key of the indexed table, so lookups
// can fetch rows without an extra indirection table.
type Index struct {
	Name   string
	Cols   []int // ordinals into the table schema
	Unique bool
	tree   *btree.BTree
}

// Tree exposes the underlying B+tree (diagnostics/tests).
func (ix *Index) Tree() *btree.BTree { return ix.tree }

// Table is one relational table.
type Table struct {
	Name       string
	Schema     *record.Schema
	pool       *storage.BufferPool
	heap       *heapfile.HeapFile // nil iff clustered
	clustered  *Index             // nil iff heap
	Secondary  []*Index
	uniquifier int64 // suffix for non-unique clustered keys
	rows       int
	enc        []byte // Update's encoding buffer (writers hold the table exclusively)
}

// Options configures table creation.
type Options struct {
	// ClusterOn lists column ordinals for a clustered index; empty = heap.
	ClusterOn []int
	// ClusterUnique marks the clustered key as unique.
	ClusterUnique bool
}

// New creates an empty table.
func New(pool *storage.BufferPool, name string, schema *record.Schema, opts Options) (*Table, error) {
	t := &Table{Name: name, Schema: schema, pool: pool}
	if len(opts.ClusterOn) > 0 {
		tr, err := btree.New(pool)
		if err != nil {
			return nil, err
		}
		t.clustered = &Index{Name: name + "_clu", Cols: append([]int(nil), opts.ClusterOn...), Unique: opts.ClusterUnique, tree: tr}
	} else {
		h, err := heapfile.New(pool)
		if err != nil {
			return nil, err
		}
		t.heap = h
	}
	return t, nil
}

// Clustered returns the clustered index, or nil for heap tables.
func (t *Table) Clustered() *Index { return t.clustered }

// RowCount returns the number of live rows.
func (t *Table) RowCount() int { return t.rows }

// keyFor builds the clustered tree key for a row (appending a uniquifier
// when the clustered key is non-unique).
func (t *Table) keyFor(row record.Row) []byte {
	vals := make([]record.Value, 0, len(t.clustered.Cols)+1)
	for _, c := range t.clustered.Cols {
		vals = append(vals, row[c])
	}
	if !t.clustered.Unique {
		t.uniquifier++
		vals = append(vals, record.Int(t.uniquifier))
	}
	return record.EncodeKey(nil, vals...)
}

// indexKey builds the secondary-index key for row at loc.
func indexKey(ix *Index, row record.Row, loc Loc) []byte {
	vals := make([]record.Value, 0, len(ix.Cols))
	for _, c := range ix.Cols {
		vals = append(vals, row[c])
	}
	k := record.EncodeKey(nil, vals...)
	if !ix.Unique {
		k = append(k, loc.bytes()...)
	}
	return k
}

// Insert stores a row, maintaining all indexes.
func (t *Table) Insert(row record.Row) (Loc, error) {
	data, err := record.EncodeTuple(nil, t.Schema, row)
	if err != nil {
		return Loc{}, err
	}
	var loc Loc
	if t.clustered != nil {
		key := t.keyFor(row)
		if t.clustered.Unique {
			if err := t.clustered.tree.Insert(key, data); err != nil {
				if errors.Is(err, btree.ErrDuplicateKey) {
					return Loc{}, fmt.Errorf("%w: %s clustered key", ErrUniqueViolation, t.Name)
				}
				return Loc{}, err
			}
		} else {
			if err := t.clustered.tree.Insert(key, data); err != nil {
				return Loc{}, err
			}
		}
		loc = Loc{Key: key}
	} else {
		// Check unique secondary indexes before touching storage.
		for _, ix := range t.Secondary {
			if !ix.Unique {
				continue
			}
			probe := indexKey(ix, row, Loc{})
			if _, found, err := ix.tree.Get(probe); err != nil {
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
	for _, ix := range t.Secondary {
		k := indexKey(ix, row, loc)
		var err error
		if ix.Unique {
			err = ix.tree.Insert(k, loc.bytes())
			if errors.Is(err, btree.ErrDuplicateKey) {
				// Roll back the storage write to keep the table consistent.
				t.removeStorage(loc)
				return Loc{}, fmt.Errorf("%w: index %s", ErrUniqueViolation, ix.Name)
			}
		} else {
			err = ix.tree.Insert(k, loc.bytes())
		}
		if err != nil {
			return Loc{}, err
		}
	}
	t.rows++
	return loc, nil
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
		k := indexKey(ix, row, loc)
		if _, err := ix.tree.Delete(k); err != nil {
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
	data, err := record.EncodeTuple(t.enc[:0], t.Schema, newRow)
	if err != nil {
		return Loc{}, err
	}
	t.enc = data
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
		if err := t.clustered.tree.Put(loc.Key, data); err != nil {
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
	_, taken, err := ix.tree.Get(indexKey(ix, newRow, Loc{}))
	if err == nil && taken {
		err = fmt.Errorf("%w: index %s", ErrUniqueViolation, ix.Name)
	}
	return err
}

func (t *Table) fixSecondaries(oldLoc, newLoc Loc, oldRow, newRow record.Row) error {
	for _, ix := range t.Secondary {
		oldK := indexKey(ix, oldRow, oldLoc)
		newK := indexKey(ix, newRow, newLoc)
		if string(oldK) == string(newK) {
			continue
		}
		if _, err := ix.tree.Delete(oldK); err != nil {
			return err
		}
		if err := ix.tree.Insert(newK, newLoc.bytes()); err != nil {
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
	row, _, err := record.DecodeTuple(data, t.Schema)
	if err != nil {
		return nil, false, err
	}
	return row, true, nil
}

// CreateIndex adds a secondary index (backfilling existing rows).
func (t *Table) CreateIndex(name string, cols []int, unique bool) (*Index, error) {
	tr, err := btree.New(t.pool)
	if err != nil {
		return nil, err
	}
	ix := &Index{Name: name, Cols: append([]int(nil), cols...), Unique: unique, tree: tr}
	it := t.Scan()
	for it.Next() {
		loc := it.Loc()
		if err := ix.tree.Insert(indexKey(ix, it.Row(), loc), loc.bytes()); err != nil {
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

// Truncate discards every row, resetting storage and all indexes in place:
// each structure keeps its first page and discards the rest from the pool
// without write-back, so truncate-heavy scratch traffic (the FEM expansion
// table, cleared every round) neither allocates a page per cycle nor fills
// the pool with dead dirty pages awaiting eviction I/O.
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

// Iterator yields the rows of one table: all of them in storage order
// (clustered-key order for clustered tables), or those whose clustered or
// secondary index key starts with given values.
//
// A row failing one of the iterator's preds is skipped on its encoded form,
// before anything is decoded. Row returns a buffer the iterator owns: it is
// overwritten by the next Next, and only the columns asked for are decoded
// into it. A caller that keeps a row past the next Next takes a copy with
// Materialize. Start and Seek re-aim an Iterator in place, keeping its page,
// tuple and row buffers, so an operator that re-opens its scan allocates
// nothing.
type Iterator struct {
	t     *Table
	ix    *Index // secondary index the rows are reached through; nil = storage order
	need  []bool // column ordinals to decode; nil = all
	preds []record.Pred
	bit   btree.Iterator
	hit   heapfile.Iterator
	tuple []byte // encoded current row (inside bit's or hit's page, or fetch)
	fetch []byte // base tuple fetched through ix
	probe []byte // encoded Seek prefix
	row   record.Row
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
		it.bit.Reset(t.clustered.tree, nil, nil)
	} else {
		it.hit.Reset(t.heap)
	}
}

// Seek aims the iterator at the rows of t whose ix columns (clustered-index
// columns when ix is nil) equal vals and that satisfy preds, decoding need.
func (it *Iterator) Seek(t *Table, ix *Index, vals []record.Value, need []bool, preds []record.Pred) {
	it.reset(t, ix, need, preds)
	it.probe = record.EncodeKey(it.probe[:0], vals...)
	if ix == nil {
		ix = t.clustered
	}
	it.bit.ResetPrefix(ix.tree, it.probe)
}

func (it *Iterator) reset(t *Table, ix *Index, need []bool, preds []record.Pred) {
	it.t, it.ix, it.need, it.preds, it.err = t, ix, need, preds, nil
	if n := t.Schema.Len(); cap(it.row) < n {
		it.row = make(record.Row, n)
	} else {
		it.row = it.row[:n]
	}
}

// Next advances the iterator to the next row its preds accept.
func (it *Iterator) Next() bool {
	for {
		switch {
		case it.ix != nil:
			if !it.bit.Next() {
				it.err = it.bit.Err()
				return false
			}
			// The index entry's value is the base row's location.
			var ok bool
			if it.t.clustered != nil {
				it.fetch, ok, it.err = it.t.clustered.tree.GetInto(it.fetch, it.bit.Value())
			} else {
				it.fetch, ok, it.err = it.t.heap.GetInto(it.fetch, ridFromBytes(it.bit.Value()))
			}
			if it.err == nil && !ok {
				it.err = fmt.Errorf("table: index %s points at missing row", it.ix.Name)
			}
			if it.err != nil {
				return false
			}
			it.tuple = it.fetch
		case it.t.clustered != nil:
			if !it.bit.Next() {
				it.err = it.bit.Err()
				return false
			}
			it.tuple = it.bit.Value()
		default:
			if !it.hit.Next() {
				it.err = it.hit.Err()
				return false
			}
			it.tuple = it.hit.Tuple()
		}
		if len(it.preds) > 0 {
			if ok, err := record.Match(it.tuple, len(it.row), it.preds); err != nil {
				it.err = err
				return false
			} else if !ok {
				continue
			}
		}
		_, it.err = record.DecodeInto(it.row, it.tuple, it.t.Schema, it.need)
		return it.err == nil
	}
}

// Row returns the current row: valid until the next Next, Start or Seek,
// and holding only the columns the iterator was asked to decode.
func (it *Iterator) Row() record.Row { return it.row }

// Loc returns the current row's location, in memory of its own.
func (it *Iterator) Loc() Loc {
	switch {
	case it.t.clustered == nil && it.ix == nil:
		return Loc{RID: it.hit.RID()}
	case it.t.clustered == nil:
		return Loc{RID: ridFromBytes(it.bit.Value())}
	case it.ix == nil:
		return Loc{Key: append([]byte(nil), it.bit.Key()...)}
	}
	return Loc{Key: append([]byte(nil), it.bit.Value()...)}
}

// Materialize returns the current row's location and a copy of the row with
// every column decoded, both valid for as long as the caller keeps them.
func (it *Iterator) Materialize() (Loc, record.Row, error) {
	row, _, err := record.DecodeTuple(it.tuple, it.t.Schema)
	return it.Loc(), row, err
}

// Err reports any error that terminated iteration.
func (it *Iterator) Err() error { return it.err }
