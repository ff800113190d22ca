package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/record"
)

// fuzzValues are the column values the fuzz bytes pick from: the int64
// extremes and their neighbours first, then small integers.
var fuzzValues = []int64{math.MinInt64, -1, 0, 1, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1}

func fuzzValue(b byte) int64 {
	if int(b) < len(fuzzValues) {
		return fuzzValues[b]
	}
	return int64(b) - 128
}

// order is the model's key order, written apart from the tree's: keys x
// and y, each some 8-byte little-endian int64 columns, compare column by
// column, and a key that ends first sorts first.
func order(x, y []byte) int {
	for ; len(x) >= 8 && len(y) >= 8; x, y = x[8:], y[8:] {
		if a, b := int64(binary.LittleEndian.Uint64(x)), int64(binary.LittleEndian.Uint64(y)); a != b {
			if a < b {
				return -1
			}
			return 1
		}
	}
	return len(x) - len(y)
}

// fuzzLayouts are the key columns of the entries (a, b, u) the fuzz target
// stores: a unique composite key, the same with its columns out of entry
// order, and a key made unique by a uniquifier column
// u, as a clustered table on a non-unique key is.
var fuzzLayouts = [][]int{{0, 1}, {1, 0}, {0, 2}}

// fuzzPreds decodes a scan's filter: the column count its entries are read
// as, from the call byte c — 3, 22, 41 or 60, the tuple an entry of each
// payload size is — and one pred, or two when c/80 is odd, from p, two bytes
// each: the column (a, b or u) in its low two bits and Sat in the next
// three, then the value.
func fuzzPreds(c byte, p []byte) (int, []record.Pred) {
	preds := make([]record.Pred, 1+int(c/80)%2)
	for j := range preds {
		preds[j] = record.Pred{Col: int(p[2*j]&3) % 3, Sat: p[2*j] >> 2 & 7, Val: fuzzValue(p[2*j+1])}
	}
	return 3 + 19*int(c/20%4), preds
}

// filtered is what a scan over entries, in key order, yields under preds
// on cols-column tuples (none: every entry): the entries record.Match
// passes, up to the first it refuses, with its error.
func filtered(entries [][]byte, cols int, preds []record.Pred) ([][]byte, error) {
	if len(preds) == 0 {
		return entries, nil
	}
	var pass [][]byte
	for _, e := range entries {
		ok, err := record.Match(e, cols, preds)
		if err != nil {
			return pass, err
		}
		if ok {
			pass = append(pass, e)
		}
	}
	return pass, nil
}

// FuzzBTree decodes its bytes into calls on two trees of entries (a, b, u,
// payload) in one pool — Insert, Put, Delete, Get, range and prefix scans,
// Overwrite and InsertAtProbe through a prefix probe, Pack, Reset — under a
// pool small enough that nodes evict, and checks each call against a sorted
// in-memory model and the tree against Check after it. One Iterator serves
// every scan and probe, whichever tree it is aimed at, so a re-aim that
// skips its descent (the finger) meets splits, Packs, Resets, deletes and
// the other tree in between. The first byte picks the key layout; then
// each call takes four: the call and its tree, a, b and the payload size.
// A scan whose call byte is 20 or more takes four more, its predicates
// (fuzzPreds), and is followed by a Fold of its tree under them; each
// answers what record.Match over the model does (filtered), a malformed
// tuple's error included.
func FuzzBTree(f *testing.F) {
	seed := func(layout byte, calls ...[4]byte) []byte {
		out := []byte{layout}
		for _, c := range calls {
			out = append(out, c[:]...)
		}
		return out
	}
	var extremes, run, churn, wide, ascending, filters [][4]byte
	for a := byte(0); a < 7; a++ {
		for b := byte(0); b < 7; b++ {
			extremes = append(extremes, [4]byte{0, a, b, 3})
		}
	}
	extremes = append(extremes, [4]byte{4, 0, 4, 1}, [4]byte{5, 2, 0, 0}, [4]byte{3, 4, 4, 0}, [4]byte{2, 1, 1, 0})
	for i := byte(0); i < 60; i++ {
		run = append(run, [4]byte{0, 10 + i/4, 10 + 2*(i%4), 2})
	}
	for i := byte(0); i < 60; i++ {
		run = append(run, [4]byte{7, 10 + i/4, 11 + 2*(i%4), 2})
	}
	run = append(run, [4]byte{8, 10, 30, 0}, [4]byte{4, 9, 40, 0})
	for i := byte(0); i < 120; i++ {
		churn = append(churn, [4]byte{i % 9, i * 37, i * 11, i})
	}
	for i := byte(0); i < 40; i++ { // one first column over several leaves
		wide = append(wide, [4]byte{0, 20, 10 + i, 3}, [4]byte{0, 21, 10 + i, 3})
	}
	wide = append(wide, [4]byte{5, 21, 0, 1}, [4]byte{5, 20, 0, 1}, [4]byte{4, 21, 0, 1}, [4]byte{8, 20, 21, 0}, [4]byte{5, 21, 0, 1})
	for a := byte(20); a < 24; a++ { // two one-leaf trees with no split yet
		ascending = append(ascending, [4]byte{0, a, 30, 0}, [4]byte{10, a, 40, 0})
	}
	for a := byte(20); a < 24; a++ {
		ascending = append(ascending, [4]byte{5, a, 0, 1}, [4]byte{15, a, 0, 1})
	}
	for a := byte(10); a < 50; a++ { // then both over several leaves
		ascending = append(ascending, [4]byte{0, a, 3, 3}, [4]byte{10, a, 4, 3}, [4]byte{0, a, 5, 3})
	}
	// Probes and writes through them in key order, each on one tree and
	// then the other.
	for _, op := range [][2]byte{{5, 15}, {15, 5}, {7, 17}, {2, 12}} {
		for a := byte(9); a < 52; a++ {
			ascending = append(ascending, [4]byte{op[0], a, 4, 2}, [4]byte{op[1], a, 3, 1})
		}
		ascending = append(ascending, [4]byte{8, 0, 0, 1}, [4]byte{19, 0, 0, 0})
	}
	// 176-byte entries (a two-byte cell length) over several leaves, read
	// as 22-column tuples under one pred and under two, then the same once
	// 24-byte entries sit among them.
	for i := byte(0); i < 3; i++ {
		for a := byte(10); a < 40; a++ {
			filters = append(filters, [4]byte{0, a, 7 + i, 1})
		}
		for _, c := range []byte{24, 25, 104, 105} {
			filters = append(filters, [4]byte{c, 20, 8, 3 - i}, [4]byte{6 << 2, 25, 1 | 1<<2, 9})
		}
		filters = append(filters, [4]byte{0, 15, 9, 0}, [4]byte{0, 33, 9, 0})
	}
	for layout := byte(0); layout < 3; layout++ {
		f.Add(seed(layout, filters...))
		f.Add(seed(layout, ascending...))
		f.Add(seed(layout, extremes...))
		f.Add(seed(layout, run...))
		f.Add(seed(layout, churn...))
		f.Add(seed(layout, wide...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cols := fuzzLayouts[int(data[0])%len(fuzzLayouts)]
		pool := newPool(t, 5)
		var trees [2]*BTree
		var models [2]map[string][]byte // key -> entry
		for i := range trees {
			var err error
			if trees[i], err = New(pool, cols...); err != nil {
				t.Fatal(err)
			}
			models[i] = map[string][]byte{}
		}
		keyOf := func(entry []byte) []byte {
			var k []byte
			for _, c := range cols {
				k = append(k, entry[8*c:8*c+8]...)
			}
			return k
		}
		var u int64 // the next uniquifier
		entry := func(a, b int64, size byte, fill byte) []byte {
			e := binary.LittleEndian.AppendUint64(nil, uint64(a))
			e = binary.LittleEndian.AppendUint64(e, uint64(b))
			e = binary.LittleEndian.AppendUint64(e, uint64(u))
			return append(e, bytes.Repeat([]byte{fill}, int(size)%4*152)...)
		}
		// key is a's and b's place in key order: (a, b), (b, a) or (a, u).
		key := func(a, b int64, cols int) []byte {
			k := binary.LittleEndian.AppendUint64(nil, uint64(a))
			if cols == 2 {
				k = binary.LittleEndian.AppendUint64(k, uint64(b))
			}
			return k
		}
		var tr *BTree
		var model map[string][]byte
		sorted := func() [][]byte {
			keys := make([][]byte, 0, len(model))
			for k := range model {
				keys = append(keys, []byte(k))
			}
			slices.SortFunc(keys, order)
			return keys
		}
		// within reports whether k lies in [lo, hi): a prefix sorts before the
		// keys it begins.
		within := func(k, lo, hi []byte) bool {
			return (lo == nil || order(lo, k) <= 0) && (hi == nil || order(hi, k) > 0)
		}
		var pcols int           // the column count of the scan's tuples
		var preds []record.Pred // and its filter; none: every entry
		scan := func(it *Iterator, lo, hi []byte, prefix bool) {
			t.Helper()
			var in [][]byte
			for _, k := range sorted() {
				if prefix && bytes.HasPrefix(k, lo) || !prefix && within(k, lo, hi) {
					in = append(in, model[string(k)])
				}
			}
			want, wantErr := filtered(in, pcols, preds)
			var got [][]byte
			for it.Next() {
				got = append(got, slices.Clone(it.Value()))
			}
			if it.Err() != wantErr || !slices.EqualFunc(got, want, bytes.Equal) {
				t.Fatalf("scan of [%x, %x) prefix %v under %d columns %v: %d entries, %v; want %d, %v",
					lo, hi, prefix, pcols, preds, len(got), it.Err(), len(want), wantErr)
			}
			if preds == nil {
				return
			}
			var all [][]byte
			for _, k := range sorted() {
				all = append(all, model[string(k)])
			}
			want, wantErr = filtered(all, pcols, preds)
			got = got[:0]
			err := tr.Fold(pcols, preds, func(tuple []byte) { got = append(got, slices.Clone(tuple)) })
			if err != wantErr || !slices.EqualFunc(got, want, bytes.Equal) {
				t.Fatalf("fold under %d columns %v: %d entries, %v; want %d, %v", pcols, preds, len(got), err, len(want), wantErr)
			}
		}
		var it Iterator
		for calls := data[1:]; len(calls) >= 4; calls = calls[4:] {
			op, a, b, size := calls[0]%10, fuzzValue(calls[1]), fuzzValue(calls[2]), calls[3]
			tr, model = trees[calls[0]/10%2], models[calls[0]/10%2]
			if cols[1] == 2 { // b is payload; the key's second column the uniquifier
				b = int64(calls[2]) % (u + 1)
			}
			full := key(a, b, 2)
			if cols[0] == 1 {
				full = key(b, a, 2)
			}
			pcols, preds = 0, nil
			skip := 0 // the predicate bytes a filtered scan takes
			if (op == 4 || op == 5) && calls[0] >= 20 && len(calls) >= 8 {
				pcols, preds = fuzzPreds(calls[0], calls[4:8])
				skip = 4
			}
			switch op {
			case 0, 1: // Insert, Put
				if cols[1] == 2 && op == 0 {
					u++
				}
				e := entry(a, fuzzValue(calls[2]), size, calls[1])
				if cols[1] == 2 {
					binary.LittleEndian.PutUint64(e[16:], uint64(b))
					if op == 0 {
						binary.LittleEndian.PutUint64(e[16:], uint64(u))
					}
				}
				k := string(keyOf(e))
				var err error
				if op == 0 {
					err = tr.Insert(e, nil)
				} else {
					err = tr.Put(e, nil)
				}
				_, had := model[k]
				switch {
				case op == 0 && had:
					if !errors.Is(err, ErrDuplicateKey) {
						t.Fatalf("insert of a stored key %x: %v", k, err)
					}
				case err != nil:
					t.Fatalf("%d of %x: %v", op, k, err)
				default:
					model[k] = e
				}
			case 2: // Delete
				ok, err := tr.Delete(full)
				if _, had := model[string(full)]; err != nil || ok != had {
					t.Fatalf("delete of %x: %v, %v; stored %v", full, ok, err, had)
				}
				delete(model, string(full))
			case 3: // Get
				got, ok, err := tr.Get(full)
				if want, had := model[string(full)]; err != nil || ok != had || !bytes.Equal(got, want) {
					t.Fatalf("get of %x: %v, %v", full, ok, err)
				}
			case 4: // Scan(lo, hi): each bound a one- or two-column key, or none
				lo, hi := full[:8*int(size%3)], key(fuzzValue(calls[3]), b, 1)
				if size%3 == 0 {
					lo = nil
				}
				if size&4 != 0 {
					hi = nil
				}
				it.Reset(tr, lo, hi, pcols, preds)
				scan(&it, lo, hi, false)
			case 5: // ResetPrefix on none, one or both of the key's columns
				p := full[:8*int(size%3)]
				it.ResetPrefix(tr, p, pcols, preds)
				if size%3 == 0 {
					p = nil
				}
				scan(&it, p, nil, true)
			case 6: // Overwrite what a probe found, same key and length
				it.ResetPrefix(tr, full, 0, nil)
				if !it.Next() {
					break
				}
				e := slices.Clone(it.Value())
				for i := 24; i < len(e); i++ {
					e[i] = calls[3]
				}
				if err := it.Overwrite(e); err != nil {
					t.Fatalf("overwrite of %x: %v", full, err)
				}
				model[string(full)] = e
				if err := it.Overwrite(append(e, 0)); err == nil {
					t.Fatalf("an overwrite of %x with a longer entry succeeded", full)
				}
			case 7: // InsertAtProbe, else Insert
				it.ResetPrefix(tr, full, 0, nil)
				found := it.Next()
				e := entry(a, fuzzValue(calls[2]), size, calls[3])
				if cols[1] == 2 {
					binary.LittleEndian.PutUint64(e[16:], uint64(b))
				}
				done, err := it.InsertAtProbe(e, nil)
				if found {
					if !errors.Is(err, ErrDuplicateKey) || done {
						t.Fatalf("insert at the probe of a stored key %x: %v, %v", full, done, err)
					}
					break
				}
				if err == nil && !done {
					err = tr.Insert(e, nil)
				}
				if err != nil {
					t.Fatalf("insert at the probe of %x: %v", full, err)
				}
				model[string(full)] = e
			case 8: // Pack between two one-column keys, or all of it
				var lo, hi []byte
				if size%2 == 0 {
					lo, hi = key(min(a, b), 0, 1), key(max(a, b), 0, 1)
				}
				if err := tr.Pack(lo, hi); err != nil {
					t.Fatalf("pack of [%x, %x]: %v", lo, hi, err)
				}
			case 9: // Reset: truncate
				if err := tr.Reset(); err != nil {
					t.Fatalf("reset: %v", err)
				}
				clear(model)
			}
			if err := tr.Check(); err != nil {
				t.Fatalf("after call %d (%x): %v", op, calls[:4], err)
			}
			if tr.Len() != len(model) {
				t.Fatalf("after call %d: %d entries, the model %d", op, tr.Len(), len(model))
			}
			calls = calls[skip:]
		}
		pcols, preds = 0, nil
		for i := range trees {
			tr, model = trees[i], models[i]
			it.Reset(tr, nil, nil, 0, nil)
			scan(&it, nil, nil, false)
		}
	})
}
