package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

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

// newTree is a tree keyed on its entries' first column.
func newTree(t testing.TB, pages int) *BTree {
	t.Helper()
	pool := newPool(t, pages)
	tr, err := New(pool, 0)
	if err != nil {
		t.Fatalf("new tree: %v", err)
	}
	return tr
}

// k is the key of v: its 8 little-endian bytes.
func k(v int64) []byte { return binary.LittleEndian.AppendUint64(nil, uint64(v)) }

// e is the entry of key v holding val after it.
func e(v int64, val []byte) []byte { return append(k(v), val...) }

func TestInsertGet(t *testing.T) {
	tr := newTree(t, 64)
	if err := tr.Insert(k(42), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := tr.Get(k(42))
	if err != nil || !ok || string(v[8:]) != "hello" {
		t.Fatalf("get: %q %v %v", v, ok, err)
	}
	_, ok, err = tr.Get(k(7))
	if err != nil || ok {
		t.Fatalf("missing key should not be found: %v %v", ok, err)
	}
}

func TestDuplicateKey(t *testing.T) {
	tr := newTree(t, 64)
	if err := tr.Insert(k(1), []byte("a")); err != nil {
		t.Fatal(err)
	}
	err := tr.Insert(k(1), []byte("b"))
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("expected ErrDuplicateKey, got %v", err)
	}
	// Put overwrites.
	if err := tr.Put(k(1), []byte("c")); err != nil {
		t.Fatal(err)
	}
	v, _, _ := tr.Get(k(1))
	if string(v[8:]) != "c" {
		t.Fatalf("put did not overwrite: %q", v)
	}
	if tr.Len() != 1 {
		t.Fatalf("len should stay 1, got %d", tr.Len())
	}
}

func TestManyKeysSplits(t *testing.T) {
	tr := newTree(t, 256)
	const n = 20000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		if err := tr.Insert(k(int64(i)), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if tr.Len() != n {
		t.Fatalf("len: %d", tr.Len())
	}
	for i := 0; i < n; i += 373 {
		v, ok, err := tr.Get(k(int64(i)))
		if err != nil || !ok || string(v[8:]) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("get %d: %q %v %v", i, v, ok, err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	// Full scan is sorted and complete.
	it := tr.Scan(nil, nil)
	count := 0
	for prev := int64(-1); it.Next(); count++ {
		if key := int64(binary.LittleEndian.Uint64(it.Key())); key <= prev {
			t.Fatal("scan out of order")
		} else {
			prev = key
		}
	}
	if it.Err() != nil || count != n {
		t.Fatalf("scan: count=%d err=%v", count, it.Err())
	}
}

// TestAscendingInsertFillsLeaves: ascending inserts — a key-ordered load —
// leave every node but the last of each level at least 90% full, leaves as
// well as, with 200-byte keys, internal nodes; random inserts, which share a
// full leaf with its left sibling or split it in halves, fill leaves on
// average as full as halving alone did before the rule (68.8%).
func TestAscendingInsertFillsLeaves(t *testing.T) {
	const n = 20000
	val := make([]byte, 24) // a three-column tuple, as TEdges stores
	load := func(order []int, width int) [][]float64 {
		cols := make([]int, width/8) // a key of width bytes: its first column i, the rest 0
		for c := range cols {
			cols[c] = c
		}
		tr, err := New(newPool(t, 256), cols...)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range order {
			if err := tr.Insert(append(k(int64(i)), make([]byte, width-8)...), val); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Check(); err != nil {
			t.Fatal(err)
		}
		return levelFills(t, tr)
	}
	ascending := make([]int, n)
	for i := range ascending {
		ascending[i] = i
	}
	for _, width := range []int{8, 200} {
		levels := load(ascending, width)
		if width == 200 && len(levels) < 3 {
			t.Fatalf("%d levels: no internal node split", len(levels))
		}
		for depth, fills := range levels {
			for i, f := range fills[:len(fills)-1] {
				if f < 0.9 {
					t.Errorf("%d-byte keys, level %d: node %d of %d is %.1f%% full", width, depth, i, len(fills), 100*f)
				}
			}
		}
	}
	levels := load(rand.New(rand.NewSource(1)).Perm(n), 8)
	leaves, sum := levels[len(levels)-1], 0.0
	for _, f := range leaves {
		sum += f
	}
	if mean := sum / float64(len(leaves)); mean < 0.685 {
		t.Errorf("random inserts: leaves %.1f%% full on average, want at least 68.5%%", 100*mean)
	}
}

// levelFills is tr.LevelFills, failing t on an error.
func levelFills(t *testing.T, tr *BTree) [][]float64 {
	levels, err := tr.LevelFills()
	if err != nil {
		t.Fatal(err)
	}
	return levels
}

// TestPackFillsLeaves: inserts that land between the keys of a key-ordered
// load — the SegTable build merging a batch's segments between the original
// edges, one new key per four old or four per one, in order or not — split
// the leaves they meet in halves; Pack over the range a batch touched, batch
// after batch, leaves every leaf but the last at least 90% full and the tree
// sound, under a pool small enough that nodes evict.
func TestPackFillsLeaves(t *testing.T) {
	val := make([]byte, 24) // the rest of a four-column segment tuple
	const n, batch = 40000, 4000
	for _, tc := range []struct {
		old, run int64
		shuffle  bool
	}{{4, 1, false}, {1, 4, false}, {4, 1, true}} {
		tr := newTree(t, 8)
		var fresh []int64
		for i := int64(0); i < n; i++ {
			if i%(tc.old+tc.run) < tc.old {
				if err := tr.Insert(k(i), val); err != nil {
					t.Fatal(err)
				}
			} else {
				fresh = append(fresh, i)
			}
		}
		for lo := int64(0); lo < n; lo += batch {
			var keys []int64
			for _, i := range fresh {
				if i >= lo && i < lo+batch {
					keys = append(keys, i)
				}
			}
			if tc.shuffle {
				rand.New(rand.NewSource(lo)).Shuffle(len(keys), func(a, b int) { keys[a], keys[b] = keys[b], keys[a] })
			}
			for _, i := range keys {
				if err := tr.Insert(k(i), val); err != nil {
					t.Fatal(err)
				}
			}
			if err := tr.Pack(k(lo), k(lo+batch)); err != nil {
				t.Fatal(err)
			}
			if err := tr.Check(); err != nil {
				t.Fatal(err)
			}
		}
		it, want := tr.Scan(nil, nil), int64(0)
		for ; it.Next(); want++ {
			if got := int64(binary.LittleEndian.Uint64(it.Key())); got != want {
				t.Fatalf("%+v: key %d where %d belongs", tc, got, want)
			}
		}
		if it.Err() != nil || want != n || tr.Len() != n {
			t.Fatalf("%+v: scanned %d of %d entries (%d counted): %v", tc, want, n, tr.Len(), it.Err())
		}
		levels := levelFills(t, tr)
		leaves := levels[len(levels)-1]
		for i, f := range leaves[:len(leaves)-1] {
			if f < 0.9 {
				t.Errorf("%+v: leaf %d of %d is %.1f%% full", tc, i, len(leaves), 100*f)
			}
		}
	}
}

func TestRangeScan(t *testing.T) {
	tr := newTree(t, 64)
	for i := 0; i < 100; i++ {
		if err := tr.Insert(k(int64(i*2)), k(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	it := tr.Scan(k(10), k(20)) // [10, 20): keys 10,12,14,16,18
	var got []int64
	for it.Next() {
		got = append(got, int64(binary.LittleEndian.Uint64(it.Key())))
	}
	want := []int64{10, 12, 14, 16, 18}
	if len(got) != len(want) {
		t.Fatalf("range scan: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range scan: %v", got)
		}
	}
	// Unbounded-low scan.
	it = tr.Scan(nil, k(5))
	n := 0
	for it.Next() {
		n++
	}
	if n != 3 { // 0, 2, 4
		t.Fatalf("low-unbounded scan: %d", n)
	}
	// Empty range.
	it = tr.Scan(k(1000), nil)
	if it.Next() {
		t.Fatal("scan beyond max should be empty")
	}
}

func TestScanPrefix(t *testing.T) {
	// Composite keys (p, s), stored as (s, p): the key columns need not be
	// the entry's leading ones, nor in its order.
	tr, err := New(newPool(t, 64), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for p := int64(-2); p < 3; p++ {
		for s := int64(0); s < 10; s++ {
			if err := tr.Insert(k(s), k(p)); err != nil {
				t.Fatal(err)
			}
		}
	}
	it := tr.ScanPrefix(k(1))
	n := 0
	for it.Next() {
		if p, s := int64(binary.LittleEndian.Uint64(it.Key())), int64(binary.LittleEndian.Uint64(it.Key()[8:])); p != 1 || s != int64(n) {
			t.Fatalf("entry %d of prefix 1: key (%d, %d)", n, p, s)
		}
		n++
	}
	if n != 10 {
		t.Fatalf("prefix scan found %d", n)
	}
}

func TestDelete(t *testing.T) {
	tr := newTree(t, 64)
	for i := 0; i < 500; i++ {
		if err := tr.Insert(k(int64(i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i += 2 {
		ok, err := tr.Delete(k(int64(i)))
		if err != nil || !ok {
			t.Fatalf("delete %d: %v %v", i, ok, err)
		}
	}
	ok, err := tr.Delete(k(0))
	if err != nil || ok {
		t.Fatalf("double delete should report false: %v %v", ok, err)
	}
	if tr.Len() != 250 {
		t.Fatalf("len after deletes: %d", tr.Len())
	}
	for i := 0; i < 500; i++ {
		_, found, _ := tr.Get(k(int64(i)))
		if found != (i%2 == 1) {
			t.Fatalf("key %d: found=%v", i, found)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("invariants after delete: %v", err)
	}
}

func TestLargeValues(t *testing.T) {
	tr := newTree(t, 128)
	big := bytes.Repeat([]byte("x"), 900)
	for i := 0; i < 200; i++ {
		if err := tr.Insert(k(int64(i)), big); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	v, ok, err := tr.Get(k(150))
	if err != nil || !ok || len(v) != 8+900 {
		t.Fatalf("large value: %d %v %v", len(v), ok, err)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestEntryTooLarge(t *testing.T) {
	tr := newTree(t, 64)
	huge := make([]byte, MaxEntrySize+1)
	if err := tr.Insert(huge, nil); err == nil {
		t.Fatal("oversized entry should error")
	}
	if err := tr.Insert(k(1)[:7], nil); err == nil {
		t.Fatal("an entry shorter than its key should error")
	}
}

func TestPutGrowsAndShrinksValue(t *testing.T) {
	tr := newTree(t, 64)
	if err := tr.Insert(k(1), []byte("short")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Put(k(1), bytes.Repeat([]byte("L"), 500)); err != nil {
		t.Fatal(err)
	}
	v, _, _ := tr.Get(k(1))
	if len(v) != 8+500 {
		t.Fatalf("grow failed: %d", len(v))
	}
	if err := tr.Put(k(1), []byte("s")); err != nil {
		t.Fatal(err)
	}
	v, _, _ = tr.Get(k(1))
	if string(v[8:]) != "s" {
		t.Fatalf("shrink failed: %q", v)
	}
}

// TestPutSameSizeOverwritesInPlace: a Put whose value has the stored value's
// length — every UPDATE of an all-INT table — copies over it: on a leaf with
// room for barely two more cells, a thousand such Puts leave no dead cell,
// split nothing and keep the tree sound (removing and re-inserting the cell
// would leave one dead cell per Put and compact the page every third one).
// A value of another length does take that path.
func TestPutSameSizeOverwritesInPlace(t *testing.T) {
	tr := newTree(t, 64)
	val := func(key, seed int64, n int) []byte { // an entry of key
		v := make([]byte, n)
		rand.New(rand.NewSource(seed)).Read(v)
		return append(k(key), v[8:]...)
	}
	const valLen = 56 // a TVisited tuple: seven INTs
	// root copies the root page: the frame is not ours after Unpin.
	root := func() *storage.Page {
		pg, err := tr.pool.Fetch(tr.root)
		if err != nil {
			t.Fatal(err)
		}
		cp := &storage.Page{Data: pg.Data}
		tr.pool.Unpin(pg, false)
		return cp
	}
	model := map[int64][]byte{}
	dead := func(pg *storage.Page) int { return tr.room(pg) - freeSpace(pg) }
	for i := int64(0); freeSpace(root()) >= 3*(leafCellSize(val(i, i, valLen))+2); i++ {
		model[i] = val(i, i, valLen)
		if err := tr.Insert(model[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	n := int64(len(model))
	check := func(when string) {
		t.Helper()
		if err := tr.Check(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		for key, want := range model {
			if got, ok, err := tr.Get(k(key)); err != nil || !ok || !bytes.Equal(got, want) {
				t.Fatalf("%s: key %d holds %x (%v, %v), want %x", when, key, got, ok, err, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(19))
	for i := int64(0); i < 1000; i++ {
		key := rng.Int63n(n)
		model[key] = val(key, 1000+i, valLen)
		if err := tr.Put(model[key], nil); err != nil {
			t.Fatal(err)
		}
		if pg := root(); dead(pg) != 0 || len(tr.pages) != 1 || nKeys(pg) != int(n) {
			t.Fatalf("Put %d of key %d: %d dead bytes, %d pages, %d keys of %d",
				i, key, dead(pg), len(tr.pages), nKeys(pg), n)
		}
	}
	check("after 1000 same-size Puts")

	// A shorter value leaves the old cell dead, a longer one does too; both
	// are stored, and Put goes on working on the page they leave.
	for i, size := range []int{valLen - 8, valLen + 8} {
		key := int64(i)
		model[key] = val(key, int64(size), size)
		if err := tr.Put(model[key], nil); err != nil {
			t.Fatal(err)
		}
		if pg := root(); dead(pg) == 0 {
			t.Fatalf("Put of a %d-byte value over %d bytes left no dead cell: not the remove + re-insert path", size, valLen)
		}
		check(fmt.Sprintf("after a %d-byte Put", size))
	}
}

// TestWritesThroughIteratorMatchPutInsert stores one random sequence of
// inserts and same-size overwrites twice: through Put and Insert, and
// through a prefix probe's Overwrite and InsertAtProbe (Insert when it
// reports false). The two files must be byte-identical, page for page.
func TestWritesThroughIteratorMatchPutInsert(t *testing.T) {
	direct, ref := newTree(t, 256), newTree(t, 256)
	rng := rand.New(rand.NewSource(35))
	val := make([]byte, 56)
	var it Iterator
	var probed, fellBack int
	for i := 0; i < 20000; i++ {
		rng.Read(val)
		key := k(rng.Int63n(4000))
		copy(val, key)
		if err := ref.Put(val, nil); err != nil {
			t.Fatal(err)
		}
		it.ResetPrefix(direct, key, 0, nil)
		if it.Next() {
			if err := it.Overwrite(val); err != nil {
				t.Fatal(err)
			}
			continue
		}
		done, err := it.InsertAtProbe(val, nil)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			probed++
		} else if err := direct.Insert(val, nil); err != nil {
			t.Fatal(err)
		} else {
			fellBack++
		}
	}
	if probed == 0 || fellBack == 0 {
		t.Fatalf("%d inserts through the probe, %d through Insert: want both paths", probed, fellBack)
	}
	if err := direct.Check(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(direct.pages, ref.pages) || direct.root != ref.root || direct.n != ref.n {
		t.Fatalf("trees differ: pages %v / %v, root %d / %d, %d / %d entries",
			direct.pages, ref.pages, direct.root, ref.root, direct.n, ref.n)
	}
	for _, id := range ref.pages {
		a, err := direct.pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ref.pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		same := a.Data == b.Data
		direct.pool.Unpin(a, false)
		ref.pool.Unpin(b, false)
		if !same {
			t.Fatalf("page %d differs", id)
		}
	}

	// A write through a stale position is refused: an overwrite of a slot
	// that no longer holds the key, an insert after the tree split. So is
	// an overwrite that changes the key.
	it.ResetPrefix(direct, k(1), 0, nil)
	if !it.Next() {
		t.Fatal("key 1 not found")
	}
	if err := it.Overwrite(e(2, val[8:])); err == nil {
		t.Error("an overwrite changed the key")
	}
	if _, err := direct.Delete(k(1)); err != nil {
		t.Fatal(err)
	}
	if err := it.Overwrite(e(1, val[8:])); err == nil {
		t.Error("an overwrite of a deleted entry succeeded")
	}
	it.ResetPrefix(direct, k(5000), 0, nil)
	for i := int64(5001); len(direct.pages) == len(ref.pages); i++ {
		if err := direct.Insert(k(i), val[8:]); err != nil {
			t.Fatal(err)
		}
	}
	if done, err := it.InsertAtProbe(k(5000), val[8:]); done || err != nil {
		t.Errorf("an insert at a probe made before a split: %v, %v; want false, nil", done, err)
	}
}

// TestQuickModelEquivalence drives the tree with random operations and
// compares against a map + sort model.
func TestQuickModelEquivalence(t *testing.T) {
	fn := func(ops []uint16, seed int64) bool {
		pool := newPool(t, 64)
		tr, err := New(pool, 0)
		if err != nil {
			return false
		}
		model := map[string]string{}
		rng := rand.New(rand.NewSource(seed))
		for _, op := range ops {
			key := k(int64(op % 512))
			switch rng.Intn(3) {
			case 0:
				val := fmt.Sprintf("v%d", rng.Intn(1000))
				_ = tr.Put(key, []byte(val))
				model[string(key)] = val
			case 1:
				ok, _ := tr.Delete(key)
				_, inModel := model[string(key)]
				if ok != inModel {
					return false
				}
				delete(model, string(key))
			case 2:
				v, ok, _ := tr.Get(key)
				mv, inModel := model[string(key)]
				if ok != inModel || (ok && string(v[8:]) != mv) {
					return false
				}
			}
		}
		if tr.Len() != len(model) {
			return false
		}
		// Scan must equal the sorted model.
		var keys []string
		for mk := range model {
			keys = append(keys, mk)
		}
		sort.Slice(keys, func(i, j int) bool {
			return int64(binary.LittleEndian.Uint64([]byte(keys[i]))) < int64(binary.LittleEndian.Uint64([]byte(keys[j])))
		})
		it := tr.Scan(nil, nil)
		i := 0
		for it.Next() {
			if i >= len(keys) || string(it.Key()) != keys[i] || string(it.Value()[8:]) != model[keys[i]] {
				return false
			}
			i++
		}
		return it.Err() == nil && i == len(keys)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := newTree(t, 16)
	if tr.Len() != 0 {
		t.Fatal("empty tree len")
	}
	it := tr.Scan(nil, nil)
	if it.Next() {
		t.Fatal("empty tree scan should yield nothing")
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestSmallPoolEviction(t *testing.T) {
	// A pool much smaller than the tree forces evictions mid-operation.
	pool := newPool(t, 8)
	tr, err := New(pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	for i := 0; i < n; i++ {
		if err := tr.Insert(k(int64(i)), k(int64(i*7))); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i := 0; i < n; i += 97 {
		v, ok, err := tr.Get(k(int64(i)))
		if err != nil || !ok || int64(binary.LittleEndian.Uint64(v[8:])) != int64(i*7) {
			t.Fatalf("get %d after eviction: %v %v", i, ok, err)
		}
	}
	if pool.PinnedPages() != 0 {
		t.Fatalf("pin leak: %d pages pinned", pool.PinnedPages())
	}
	if pool.Stats().Evictions == 0 {
		t.Fatal("expected evictions with an 8-page pool")
	}
}

// filledTree holds n entries shaped like a clustered TVisited: a 56-byte
// tuple keyed on its first column.
func filledTree(t testing.TB, n int) *BTree {
	t.Helper()
	tr := newTree(t, 1024)
	val := make([]byte, 48)
	for i := 0; i < n; i++ {
		if err := tr.Insert(k(int64(i)), val); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func scanAll(t testing.TB, tr *BTree, want int) {
	it := tr.Scan(nil, nil)
	n := 0
	for it.Next() {
		n += len(it.Value()) / 56
	}
	if err := it.Err(); err != nil || n != want {
		t.Fatalf("scan saw %d of %d entries: %v", n, want, err)
	}
}

// TestFilteredScan: a filtered scan and a Fold return, in key order and
// across leaves, exactly the entries whose tuple record.Match accepts —
// NULL-free or not, over-long or not — the first leaf too, and a truncated
// tuple ends either with Match's error. Overwrite through a filtered scan,
// which copied only the passing cells, rewrites the entry it stands on.
// The same holds for 136-byte tuples, whose cells have a two-byte length,
// under two preds, and at a cell whose length byte is wrong on the page.
func TestFilteredScan(t *testing.T) {
	tr := newTree(t, 64)
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
		if err := tr.Insert(encode(i, i%3), nil); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			want = append(want, string(k(i)))
		}
	}
	var it Iterator
	scan := func() ([]string, error) {
		it.Reset(tr, nil, nil, 2, preds)
		var got []string
		for it.Next() {
			got = append(got, string(it.Key()))
		}
		return got, it.Err()
	}
	fold := func() ([]string, error) {
		var got []string
		err := tr.Fold(2, preds, func(tuple []byte) {
			got = append(got, string(k(int64(binary.LittleEndian.Uint64(tuple)))))
		})
		return got, err
	}
	for _, f := range []func() ([]string, error){scan, fold} {
		if got, err := f(); err != nil || len(want) != 200 || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("filtered scan: %d entries, %v; want %d", len(got), err, len(want))
		}
	}
	// A probe's first leaf is filtered too.
	it.ResetPrefix(tr, k(4), 2, preds)
	if it.Next() {
		t.Fatalf("a probe for key 4, whose b is 1, yielded %x", it.Key())
	}
	// Each entry the filtered scan yields is overwritten where it lies: b
	// becomes 2, so the same scan then finds nothing, and the rest is intact.
	for it.Reset(tr, nil, nil, 2, preds); it.Next(); {
		a := int64(binary.LittleEndian.Uint64(it.Value()))
		if err := it.Overwrite(encode(a, 2)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 600; i++ {
		v, _, err := tr.Get(k(i))
		if b := []int64{2, 1, 2}[i%3]; err != nil || string(v) != string(encode(i, b)) {
			t.Fatalf("entry %d after the overwrites: %x, %v; want b = %d", i, v, err, b)
		}
	}
	for i := int64(0); i < 600; i += 3 {
		if err := tr.Put(encode(i, 0), nil); err != nil {
			t.Fatal(err)
		}
	}
	// An entry of any length but 8 bytes a column ends the scan with an
	// error, whether or not the preds would reject its columns: one byte
	// short, one over, and a column over.
	rejected := encode(300, 1)
	for _, bad := range [][]byte{rejected[:15], append(rejected, 0), append(rejected, k(0)...)} {
		if err := tr.Put(bad, nil); err != nil {
			t.Fatal(err)
		}
		for _, f := range []func() ([]string, error){scan, fold} {
			if got, err := f(); err == nil || len(got) != 100 {
				t.Fatalf("a %d-byte value of 2 columns must end the filtered scan with an error after the 100 entries before it: %d, %v",
					len(bad), len(got), err)
			}
		}
	}
	if err := tr.Put(encode(300, 0), nil); err != nil {
		t.Fatal(err)
	}
	for _, f := range []func() ([]string, error){scan, fold} {
		if got, err := f(); err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("filtered scan after repair: %d entries, %v; want %d", len(got), err, len(want))
		}
	}

	// The slot loop's rarer branches: an entry of 128 bytes or more, whose
	// cell length is a two-byte uvarint, more than one pred, and a cell
	// length that is wrong on the page.
	// tuples is a tree of n tuples of cols columns: i, then col(i, c).
	tuples := func(t *testing.T, n, cols int, col func(i int64, c int) int64) (*BTree, [][]byte) {
		tr := newTree(t, 64)
		var entries [][]byte
		for i := int64(0); i < int64(n); i++ {
			tuple := k(i)
			for c := 1; c < cols; c++ {
				tuple = binary.LittleEndian.AppendUint64(tuple, uint64(col(i, c)))
			}
			if err := tr.Insert(tuple, nil); err != nil {
				t.Fatal(err)
			}
			entries = append(entries, tuple)
		}
		return tr, entries
	}
	t.Run("17 columns", func(t *testing.T) {
		tr, entries := tuples(t, 300, 17, func(i int64, c int) int64 { return i * int64(c+1) % 7 })
		eq := record.Pred{Col: 16, Sat: 2, Val: 0}
		above := record.Pred{Col: 3, Sat: 4, Val: 2}
		checkFiltered(t, tr, entries, 17, []record.Pred{eq}, 43)
		checkFiltered(t, tr, entries, 17, []record.Pred{eq, {Col: 0, Sat: 4, Val: 150}}, 21)
		checkFiltered(t, tr, entries, 17, []record.Pred{above, {Col: 16, Sat: 5, Val: 3}}, 128)
		for _, bad := range [][]byte{entries[200][:135], append(slices.Clone(entries[200]), 0), entries[200][:128]} {
			if err := tr.Put(bad, nil); err != nil {
				t.Fatal(err)
			}
			checkFiltered(t, tr, slices.Concat(entries[:200], [][]byte{bad}, entries[201:]), 17, []record.Pred{eq}, -1)
		}
	})
	t.Run("two preds", func(t *testing.T) {
		tr, entries := tuples(t, 600, 2, func(i int64, _ int) int64 { return i % 5 })
		checkFiltered(t, tr, entries, 2, []record.Pred{{Col: 1, Sat: 2, Val: 0}, {Col: 0, Sat: 6, Val: 250}}, 70)
		checkFiltered(t, tr, entries, 2, []record.Pred{{Col: 0, Sat: 1, Val: 40}, {Col: 1, Sat: 3, Val: 1}}, 16)
	})
	t.Run("corrupt cell length", func(t *testing.T) {
		tr, entries := tuples(t, 400, 7, func(i int64, c int) int64 { return i * int64(c) % 4 })
		// The length byte of key 250's cell on its leaf says 48, not 56.
		pg, err := tr.descend(k(250))
		if err != nil {
			t.Fatal(err)
		}
		i, exact := tr.search(pg, k(250))
		if !exact || pg.Data[pg.U16(slotOff(i))] != 56 {
			t.Fatalf("key 250 at slot %d (%v) of page %d", i, exact, pg.ID())
		}
		pg.Data[pg.U16(slotOff(i))] = 48
		tr.pool.Unpin(pg, true)
		entries[250] = entries[250][:48]
		checkFiltered(t, tr, entries, 7, []record.Pred{{Col: 1, Sat: 2, Val: 0}}, -1)
		checkFiltered(t, tr, entries, 7, []record.Pred{{Col: 3, Sat: 5, Val: 0}, {Col: 6, Sat: 2, Val: 2}}, -1)
	})
}

// checkFiltered checks a filtered scan and a Fold of tr, whose entries are
// entries in key order, against record.Match over entries: both yield
// exactly the tuples Match passes, in order, up to the first it refuses, and
// then Match's error. pass is how many tuples pass, or -1 for a scan that
// meets a malformed tuple, so the check is not vacuous.
func checkFiltered(t *testing.T, tr *BTree, entries [][]byte, cols int, preds []record.Pred, pass int) {
	t.Helper()
	var want [][]byte
	var wantErr error
	for _, e := range entries {
		ok, err := record.Match(e, cols, preds)
		if err != nil {
			wantErr = err
			break
		}
		if ok {
			want = append(want, e)
		}
	}
	if wantErr == nil && len(want) != pass || wantErr != nil && pass != -1 {
		t.Fatalf("%v on %d columns: record.Match passes %d, %v; the case expects %d", preds, cols, len(want), wantErr, pass)
	}
	var it Iterator
	var got [][]byte
	for it.Reset(tr, nil, nil, cols, preds); it.Next(); {
		got = append(got, slices.Clone(it.Value()))
	}
	if it.Err() != wantErr || !slices.EqualFunc(got, want, bytes.Equal) {
		t.Fatalf("filtered scan %v on %d columns: %d tuples, %v; want %d, %v", preds, cols, len(got), it.Err(), len(want), wantErr)
	}
	got = got[:0]
	err := tr.Fold(cols, preds, func(tuple []byte) { got = append(got, slices.Clone(tuple)) })
	if err != wantErr || !slices.EqualFunc(got, want, bytes.Equal) {
		t.Fatalf("fold %v on %d columns: %d tuples, %v; want %d, %v", preds, cols, len(got), err, len(want), wantErr)
	}
}

// TestScanAllocsIndependentOfEntryCount: an iterator copies each leaf into
// the one page it owns, so a scan of sixteen times the entries allocates no
// more.
func TestScanAllocsIndependentOfEntryCount(t *testing.T) {
	allocs := func(n int) float64 {
		tr := filledTree(t, n)
		return testing.AllocsPerRun(20, func() { scanAll(t, tr, n) })
	}
	if small, large := allocs(64), allocs(1024); large-small > 8 {
		t.Fatalf("scan allocations grow with the entry count: %.0f at 64, %.0f at 1024", small, large)
	}
}

func BenchmarkScanBTree(b *testing.B) {
	const n = 10000
	tr := filledTree(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanAll(b, tr, n)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
}

// BenchmarkFoldBTree times the slot loop (match) over TVisited's shape: 175
// tuples (nid, d2s, p2s, f, d2t, p2t, b) of 56 bytes keyed on nid, one in
// four of them with f = 0. fold is the statistics probe's pass, a Fold with
// f = 0; iterator is the F-select's, an Iterator with f = 0 AND d2s = ?,
// which five rows pass. ns/row is per stored row, passing or not.
func BenchmarkFoldBTree(b *testing.B) {
	const n = 175
	tr := newTree(b, 64)
	for i := int64(0); i < n; i++ {
		tuple := make([]byte, 0, 56)
		for _, v := range []int64{i, i / 4 % 9, i - 1, i % 4, 1000 - i, i + 1, 0} {
			tuple = binary.LittleEndian.AppendUint64(tuple, uint64(v))
		}
		if err := tr.Insert(tuple, nil); err != nil {
			b.Fatal(err)
		}
	}
	f0 := record.Pred{Col: 3, Sat: 2, Val: 0}
	d2s := record.Pred{Col: 1, Sat: 2, Val: 4}
	b.Run("fold", func(b *testing.B) {
		preds, rows := []record.Pred{f0}, 0
		for i := 0; i < b.N; i++ {
			if err := tr.Fold(7, preds, func([]byte) { rows++ }); err != nil {
				b.Fatal(err)
			}
		}
		if rows != b.N*((n+3)/4) {
			b.Fatalf("%d rows passed f = 0 in %d folds", rows, b.N)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
	})
	b.Run("iterator", func(b *testing.B) {
		var it Iterator
		preds, rows := []record.Pred{f0, d2s}, 0
		for i := 0; i < b.N; i++ {
			for it.Reset(tr, nil, nil, 7, preds); it.Next(); rows++ {
			}
		}
		if it.Err() != nil || rows != b.N*5 {
			b.Fatalf("%d rows passed f = 0 AND d2s = 4 in %d scans: %v", rows, b.N, it.Err())
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
	})
}

// probeTree is the tree a probe test or benchmark re-aims an iterator at,
// with its probe keys in ascending order, every other one a key the tree
// does not hold. Point probes look up TVisited's shape: 56-byte tuples
// keyed on their first column, n of them. Prefix probes look up TOutSegs':
// (fid, tid, cost) entries keyed (fid, tid), three for each of n fids,
// probed by fid.
func probeTree(tb testing.TB, n int, prefix bool) (*BTree, [][]byte) {
	tb.Helper()
	pool := newPool(tb, 4096)
	cols := []int{0}
	if prefix {
		cols = []int{0, 1}
	}
	tr, err := New(pool, cols...)
	if err != nil {
		tb.Fatal(err)
	}
	var keys [][]byte
	for i := int64(0); i < int64(2*n); i++ {
		keys = append(keys, k(i))
		if i%2 == 1 {
			continue
		}
		if !prefix {
			err = tr.Insert(k(i), make([]byte, 48))
		}
		for tid := int64(0); prefix && tid < 3 && err == nil; tid++ {
			err = tr.Insert(append(k(i), k(i+tid)...), k(7))
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	return tr, keys
}

// fetches is the pages pool has fetched, hits and misses.
func fetches(pool *storage.BufferPool) uint64 {
	s := pool.Stats()
	return s.Hits + s.Misses
}

// TestProbeCostsWhatItReads: point and prefix probes re-aimed through one
// Iterator in ascending key order fetch at most 1.1 pages a probe — the
// leaf the last probe read, without a descent, but where they cross to the
// next leaf — and the same probes shuffled return what they should and
// never fetch more than each does through a fresh iterator, which descends.
func TestProbeCostsWhatItReads(t *testing.T) {
	for _, prefix := range []bool{false, true} {
		tr, keys := probeTree(t, 20000, prefix)
		probe := func(it *Iterator, key []byte) uint64 {
			t.Helper()
			before, n := fetches(tr.pool), 0
			for it.ResetPrefix(tr, key, 0, nil); it.Next(); n++ {
				if !bytes.HasPrefix(it.Value(), key) {
					t.Fatalf("a probe for %x yielded %x", key, it.Value())
				}
			}
			want := 0
			if binary.LittleEndian.Uint64(key)%2 == 0 {
				want = map[bool]int{false: 1, true: 3}[prefix]
			}
			if it.Err() != nil || n != want {
				t.Fatalf("a probe for %x: %d entries, %v; want %d", key, n, it.Err(), want)
			}
			return fetches(tr.pool) - before
		}
		var it Iterator
		var total uint64
		for _, key := range keys {
			total += probe(&it, key)
		}
		if per := float64(total) / float64(len(keys)); per > 1.1 {
			t.Errorf("prefix %v: %d ascending probes fetched %.3f pages each, want at most 1.1", prefix, len(keys), per)
		}
		rand.New(rand.NewSource(51)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		for _, key := range keys {
			if got, descent := probe(&it, key), probe(new(Iterator), key); got > descent {
				t.Fatalf("prefix %v: a shuffled probe for %x fetched %d pages, a descent %d", prefix, key, got, descent)
			}
		}
		if prefix {
			continue
		}
		// A whole key of this unique tree has its place in the leaf the
		// probe reaches, so the leaf that follows is never read: a leaf's
		// last key, through the finger the leaf's first key left, fetches
		// that one leaf; a key absent between two leaves fetches what its
		// descent does, no more.
		leaves := 0
		for id := tr.leftmostLeaf(t); id != storage.InvalidPageID; {
			pg, err := tr.pool.Fetch(id)
			if err != nil {
				t.Fatal(err)
			}
			n := nKeys(pg)
			first, last := tr.KeyOf(nil, entryAt(pg, 0)), tr.KeyOf(nil, entryAt(pg, n-1))
			id = storage.PageID(pg.U32(offNext))
			tr.pool.Unpin(pg, false)
			if id == storage.InvalidPageID || n < 2 {
				continue
			}
			leaves++
			var it Iterator
			descent := probe(&it, first)
			if got := probe(&it, last); got != 1 {
				t.Errorf("a probe for %x, the last key of its leaf, through the finger: %d pages, want 1", last, got)
			}
			past := k(int64(binary.LittleEndian.Uint64(last)) + 1)
			if got := probe(&it, past); got != descent {
				t.Errorf("a probe for %x, absent past the last key of its leaf: %d pages, its descent %d", past, got, descent)
			}
		}
		if leaves < 10 {
			t.Fatalf("%d leaves probed at their ends", leaves)
		}
	}
}

// leftmostLeaf returns the id of the first leaf.
func (t *BTree) leftmostLeaf(tb testing.TB) storage.PageID {
	pg, err := t.descend(nil)
	if err != nil {
		tb.Fatal(err)
	}
	defer t.pool.Unpin(pg, false)
	return pg.ID()
}

// BenchmarkProbeBTree re-aims one Iterator at a key an op and reads what
// it yields, as an index scan does for each outer row: point and prefix
// probes (probeTree), in ascending and in shuffled key order. pages/probe
// counts the buffer-pool fetches.
func BenchmarkProbeBTree(b *testing.B) {
	for _, prefix := range []bool{false, true} {
		tr, keys := probeTree(b, 50000, prefix)
		shuffled := slices.Clone(keys)
		rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for _, order := range []struct {
			name string
			keys [][]byte
		}{{"ascending", keys}, {"shuffled", shuffled}} {
			b.Run(fmt.Sprintf("%s/%s", map[bool]string{false: "point", true: "prefix"}[prefix], order.name), func(b *testing.B) {
				var it Iterator
				before := fetches(tr.pool)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for it.ResetPrefix(tr, order.keys[i%len(order.keys)], 0, nil); it.Next(); {
					}
				}
				b.ReportMetric(float64(fetches(tr.pool)-before)/float64(b.N), "pages/probe")
			})
		}
	}
}
