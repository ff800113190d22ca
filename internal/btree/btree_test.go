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

func newTree(t testing.TB, pages int) *BTree {
	t.Helper()
	pool := newPool(t, pages)
	tr, err := New(pool)
	if err != nil {
		t.Fatalf("new tree: %v", err)
	}
	return tr
}

func k(v int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	return b[:]
}

func TestInsertGet(t *testing.T) {
	tr := newTree(t, 64)
	if err := tr.Insert(k(42), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := tr.Get(k(42))
	if err != nil || !ok || string(v) != "hello" {
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
	if string(v) != "c" {
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
		if err != nil || !ok || string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("get %d: %q %v %v", i, v, ok, err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	// Full scan is sorted and complete.
	it := tr.Scan(nil, nil)
	count := 0
	var prev []byte
	for it.Next() {
		if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
			t.Fatal("scan out of order")
		}
		prev = append(prev[:0], it.Key()...)
		count++
	}
	if it.Err() != nil || count != n {
		t.Fatalf("scan: count=%d err=%v", count, it.Err())
	}
}

// TestAscendingInsertFillsLeaves: ascending inserts — a key-ordered load —
// leave every node but the last of each level at least 90% full, leaves as
// well as, with 200-byte keys, internal nodes; random inserts still split in
// halves and fill leaves on average as full as before the rule did (68.8%).
func TestAscendingInsertFillsLeaves(t *testing.T) {
	const n = 20000
	val := make([]byte, 24) // a three-column tuple, as TEdges stores
	key := func(i, width int) []byte {
		b := make([]byte, width)
		binary.BigEndian.PutUint64(b, uint64(i))
		return b
	}
	load := func(order []int, width int) [][]float64 {
		tr := newTree(t, 256)
		for _, i := range order {
			if err := tr.Insert(key(i, width), val); err != nil {
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

// levelFills walks the tree breadth-first and returns, per level from the
// root down, each node's live bytes (header, slots and cells) over the page
// size, left to right.
func levelFills(t *testing.T, tr *BTree) [][]float64 {
	var levels [][]float64
	for ids := []storage.PageID{tr.root}; len(ids) > 0; {
		var fills []float64
		var next []storage.PageID
		for _, id := range ids {
			pg, err := tr.pool.Fetch(id)
			if err != nil {
				t.Fatal(err)
			}
			used := offSlots
			for i := 0; i < nKeys(pg); i++ {
				used += 2 + len(rawCellView(pg, i))
			}
			fills = append(fills, float64(used)/storage.PageSize)
			if pg.Data[offType] == nodeInternal {
				next = append(next, storage.PageID(pg.U32(offNext)))
				for i := 0; i < nKeys(pg); i++ {
					_, _, child := cellAt(pg, i)
					next = append(next, child)
				}
			}
			tr.pool.Unpin(pg, false)
		}
		levels, ids = append(levels, fills), next
	}
	return levels
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
		got = append(got, int64(binary.BigEndian.Uint64(it.Key())))
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
	tr := newTree(t, 64)
	// Composite-style keys: prefix byte + suffix.
	for p := byte(0); p < 5; p++ {
		for s := byte(0); s < 10; s++ {
			if err := tr.Insert([]byte{p, s}, []byte{p}); err != nil {
				t.Fatal(err)
			}
		}
	}
	it := tr.ScanPrefix([]byte{3})
	n := 0
	for it.Next() {
		if it.Key()[0] != 3 {
			t.Fatalf("wrong prefix: %v", it.Key())
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
	if err != nil || !ok || len(v) != 900 {
		t.Fatalf("large value: %d %v %v", len(v), ok, err)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestEntryTooLarge(t *testing.T) {
	tr := newTree(t, 64)
	huge := make([]byte, MaxEntrySize+1)
	if err := tr.Insert(k(1), huge); err == nil {
		t.Fatal("oversized entry should error")
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
	if len(v) != 500 {
		t.Fatalf("grow failed: %d", len(v))
	}
	if err := tr.Put(k(1), []byte("s")); err != nil {
		t.Fatal(err)
	}
	v, _, _ = tr.Get(k(1))
	if string(v) != "s" {
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
	val := func(seed int64, n int) []byte {
		v := make([]byte, n)
		rand.New(rand.NewSource(seed)).Read(v)
		return v
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
	for i := int64(0); freeSpace(root()) >= 3*(leafCellSize(k(i), val(i, valLen))+2); i++ {
		model[i] = val(i, valLen)
		if err := tr.Insert(k(i), model[i]); err != nil {
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
		model[key] = val(1000+i, valLen)
		if err := tr.Put(k(key), model[key]); err != nil {
			t.Fatal(err)
		}
		if pg := root(); deadSpace(pg) != 0 || len(tr.pages) != 1 || nKeys(pg) != int(n) {
			t.Fatalf("Put %d of key %d: %d dead bytes, %d pages, %d keys of %d",
				i, key, deadSpace(pg), len(tr.pages), nKeys(pg), n)
		}
	}
	check("after 1000 same-size Puts")

	// A shorter value leaves the old cell dead, a longer one does too; both
	// are stored, and Put goes on working on the page they leave.
	for i, size := range []int{valLen - 8, valLen + 8} {
		key := int64(i)
		model[key] = val(int64(size), size)
		if err := tr.Put(k(key), model[key]); err != nil {
			t.Fatal(err)
		}
		if pg := root(); deadSpace(pg) == 0 {
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
		key := k(rng.Int63n(4000))
		rng.Read(val)
		if err := ref.Put(key, val); err != nil {
			t.Fatal(err)
		}
		it.ResetPrefix(direct, key, 0, nil)
		if it.Next() {
			if err := it.Overwrite(val); err != nil {
				t.Fatal(err)
			}
			continue
		}
		done, err := it.InsertAtProbe(key, val)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			probed++
		} else if err := direct.Insert(key, val); err != nil {
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
	// that no longer holds the key, an insert after the tree split.
	it.ResetPrefix(direct, k(0), 0, nil)
	if !it.Next() {
		t.Fatal("key 0 not found")
	}
	if _, err := direct.Delete(k(0)); err != nil {
		t.Fatal(err)
	}
	if err := it.Overwrite(val); err == nil {
		t.Error("an overwrite of a deleted entry succeeded")
	}
	it.ResetPrefix(direct, k(5000), 0, nil)
	for i := int64(5001); len(direct.pages) == len(ref.pages); i++ {
		if err := direct.Insert(k(i), val); err != nil {
			t.Fatal(err)
		}
	}
	if done, err := it.InsertAtProbe(k(5000), val); done || err != nil {
		t.Errorf("an insert at a probe made before a split: %v, %v; want false, nil", done, err)
	}
}

// TestQuickModelEquivalence drives the tree with random operations and
// compares against a map + sort model.
func TestQuickModelEquivalence(t *testing.T) {
	fn := func(ops []uint16, seed int64) bool {
		pool := newPool(t, 64)
		tr, err := New(pool)
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
				if ok != inModel || (ok && string(v) != mv) {
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
		sort.Strings(keys)
		it := tr.Scan(nil, nil)
		i := 0
		for it.Next() {
			if i >= len(keys) || string(it.Key()) != keys[i] || string(it.Value()) != model[keys[i]] {
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
	tr, err := New(pool)
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
		if err != nil || !ok || int64(binary.BigEndian.Uint64(v)) != int64(i*7) {
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

// filledTree holds n entries shaped like a clustered TVisited: a 9-byte key
// and a 56-byte tuple.
func filledTree(t testing.TB, n int) *BTree {
	t.Helper()
	tr := newTree(t, 1024)
	val := make([]byte, 56)
	for i := 0; i < n; i++ {
		if err := tr.Insert(append([]byte{1}, k(int64(i))...), val); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func scanAll(t testing.TB, tr *BTree, want int) {
	it := tr.Scan(nil, nil)
	n := 0
	for it.Next() {
		n += len(it.Key()) / 9
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
		if err := tr.Insert(k(i), encode(i, i%3)); err != nil {
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
		if err := tr.Put(k(i), encode(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	// A value of any length but 8 bytes a column ends the scan with an
	// error, whether or not the preds would reject its columns: one byte
	// short, one over, and the layout that led with a NULL bitmap.
	rejected := encode(300, 1)
	for _, bad := range [][]byte{rejected[:15], append(rejected, 0), append([]byte{0}, rejected...)} {
		if err := tr.Put(k(300), bad); err != nil {
			t.Fatal(err)
		}
		for _, f := range []func() ([]string, error){scan, fold} {
			if got, err := f(); err == nil || len(got) != 100 {
				t.Fatalf("a %d-byte value of 2 columns must end the filtered scan with an error after the 100 entries before it: %d, %v",
					len(bad), len(got), err)
			}
		}
	}
	if err := tr.Put(k(300), encode(300, 0)); err != nil {
		t.Fatal(err)
	}
	for _, f := range []func() ([]string, error){scan, fold} {
		if got, err := f(); err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("filtered scan after repair: %d entries, %v; want %d", len(got), err, len(want))
		}
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
