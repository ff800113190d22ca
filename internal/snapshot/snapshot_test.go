package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testRows(n int) [][]int64 {
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{int64(i), int64(i * 2), int64(-i)}
	}
	return rows
}

func writeSnapshot(t *testing.T, store ChunkStore, version uint64, rows [][]int64) *Manifest {
	t.Helper()
	w := NewWriter(store, version, 1700000000000)
	m := w.Manifest()
	m.Nodes = 10
	m.Edges = int64(len(rows))
	m.WMin = 1
	m.Strategy = "clustered"
	if err := w.AddTable("TEdges", 3, rows); err != nil {
		t.Fatalf("AddTable: %v", err)
	}
	if err := w.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	return m
}

// TestRoundtrip: write a snapshot, read it back through Latest+ReadTable,
// rows and metadata survive intact.
func TestRoundtrip(t *testing.T) {
	store, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rows := testRows(100)
	writeSnapshot(t, store, 5, rows)

	m, err := Latest(store)
	if err != nil {
		t.Fatalf("Latest: %v", err)
	}
	if m.Version != 5 || m.Edges != 100 || m.Nodes != 10 {
		t.Fatalf("manifest %+v", m)
	}
	tm := m.Table("TEdges")
	if tm == nil {
		t.Fatal("TEdges missing from manifest")
	}
	got, err := ReadTable(store, tm)
	if err != nil {
		t.Fatalf("ReadTable: %v", err)
	}
	if len(got) != len(rows) {
		t.Fatalf("rows %d, want %d", len(got), len(rows))
	}
	for i := range rows {
		for j := range rows[i] {
			if got[i][j] != rows[i][j] {
				t.Fatalf("row %d col %d: %d != %d", i, j, got[i][j], rows[i][j])
			}
		}
	}
}

// TestEmptyTable: a zero-row table still roundtrips (one empty chunk).
func TestEmptyTable(t *testing.T) {
	store, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writeSnapshot(t, store, 1, nil)
	m, err := Latest(store)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadTable(store, m.Table("TEdges"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d rows", len(got))
	}
}

// TestMultiChunk: a table larger than chunkRows splits and reassembles.
func TestMultiChunk(t *testing.T) {
	store, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rows := testRows(chunkRows + 37)
	writeSnapshot(t, store, 2, rows)
	m, err := Latest(store)
	if err != nil {
		t.Fatal(err)
	}
	tm := m.Table("TEdges")
	if len(tm.Chunks) != 2 {
		t.Fatalf("chunks %d, want 2", len(tm.Chunks))
	}
	got, err := ReadTable(store, tm)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) || got[chunkRows][0] != int64(chunkRows) {
		t.Fatalf("reassembly wrong: %d rows", len(got))
	}
}

// TestLatestPicksHighest: Latest returns the highest complete version and
// ignores a higher manifest-less (in-flight/failed) directory.
func TestLatestPicksHighest(t *testing.T) {
	store, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writeSnapshot(t, store, 3, testRows(5))
	writeSnapshot(t, store, 12, testRows(8))

	// Partial v20: chunks but no manifest — must be invisible.
	w := NewWriter(store, 20, 0)
	if err := w.AddTable("TEdges", 3, testRows(4)); err != nil {
		t.Fatal(err)
	}

	m, err := Latest(store)
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != 12 {
		t.Fatalf("Latest picked v%d, want v12", m.Version)
	}
}

// TestLatestEmpty: an empty store yields ErrNoManifest.
func TestLatestEmpty(t *testing.T) {
	store, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Latest(store); !errors.Is(err, ErrNoManifest) {
		t.Fatalf("err %v, want ErrNoManifest", err)
	}
}

// TestLatestRefusesOldFormats: a newest snapshot whose manifest says format
// 5 (a TInSegs dump), 4 (TEdges rows of parallel edges), 3 (TInSegs with a
// pid column), 2 (TInSegs pids the successor of fid) or 1 (no TNodes) is
// refused with ErrFormat, not hydrated; the same manifest at format 6 is
// read back.
func TestLatestRefusesOldFormats(t *testing.T) {
	store, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writeSnapshot(t, store, 7, testRows(3))
	name := versionDir(7) + "/manifest.json"
	data, err := store.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	current := fmt.Sprintf(`"format": %d,`, FormatVersion)
	if !bytes.Contains(data, []byte(current)) {
		t.Fatalf("manifest %s does not spell %s", data, current)
	}
	for _, format := range []int{5, 4, 3, 2, 1} {
		old := bytes.Replace(data, []byte(current), []byte(fmt.Sprintf(`"format": %d,`, format)), 1)
		if err := store.Put(name, old); err != nil {
			t.Fatal(err)
		}
		if m, err := Latest(store); !errors.Is(err, ErrFormat) {
			t.Fatalf("format %d: Latest = %+v, %v; want %v", format, m, err, ErrFormat)
		}
	}
	if err := store.Put(name, data); err != nil {
		t.Fatal(err)
	}
	if m, err := Latest(store); err != nil || m.Version != 7 {
		t.Fatalf("format %d: Latest = %+v, %v; want version 7", FormatVersion, m, err)
	}
}

// FuzzManifest: decodeManifest never panics on any bytes, and accepts only
// a manifest at FormatVersion. The seeds under testdata/fuzz/FuzzManifest
// (a written manifest at formats 6, 5, 4, 3, 2 and 1, and malformed JSON)
// run with go test; those below format 6 are refused.
func FuzzManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			return
		}
		if m.Format != FormatVersion {
			t.Fatalf("decodeManifest(%q) accepted format %d", data, m.Format)
		}
	})
}

// TestChunkCorruption: a flipped byte in a stored chunk fails ReadTable's
// CRC check instead of yielding bad rows.
func TestChunkCorruption(t *testing.T) {
	root := t.TempDir()
	store, err := NewDiskStore(root)
	if err != nil {
		t.Fatal(err)
	}
	writeSnapshot(t, store, 1, testRows(10))
	m, err := Latest(store)
	if err != nil {
		t.Fatal(err)
	}
	tm := m.Table("TEdges")
	p := filepath.Join(root, filepath.FromSlash(tm.Chunks[0].Name))
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTable(store, tm); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corrupted chunk read: err=%v", err)
	}
}

// TestGC: keeps the newest `keep` complete versions, removes older ones
// and stale partials, and never touches a partial at or above the latest
// complete version (it could be an in-flight snapshot).
func TestGC(t *testing.T) {
	store, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint64{1, 2, 3, 4} {
		writeSnapshot(t, store, v, testRows(3))
	}
	// Stale partial below latest complete (crashed attempt): removable.
	wCrash := NewWriter(store, 0, 0)
	if err := wCrash.AddTable("TEdges", 3, testRows(2)); err != nil {
		t.Fatal(err)
	}
	// In-flight partial above latest complete: must survive.
	wLive := NewWriter(store, 9, 0)
	if err := wLive.AddTable("TEdges", 3, testRows(2)); err != nil {
		t.Fatal(err)
	}

	removed, err := GC(store, 2)
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	// Expect gone: complete v1, v2 and partial v0. Kept: v3, v4, partial v9.
	if removed != 3 {
		t.Fatalf("removed %d, want 3", removed)
	}
	vis, err := Versions(store)
	if err != nil {
		t.Fatal(err)
	}
	var kept []uint64
	for _, vi := range vis {
		kept = append(kept, vi.Version)
	}
	want := []uint64{3, 4, 9}
	if len(kept) != len(want) {
		t.Fatalf("kept %v, want %v", kept, want)
	}
	for i := range want {
		if kept[i] != want[i] {
			t.Fatalf("kept %v, want %v", kept, want)
		}
	}
	if m, err := Latest(store); err != nil || m.Version != 4 {
		t.Fatalf("Latest after GC: %+v, %v", m, err)
	}
}

// TestGCKeepsAllWhenFew: GC with keep larger than the population removes
// nothing.
func TestGCKeepsAllWhenFew(t *testing.T) {
	store, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writeSnapshot(t, store, 1, testRows(3))
	removed, err := GC(store, 2)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 {
		t.Fatalf("removed %d, want 0", removed)
	}
}

// TestDiskStoreAtomicity: temp files from an interrupted Put are invisible
// to List and Get.
func TestDiskStoreAtomicity(t *testing.T) {
	root := t.TempDir()
	store, err := NewDiskStore(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put("v0000000000000001/a.chunk", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-Put: a leftover temp file in the version dir.
	tmp := filepath.Join(root, "v0000000000000001", ".put-leftover")
	if err := os.WriteFile(tmp, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	names, err := store.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "v0000000000000001/a.chunk" {
		t.Fatalf("List sees temp files: %v", names)
	}
	if _, err := store.Get("missing"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Get missing: %v", err)
	}
	if err := store.Delete("missing"); err != nil {
		t.Fatalf("Delete missing: %v", err)
	}
	if err := store.Put("../escape", nil); err == nil {
		t.Fatal("path escape accepted")
	}
}

// TestChunkEncoding: decodeChunk rejects malformed data.
func TestChunkEncoding(t *testing.T) {
	data := encodeChunk(2, [][]int64{{1, -2}, {3, 4}})
	cols, rows, err := decodeChunk(data)
	if err != nil || cols != 2 || len(rows) != 2 || rows[0][1] != -2 {
		t.Fatalf("roundtrip: cols=%d rows=%v err=%v", cols, rows, err)
	}
	if _, _, err := decodeChunk(data[:len(data)-1]); err == nil {
		t.Fatal("truncated chunk accepted")
	}
	if _, _, err := decodeChunk([]byte{1, 2, 3}); err == nil {
		t.Fatal("short header accepted")
	}
}

// hostileChunks are chunks whose header shape, multiplied out in 64-bit
// arithmetic, matches the bytes present although it describes billions of
// rows: 8 + 8·2^31·2^31 wraps to 8 bytes, and 8 + 8·2147549185·2147418113
// (8 + 8·(2^62+1)) to 16, one value.
func hostileChunks() [][]byte {
	chunk := func(cols, rows uint32, vals int) []byte {
		b := binary.LittleEndian.AppendUint32(nil, cols)
		return append(binary.LittleEndian.AppendUint32(b, rows), make([]byte, 8*vals)...)
	}
	return [][]byte{chunk(1<<31, 1<<31, 0), chunk(2147549185, 2147418113, 1)}
}

// TestHostileShapes: a chunk whose header does not describe its bytes,
// however the shape's product wraps, and a manifest whose counts are
// negative or past what its chunks hold, are errors of decodeChunk and
// ReadTable, with nothing allocated for the rows they claim.
func TestHostileShapes(t *testing.T) {
	for _, data := range hostileChunks() {
		if cols, rows, err := decodeChunk(data); err == nil {
			t.Errorf("decodeChunk(% x) = %d columns, %d rows; want an error", data[:8], cols, len(rows))
		}
	}
	store, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := writeSnapshot(t, store, 1, testRows(10))
	tables := map[string]TableMeta{}
	for name, edit := range map[string]func(*TableMeta){
		"negative rows":       func(tm *TableMeta) { tm.Rows = -1 },
		"2^40 rows":           func(tm *TableMeta) { tm.Rows = 1 << 40 },
		"negative chunk rows": func(tm *TableMeta) { tm.Chunks[0].Rows = -1 },
		"zero columns":        func(tm *TableMeta) { tm.Cols = 0 },
	} {
		tm := m.Tables[0]
		tm.Chunks = append([]ChunkMeta(nil), tm.Chunks...)
		edit(&tm)
		tables[name] = tm
	}
	for i, data := range hostileChunks() {
		cm := ChunkMeta{Name: versionDir(2) + "/hostile.chunk", Rows: 1 << 31, Bytes: len(data), CRC: crc32.ChecksumIEEE(data)}
		if err := store.Put(cm.Name, data); err != nil {
			t.Fatal(err)
		}
		tables[fmt.Sprint("hostile chunk ", i)] = TableMeta{Name: "TEdges", Cols: 1 << 31, Rows: 1 << 31, Chunks: []ChunkMeta{cm}}
	}
	for name, tm := range tables {
		if rows, err := ReadTable(store, &tm); err == nil {
			t.Errorf("%s: ReadTable = %d rows, want an error", name, len(rows))
		}
	}
}

// FuzzDecodeChunk: on any bytes decodeChunk fails or returns a shape that
// describes exactly the bytes given — encodeChunk gives them back.
func FuzzDecodeChunk(f *testing.F) {
	f.Add(encodeChunk(3, testRows(4)))
	f.Add(encodeChunk(2, nil))
	for _, data := range hostileChunks() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cols, rows, err := decodeChunk(data)
		if err != nil {
			return
		}
		if again := encodeChunk(cols, rows); !bytes.Equal(again, data) {
			t.Fatalf("decodeChunk(% x) = %dx%d, which encodes as % x", data, len(rows), cols, again)
		}
	})
}
