package snapshot

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"
)

// FormatVersion guards against reading manifests written by an
// incompatible layout. Version 2 carried TNodes, the node order a hydration
// numbers its nodes by; a version 1 snapshot has none. Version 3 stores
// TInSegs as a copy of TOutSegs, pid the predecessor of tid; a version 2
// snapshot stores the successor of fid there, which the backward path
// unfolding no longer reads. Version 4 stores TInSegs as (fid, tid, cost),
// without the pid column no reader reads; a version 3 dump has four
// columns where a hydration loads three. Version 5 stores TEdges keyed on
// the pair, one row each; a version 4 dump may hold a pair's parallel
// edges, which a hydration cannot load under that key. Version 6 drops the
// TInSegs dump: the incoming segments are TOutSegs' tid index, which a
// hydration rebuilds as it loads TOutSegs, and no relation of that name is
// declared any more. All five are refused.
const FormatVersion = 6

// chunkRows bounds one chunk's row count: large tables split into multiple
// objects so a later object-store backend uploads bounded parts.
const chunkRows = 1 << 16

// ErrNoManifest is returned by Latest when the store holds no complete
// snapshot.
var ErrNoManifest = errors.New("snapshot: no complete snapshot in store")

// ErrFormat is returned by Latest when the newest snapshot's manifest was
// written in a format other than FormatVersion.
var ErrFormat = errors.New("snapshot: unsupported manifest format")

// ChunkMeta describes one stored chunk of a table.
type ChunkMeta struct {
	Name  string `json:"name"`
	Rows  int    `json:"rows"`
	Bytes int    `json:"bytes"`
	CRC   uint32 `json:"crc"`
}

// TableMeta describes one dumped table: fixed integer columns, rows split
// across chunks in order.
type TableMeta struct {
	Name   string      `json:"name"`
	Cols   int         `json:"cols"`
	Rows   int         `json:"rows"`
	Chunks []ChunkMeta `json:"chunks"`
}

// OracleMeta carries the distance-oracle parameters a hydrating engine
// installs alongside the TLandmark rows, skipping the build. A manifest
// written while landmark placement had a choice also carries a "strategy"
// key, which decoding ignores: the landmarks it lists are what ALT reads.
type OracleMeta struct {
	K         int     `json:"k"`
	Landmarks []int64 `json:"landmarks"`
	Rows      int     `json:"rows"`
}

// LabelsMeta carries the hub-label counts installed alongside the
// TLabelOut/TLabelIn rows.
type LabelsMeta struct {
	Hubs    int `json:"hubs"`
	RowsOut int `json:"rows_out"`
	RowsIn  int `json:"rows_in"`
}

// Manifest is the commit record of one snapshot version. It is written
// last: a version directory without one does not exist as far as readers
// are concerned.
type Manifest struct {
	Format        int    `json:"format"`
	Version       uint64 `json:"version"`
	CreatedUnixMS int64  `json:"created_unix_ms"`

	Nodes int64 `json:"nodes"`
	Edges int64 `json:"edges"`
	WMin  int64 `json:"wmin"`

	// Strategy records the physical-design strategy the snapshot was taken
	// under, for operator info; a hydrating engine applies its own.
	Strategy string `json:"strategy"`

	SegBuilt bool  `json:"seg_built"`
	SegLthd  int64 `json:"seg_lthd,omitempty"`

	Oracle *OracleMeta `json:"oracle,omitempty"`
	Labels *LabelsMeta `json:"labels,omitempty"`

	Tables []TableMeta `json:"tables"`
}

// Table returns the named table's metadata, or nil.
func (m *Manifest) Table(name string) *TableMeta {
	for i := range m.Tables {
		if m.Tables[i].Name == name {
			return &m.Tables[i]
		}
	}
	return nil
}

// versionDir names a snapshot version's directory. Zero-padding keeps
// lexicographic order equal to numeric order, which List relies on.
func versionDir(version uint64) string {
	return fmt.Sprintf("v%016d", version)
}

// parseVersionDir inverts versionDir for a path's first segment.
func parseVersionDir(seg string) (uint64, bool) {
	if len(seg) != 17 || seg[0] != 'v' {
		return 0, false
	}
	var v uint64
	for _, c := range seg[1:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return v, true
}

// Writer accumulates one snapshot version: chunks stream out through
// AddTable, Commit writes the manifest to make the version visible.
type Writer struct {
	store    ChunkStore
	manifest Manifest
	dir      string
	bytes    int64
	done     bool
}

// NewWriter starts a snapshot at the given graph version. CreatedUnixMS is
// stamped by the caller (the engine) so this package stays clock-free.
func NewWriter(store ChunkStore, version uint64, createdUnixMS int64) *Writer {
	return &Writer{
		store: store,
		manifest: Manifest{
			Format:        FormatVersion,
			Version:       version,
			CreatedUnixMS: createdUnixMS,
		},
		dir: versionDir(version),
	}
}

// Manifest exposes the in-progress manifest for the caller to fill in
// scalar metadata (nodes, edges, index validity) before Commit.
func (w *Writer) Manifest() *Manifest { return &w.manifest }

// Bytes returns the chunk bytes written so far.
func (w *Writer) Bytes() int64 { return w.bytes }

// AddTable dumps one table's rows as CRC-stamped chunks and records it in
// the manifest.
func (w *Writer) AddTable(name string, cols int, rows [][]int64) error {
	if w.done {
		return errors.New("snapshot: writer already committed")
	}
	tm := TableMeta{Name: name, Cols: cols, Rows: len(rows)}
	for start := 0; start < len(rows) || (len(rows) == 0 && start == 0); start += chunkRows {
		end := min(start+chunkRows, len(rows))
		part := rows[start:end]
		data := encodeChunk(cols, part)
		cm := ChunkMeta{
			Name:  fmt.Sprintf("%s/%s.%04d.chunk", w.dir, strings.ToLower(name), len(tm.Chunks)),
			Rows:  len(part),
			Bytes: len(data),
			CRC:   crc32.ChecksumIEEE(data),
		}
		if err := w.store.Put(cm.Name, data); err != nil {
			return err
		}
		w.bytes += int64(len(data))
		tm.Chunks = append(tm.Chunks, cm)
		if len(rows) == 0 {
			break
		}
	}
	w.manifest.Tables = append(w.manifest.Tables, tm)
	return nil
}

// Commit writes the manifest — the snapshot's commit point. Until it
// returns nil the version is invisible to Latest and fair game for GC
// once superseded.
func (w *Writer) Commit() error {
	if w.done {
		return errors.New("snapshot: writer already committed")
	}
	data, err := json.MarshalIndent(&w.manifest, "", "  ")
	if err != nil {
		return fmt.Errorf("snapshot: marshal manifest: %w", err)
	}
	if err := w.store.Put(w.dir+"/manifest.json", data); err != nil {
		return err
	}
	w.done = true
	return nil
}

// Latest returns the highest-version complete snapshot's manifest, or
// ErrNoManifest.
func Latest(store ChunkStore) (*Manifest, error) {
	names, err := store.List("v")
	if err != nil {
		return nil, err
	}
	best := ""
	var bestV uint64
	for _, n := range names {
		dir, rest, ok := strings.Cut(n, "/")
		if !ok || rest != "manifest.json" {
			continue
		}
		v, ok := parseVersionDir(dir)
		if !ok {
			continue
		}
		if best == "" || v > bestV {
			best, bestV = n, v
		}
	}
	if best == "" {
		return nil, ErrNoManifest
	}
	data, err := store.Get(best)
	if err != nil {
		return nil, err
	}
	m, err := decodeManifest(data)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %s: %w", best, err)
	}
	return m, nil
}

// decodeManifest parses a stored manifest, refusing any format but
// FormatVersion with ErrFormat.
func decodeManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("parse manifest: %w", err)
	}
	if m.Format != FormatVersion {
		return nil, fmt.Errorf("%w %d, want %d", ErrFormat, m.Format, FormatVersion)
	}
	return &m, nil
}

// ReadTable loads one table's rows from a committed snapshot, verifying
// each chunk's CRC and shape against the manifest. The rows grow as the
// chunks decode: the manifest's counts are compared with what the chunks
// hold, and never size an allocation.
func ReadTable(store ChunkStore, tm *TableMeta) ([][]int64, error) {
	var rows [][]int64
	for _, cm := range tm.Chunks {
		data, err := store.Get(cm.Name)
		if err != nil {
			return nil, err
		}
		if len(data) != cm.Bytes || crc32.ChecksumIEEE(data) != cm.CRC {
			return nil, fmt.Errorf("snapshot: chunk %s corrupt (bytes %d/%d)", cm.Name, len(data), cm.Bytes)
		}
		cols, part, err := decodeChunk(data)
		if err != nil {
			return nil, fmt.Errorf("snapshot: chunk %s: %w", cm.Name, err)
		}
		if cols != tm.Cols || len(part) != cm.Rows {
			return nil, fmt.Errorf("snapshot: chunk %s shape %dx%d, manifest says %dx%d",
				cm.Name, len(part), cols, cm.Rows, tm.Cols)
		}
		rows = append(rows, part...)
	}
	if len(rows) != tm.Rows {
		return nil, fmt.Errorf("snapshot: table %s has %d rows, manifest says %d", tm.Name, len(rows), tm.Rows)
	}
	return rows, nil
}

// encodeChunk renders rows as [cols u32][rows u32] then row-major i64
// little-endian values.
func encodeChunk(cols int, rows [][]int64) []byte {
	data := make([]byte, 0, 8+8*cols*len(rows))
	data = binary.LittleEndian.AppendUint32(data, uint32(cols))
	data = binary.LittleEndian.AppendUint32(data, uint32(len(rows)))
	for _, r := range rows {
		for _, v := range r {
			data = binary.LittleEndian.AppendUint64(data, uint64(v))
		}
	}
	return data
}

// decodeChunk inverts encodeChunk. The header's shape must describe exactly
// the values present, checked by division so that no product of header
// fields can wrap: nothing is allocated for rows the bytes do not hold.
func decodeChunk(data []byte) (int, [][]int64, error) {
	if len(data) < 8 {
		return 0, nil, errors.New("short header")
	}
	cols := int(binary.LittleEndian.Uint32(data))
	n := int(binary.LittleEndian.Uint32(data[4:]))
	vals := (len(data) - 8) / 8
	if cols <= 0 || n < 0 || (len(data)-8)%8 != 0 || vals%cols != 0 || vals/cols != n {
		return 0, nil, fmt.Errorf("bad shape %dx%d for %d bytes", n, cols, len(data))
	}
	rows := make([][]int64, n)
	flat := make([]int64, cols*n)
	off := 8
	for i := range flat {
		flat[i] = int64(binary.LittleEndian.Uint64(data[off:]))
		off += 8
	}
	for i := range rows {
		rows[i] = flat[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return cols, rows, nil
}

// Versions lists every version directory in the store, complete or not,
// ascending, with completeness flags.
func Versions(store ChunkStore) ([]VersionInfo, error) {
	names, err := store.List("v")
	if err != nil {
		return nil, err
	}
	byVer := map[uint64]*VersionInfo{}
	for _, n := range names {
		dir, rest, ok := strings.Cut(n, "/")
		if !ok {
			continue
		}
		v, ok := parseVersionDir(dir)
		if !ok {
			continue
		}
		vi := byVer[v]
		if vi == nil {
			vi = &VersionInfo{Version: v}
			byVer[v] = vi
		}
		vi.Objects = append(vi.Objects, n)
		if rest == "manifest.json" {
			vi.Complete = true
		}
	}
	out := make([]VersionInfo, 0, len(byVer))
	for _, vi := range byVer {
		sort.Strings(vi.Objects)
		out = append(out, *vi)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Version < out[j].Version })
	return out, nil
}

// VersionInfo describes one version directory in the store.
type VersionInfo struct {
	Version  uint64
	Complete bool // manifest.json present
	Objects  []string
}
