package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/labels"
	"repro/internal/oracle"
	"repro/internal/rdb"
	"repro/internal/snapshot"
	"repro/internal/sweep"
	"repro/internal/wal"
)

// The durability subsystem: Options.DataDir arms a write-ahead mutation
// log (internal/wal) and a versioned snapshot store (internal/snapshot)
// under one directory:
//
//	<DataDir>/mutations.wal        append-only, fsynced mutation batches
//	<DataDir>/snapshots/v<NNN>/    chunked table dumps + manifest.json
//
// The contract: every ApplyMutations batch is logged and fsynced before
// its first statement touches TEdges (mutation.go), a committed snapshot
// manifest covers every WAL record at or below its version and resets the
// log, and hydration = newest snapshot + replay of the WAL suffix. The
// engine's mutation path is deterministic SQL over deterministic state,
// so replaying the logged batches in order reproduces the crashed
// engine's exact relational state — the recovery differential test drives
// every algorithm against an in-memory reference to hold that bar.
//
// Index builds are NOT logged: a snapshot captures built indexes
// (SegTable rows, TLandmark, label sets) wholesale, but an index built
// after the last snapshot is lost on crash and must be rebuilt — the
// version-skip replay rule (see hydrateLocked) keeps the graph exact
// either way. See docs/ARCHITECTURE.md §Durability.

const (
	walFileName = "mutations.wal"
	snapDirName = "snapshots"
	// snapKeep is how many complete snapshot versions GC retains: the
	// newest (the hydration source) plus one predecessor as a manual
	// rollback target.
	snapKeep = 2
)

// ErrNoSnapshot is returned by Hydrate/OpenFromSnapshot when the data
// directory holds no complete snapshot: before the first snapshot, and
// after a LoadGraph until the next one, because a load retires the
// previous graph's snapshots. A WAL without a snapshot base is not
// hydratable — its records describe deltas over a state that was never
// captured — so callers fall back to LoadGraph and should snapshot right
// after.
var ErrNoSnapshot = errors.New("core: no snapshot to hydrate from")

// ErrNoDataDir refuses Snapshot, Hydrate and OpenFromSnapshot on an engine
// opened without Options.DataDir.
var ErrNoDataDir = errors.New("core: durability requires Options.DataDir")

// durability is the engine's WAL + snapshot state; nil unless
// Options.DataDir is set.
type durability struct {
	dir string

	// mu guards the lazily opened store and log pointers: they are set
	// under the exclusive gate but read by stats collectors at any time.
	mu    sync.Mutex
	store snapshot.ChunkStore
	log   *wal.Log

	// replaying disables WAL appends while hydration re-applies logged
	// batches (they are already in the log). Only touched while holding
	// the exclusive gate.
	replaying bool

	snapshots     atomic.Uint64
	snapshotSkips atomic.Uint64
	snapshotNanos atomic.Int64
	snapshotBytes atomic.Uint64
	gcRemoved     atomic.Uint64
	lastVersion   atomic.Uint64
	hydrations    atomic.Uint64
	replayed      atomic.Uint64
}

func (d *durability) walLog() *wal.Log {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log
}

func (d *durability) setLog(l *wal.Log) {
	d.mu.Lock()
	d.log = l
	d.mu.Unlock()
}

// chunkStore opens the snapshot store on first use.
func (d *durability) chunkStore() (snapshot.ChunkStore, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.store == nil {
		s, err := snapshot.NewDiskStore(filepath.Join(d.dir, snapDirName))
		if err != nil {
			return nil, err
		}
		d.store = s
	}
	return d.store, nil
}

// armDurabilityLocked opens the WAL and snapshot store; callers hold the
// exclusive gate. reset retires every snapshot, then discards the log's
// contents — LoadGraph passes true because the old snapshots and records
// describe a different graph, and neither may be hydrated or replayed under
// the fresh one, which has none until the next Snapshot; hydration passes
// false after it has replayed the suffix itself. A nil e.dur is a no-op.
func (e *Engine) armDurabilityLocked(reset bool) error {
	if e.dur == nil {
		return nil
	}
	store, err := e.dur.chunkStore()
	if err != nil {
		return err
	}
	log := e.dur.walLog()
	if log == nil {
		l, _, err := wal.Open(filepath.Join(e.dur.dir, walFileName))
		if err != nil {
			return err
		}
		e.dur.setLog(l)
		log = l
	}
	if !reset {
		return nil
	}
	removed, err := snapshot.GC(store, 0)
	e.dur.gcRemoved.Add(uint64(removed))
	if err != nil {
		return err
	}
	return log.Reset()
}

// walAppendLocked logs one validated mutation batch, durably, before the
// caller applies it; callers hold the exclusive gate. No-op when
// durability is unarmed or a hydration replay is driving the batch.
func (e *Engine) walAppendLocked(muts []Mutation) error {
	if e.dur == nil || e.dur.replaying {
		return nil
	}
	log := e.dur.walLog()
	if log == nil {
		return nil
	}
	e.mu.RLock()
	ver := e.version + 1
	e.mu.RUnlock()
	if err := log.Append(wal.Record{Version: ver, Muts: muts}); err != nil {
		return fmt.Errorf("core: wal append: %w", err)
	}
	return nil
}

// SnapshotStats describes one Engine.Snapshot call.
type SnapshotStats struct {
	// Version is the graph version the snapshot captured (or matched, when
	// Skipped).
	Version uint64 `json:"version"`
	// Skipped reports that the graph version has not moved since the last
	// committed snapshot, so nothing was written.
	Skipped bool `json:"skipped,omitempty"`
	// Tables and Bytes size the written snapshot.
	Tables int   `json:"tables"`
	Bytes  int64 `json:"bytes"`
	// GCRemoved counts superseded snapshot versions reclaimed afterwards.
	GCRemoved int           `json:"gc_removed"`
	Time      time.Duration `json:"time"`
}

// Snapshot writes a versioned snapshot of the loaded graph and every
// built index to the data directory, commits it by writing its manifest
// last, resets the WAL (the manifest now covers every logged record), and
// garbage-collects superseded versions. It takes the exclusive gate —
// queries queue behind it like any mutation — but does not count as a
// build for /readyz: the engine serves the same state before and after.
// Unchanged graph versions are skipped cheaply, so periodic callers
// (spdbd -snapshot-every) cost nothing on an idle server.
func (e *Engine) Snapshot(ctx context.Context) (*SnapshotStats, error) {
	if err := e.guard(wholeGraph); err != nil {
		return nil, err
	}
	if e.dur == nil {
		return nil, ErrNoDataDir
	}
	if err := e.lockQuery(ctx); err != nil {
		return nil, err
	}
	defer e.unlockQuery()
	return e.snapshotLocked()
}

func (e *Engine) snapshotLocked() (*SnapshotStats, error) {
	start := time.Now()
	e.mu.RLock()
	nodes, edges, wmin, version, ix := e.nodes, e.edges, e.wmin, e.version, e.indexes
	e.mu.RUnlock()
	if nodes == 0 {
		return nil, ErrNoGraph
	}
	if version == e.dur.lastVersion.Load() {
		e.dur.snapshotSkips.Add(1)
		return &SnapshotStats{Version: version, Skipped: true}, nil
	}
	store, err := e.dur.chunkStore()
	if err != nil {
		return nil, err
	}
	w := snapshot.NewWriter(store, version, time.Now().UnixMilli())
	m := w.Manifest()
	m.Nodes = int64(nodes)
	m.Edges = int64(edges)
	m.WMin = wmin
	m.Strategy = e.opts.Strategy.String()
	m.SegBuilt = ix.segBuilt
	if ix.segBuilt {
		m.SegLthd = ix.segLthd
	}
	if orc := ix.orc; orc != nil {
		m.Oracle = &snapshot.OracleMeta{
			K: orc.K, Landmarks: orc.Landmarks, Rows: orc.Rows,
		}
	}
	if lbl := ix.lbl; lbl != nil {
		m.Labels = &snapshot.LabelsMeta{Hubs: lbl.Hubs, RowsOut: lbl.RowsOut, RowsIn: lbl.RowsIn}
	}
	// Every snapshotted relation of the graph and of every live index.
	for _, rel := range sweep.Relations {
		if !rel.Snapshot || !ix.live(rel.Owner) {
			continue
		}
		rows, err := e.dumpTable(rel)
		if err != nil {
			return nil, err
		}
		if err := w.AddTable(rel.Name, rel.Width(), rows); err != nil {
			return nil, err
		}
	}
	if err := w.Commit(); err != nil {
		return nil, err
	}
	// The committed manifest covers every logged record (mutations are
	// excluded by the gate we hold, so nothing landed since the dump), so
	// the log resets: replay must never double-apply them over this base.
	if log := e.dur.walLog(); log != nil {
		if err := log.Reset(); err != nil {
			return nil, err
		}
	}
	removed, err := snapshot.GC(store, snapKeep)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot committed but GC failed: %w", err)
	}
	e.dur.snapshots.Add(1)
	e.dur.snapshotBytes.Add(uint64(w.Bytes()))
	e.dur.snapshotNanos.Add(time.Since(start).Nanoseconds())
	e.dur.lastVersion.Store(version)
	e.dur.gcRemoved.Add(uint64(removed))
	return &SnapshotStats{
		Version: version, Tables: len(m.Tables), Bytes: w.Bytes(),
		GCRemoved: removed, Time: time.Since(start),
	}, nil
}

// OpenFromSnapshot builds an engine over db and hydrates it from the
// newest snapshot in opts.DataDir plus the WAL suffix — the fleet-replica
// startup path that skips CSV ingest and every index rebuild. On failure
// (including ErrNoSnapshot) the database is left open and untouched so
// the caller can fall back to NewEngine + LoadGraph.
func OpenFromSnapshot(db *rdb.DB, opts Options) (*Engine, error) {
	if opts.DataDir == "" {
		return nil, ErrNoDataDir
	}
	e := NewEngine(db, opts)
	if err := e.Hydrate(); err != nil {
		e.sess.Close()
		return nil, err
	}
	return e, nil
}

// Hydrate restores the engine from the newest snapshot in the data
// directory and replays the WAL suffix on top. It runs under trackBuild —
// /readyz reports 503 until the replica can serve — and under the
// exclusive gate. Indexes recorded in the manifest come back valid
// without a rebuild; WAL records above the manifest version replay
// through the ordinary mutation path, invalidating indexes exactly as the
// original batches did.
func (e *Engine) Hydrate() error {
	if err := e.guard(wholeGraph); err != nil {
		return err
	}
	if e.dur == nil {
		return ErrNoDataDir
	}
	defer e.trackBuild()()
	ctx := context.Background()
	if err := e.lockQuery(ctx); err != nil {
		return err
	}
	defer e.unlockQuery()
	return e.hydrateLocked(ctx)
}

func (e *Engine) hydrateLocked(ctx context.Context) error {
	store, err := e.dur.chunkStore()
	if err != nil {
		return err
	}
	m, err := snapshot.Latest(store)
	if err != nil {
		if errors.Is(err, snapshot.ErrNoManifest) {
			return fmt.Errorf("%w (dir %s)", ErrNoSnapshot, e.dur.dir)
		}
		return err
	}

	ix := indexes{segBuilt: m.SegBuilt, segLthd: m.SegLthd}
	if m.Oracle != nil {
		ix.orc = &oracle.Oracle{K: m.Oracle.K, Landmarks: m.Oracle.Landmarks, Rows: m.Oracle.Rows}
	}
	if m.Labels != nil {
		ix.lbl = &labels.Labels{Hubs: m.Labels.Hubs, RowsOut: m.Labels.RowsOut, RowsIn: m.Labels.RowsIn}
	}

	if err := e.resetLocked(); err != nil {
		return err
	}
	var ord order
	// Each live index's relations are created the way its build creates
	// them (the graph's, resetLocked did), under this engine's strategy, and
	// the snapshotted ones loaded.
	for _, o := range []sweep.Owner{sweep.Graph, sweep.Seg, sweep.Oracle, sweep.Labels} {
		if !ix.live(o) {
			continue
		}
		var err error
		switch o {
		case sweep.Seg:
			err = e.createSegTables(nil)
		case sweep.Oracle:
			err = oracle.CreateTables(ctx, e.sweeper(nil))
		case sweep.Labels:
			err = labels.CreateTables(ctx, e.sweeper(nil))
		}
		if err != nil {
			return err
		}
		for _, rel := range sweep.Owned(o) {
			if !rel.Snapshot {
				continue
			}
			tm := m.Table(rel.Name)
			if tm == nil || tm.Cols != rel.Width() {
				return fmt.Errorf("core: snapshot v%d has no %d-column %s dump", m.Version, rel.Width(), rel.Name)
			}
			rows, err := snapshot.ReadTable(store, tm)
			if err != nil {
				return err
			}
			if rel.Name == TblNodes {
				if ord, err = orderOf(m.Nodes, rows); err != nil {
					return fmt.Errorf("core: snapshot v%d: %w", m.Version, err)
				}
			}
			if err := e.bulkInsert(rel, len(rows), func(i int, vals []int64) { copy(vals, rows[i]) }); err != nil {
				return err
			}
		}
		// The dump is in key order, so the load filled TOutSegs' leaves,
		// and its tid index's at random: pack those, as a build does.
		if o == sweep.Seg {
			if err := e.db.PackIndexes(TblOutSegs); err != nil {
				return err
			}
		}
	}

	e.mu.Lock()
	e.wmin = m.WMin
	e.nodes = int(m.Nodes)
	e.edges = int(m.Edges)
	e.ord = ord
	e.indexes = ix
	e.version = m.Version
	e.mu.Unlock()

	// Open the WAL (truncating any torn tail) and replay the suffix. The
	// version-skip rule covers the crash window between a snapshot's
	// manifest commit and its WAL reset: records at or below the manifest
	// version are already inside the snapshot.
	log, recs, err := wal.Open(filepath.Join(e.dur.dir, walFileName))
	if err != nil {
		return err
	}
	e.dur.setLog(log)
	e.dur.replaying = true
	defer func() { e.dur.replaying = false }()
	for _, rec := range recs {
		if rec.Version <= m.Version {
			continue
		}
		// Every logged batch passed checkBatch and resolveBatch before it
		// was appended, so a record refused now proves the log is on the
		// wrong base; one that fails mid-way cannot reach the state it
		// logged either. Hydration returns both.
		if _, err := e.applyMutationsLocked(ctx, rec.Muts); err != nil {
			return fmt.Errorf("core: WAL record v%d does not apply over snapshot v%d: %w", rec.Version, m.Version, err)
		}
		// Pin the version the original batch committed as; build-only
		// bumps between batches are not logged, so the replayed count
		// cannot be trusted to line up on its own.
		e.mu.Lock()
		e.version = rec.Version
		e.mu.Unlock()
		e.dur.replayed.Add(1)
	}
	// The cache may hold entries keyed at versions this engine's earlier
	// life already used; hydration rewound the version counter, so purge.
	e.mu.Lock()
	if e.cache != nil {
		e.cache.purge()
	}
	e.mu.Unlock()
	if err := e.armDurabilityLocked(false); err != nil {
		return err
	}
	e.dur.lastVersion.Store(m.Version)
	e.dur.hydrations.Add(1)
	return nil
}

// orderOf rebuilds the node order of an n-node snapshot from its TNodes
// rows (nid, ext), refusing rows that are no permutation.
func orderOf(n int64, rows [][]int64) (order, error) {
	if int64(len(rows)) != n {
		return order{}, fmt.Errorf("%d node order rows for %d nodes", len(rows), n)
	}
	o := order{toInt: make([]int64, n), toExt: make([]int64, n)}
	for _, r := range rows {
		nid, ext := r[0], r[1]
		if nid < 0 || nid >= n || ext < 0 || ext >= n {
			return order{}, fmt.Errorf("node order row (%d, %d) outside [0, %d)", nid, ext, n)
		}
		o.toExt[nid], o.toInt[ext] = ext, nid
	}
	return o, o.check(n)
}

// dumpTable materializes rel's rows, columns in declaration order.
func (e *Engine) dumpTable(rel sweep.Relation) ([][]int64, error) {
	res, err := e.sess.Query("SELECT " + rel.Cols + " FROM " + rel.Name)
	if err != nil {
		return nil, err
	}
	cols := rel.Width()
	rows := make([][]int64, len(res.Data))
	flat := make([]int64, cols*len(res.Data))
	for i, r := range res.Data {
		row := flat[i*cols : (i+1)*cols : (i+1)*cols]
		for j := range row {
			row[j] = r[j].I
		}
		rows[i] = row
	}
	return rows, nil
}

// DurabilityStats snapshots the durability subsystem for the serving tier
// (/stats, /metrics). Zero-valued when Options.DataDir is unset.
type DurabilityStats struct {
	// Armed reports a live WAL: mutations are being logged.
	Armed bool      `json:"armed"`
	WAL   wal.Stats `json:"wal"`
	// Snapshots counts committed snapshot writes; SnapshotSkips calls that
	// found the graph version unchanged and wrote nothing.
	Snapshots     uint64 `json:"snapshots"`
	SnapshotSkips uint64 `json:"snapshot_skips"`
	// SnapshotBytes and SnapshotTime total the chunk bytes written and the
	// wall time spent writing (version-dump through GC).
	SnapshotBytes uint64        `json:"snapshot_bytes"`
	SnapshotTime  time.Duration `json:"snapshot_time"`
	// LastSnapshotVersion is the newest committed (or hydrated-from)
	// snapshot's graph version.
	LastSnapshotVersion uint64 `json:"last_snapshot_version"`
	// GCRemoved counts superseded snapshot versions reclaimed.
	GCRemoved uint64 `json:"gc_removed"`
	// Hydrations counts snapshot restores; ReplayedRecords the WAL records
	// re-applied on top of them.
	Hydrations      uint64 `json:"hydrations"`
	ReplayedRecords uint64 `json:"replayed_records"`
}

// DurabilityStats snapshots the durability subsystem's counters.
func (e *Engine) DurabilityStats() DurabilityStats {
	if e.dur == nil {
		return DurabilityStats{}
	}
	st := DurabilityStats{
		Snapshots:           e.dur.snapshots.Load(),
		SnapshotSkips:       e.dur.snapshotSkips.Load(),
		SnapshotBytes:       e.dur.snapshotBytes.Load(),
		SnapshotTime:        time.Duration(e.dur.snapshotNanos.Load()),
		LastSnapshotVersion: e.dur.lastVersion.Load(),
		GCRemoved:           e.dur.gcRemoved.Load(),
		Hydrations:          e.dur.hydrations.Load(),
		ReplayedRecords:     e.dur.replayed.Load(),
	}
	if log := e.dur.walLog(); log != nil {
		st.Armed = true
		st.WAL = log.Stats()
	}
	return st
}
