package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/rdb"
	"repro/internal/wal"
)

// The durability test battery: snapshot/hydrate round-trips with every
// index, WAL suffix replay, torn-tail recovery, skip/GC behavior, and the
// no-snapshot fallback contract. The model's kill move (model_test.go)
// holds a hydrated engine to the snapshot plus the replayed batches;
// TestKillMidChurnDifferential is its crash differential.

// hydrateEngine opens a fresh database and hydrates an engine from dir's
// newest snapshot plus the WAL suffix.
func hydrateEngine(t *testing.T, dir string) *Engine {
	t.Helper()
	db, err := rdb.Open(rdb.Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	e, err := OpenFromSnapshot(db, Options{DataDir: dir})
	if err != nil {
		t.Fatalf("hydrate: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// abandonedEngine builds an engine with durability armed and does NOT
// register Close: dropping it mid-test simulates kill -9 — the WAL fsyncs
// on every batch, so the on-disk state is exactly what a crashed process
// leaves behind.
func abandonedEngine(t *testing.T, g *graph.Graph, dir string) *Engine {
	t.Helper()
	db, err := rdb.Open(rdb.Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	e := NewEngine(db, Options{DataDir: dir})
	if err := e.LoadGraph(g); err != nil {
		t.Fatalf("load graph: %v", err)
	}
	return e
}

// TestSnapshotHydrate: a snapshot taken with every index built hydrates a
// fresh engine that serves exact answers with zero rebuilds: kill holds the
// indexes to the snapshot's, nothing replayed.
func TestSnapshotHydrate(t *testing.T) {
	g, _ := paperGraph(t)
	m := newModel(t, 1, rdb.Options{}, Options{DataDir: t.TempDir()})
	m.load(g)
	m.buildSeg(6)
	m.buildOracle(4)
	m.buildLabels()
	if st := m.snapshot(); st.Skipped || st.Tables != 6 || st.Bytes <= 0 { // TNodes, TEdges, TOutSegs, TLandmark and the two label tables
		t.Fatalf("snapshot stats: %+v", st)
	}
	e := m.e
	m.kill()
	if !m.e.DurabilityStats().Armed {
		t.Fatal("the hydrated engine's WAL is not armed")
	}
	// Hydration restores the relations queries and mutations read, not the
	// builds' scratch: the degree ranking is left to whichever build runs
	// next.
	want := []string{"tedges", "tlabelin", "tlabelout", "tlandmark",
		"tlblfrom", "tlblto", "tnodes", "toutsegs", "tseg"}
	if got := catalogNames(m.e); !reflect.DeepEqual(got, want) {
		t.Errorf("hydrated catalog %v, want %v", got, want)
	}
	var pairs [][2]int64
	for _, s := range []int64{0, 3, 5, 8, 10} {
		for _, tt := range []int64{0, 3, 5, 8, 10} {
			pairs = append(pairs, [2]int64{s, tt})
		}
	}
	m.query(pairs)
	sameSegTable(t, m.e, e) // the snapshotted engine's rows, hydrated
}

// TestHydrateIgnoresLandmarkStrategy: a format-6 manifest written while
// landmark placement had a choice carries "strategy" in its oracle block.
// Decoding ignores the key: the landmarks come back and ALT answers match
// the in-memory Dijkstra.
func TestHydrateIgnoresLandmarkStrategy(t *testing.T) {
	g := graph.Power(200, 3, 13)
	dir := t.TempDir()
	e := abandonedEngine(t, g, dir)
	built, err := e.BuildOracle(oracle.Config{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Snapshot(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	manifests, err := filepath.Glob(filepath.Join(dir, snapDirName, "v*", "manifest.json"))
	if err != nil || len(manifests) == 0 {
		t.Fatalf("no manifest in %s (%v)", dir, err)
	}
	path := manifests[len(manifests)-1]
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	orc, ok := doc["oracle"].(map[string]any)
	if !ok {
		t.Fatalf("manifest has no oracle block: %s", data)
	}
	if _, ok := orc["strategy"]; ok {
		t.Fatalf("a new manifest writes the oracle's strategy: %s", data)
	}
	orc["strategy"] = "farthest"
	if data, err = json.MarshalIndent(doc, "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	h := hydrateEngine(t, dir)
	if got := h.Oracle(); got == nil || !reflect.DeepEqual(got.Landmarks, built.Landmarks) {
		t.Fatalf("hydrated oracle %+v, built landmarks %v", got, built.Landmarks)
	}
	for _, q := range graph.RandomQueries(g, 6, 3) {
		res, err := h.Query(context.Background(), QueryRequest{Source: q[0], Target: q[1], Alg: AlgALT})
		if err != nil {
			t.Fatal(err)
		}
		checkPath(t, g, AlgALT, q[0], q[1], res.Path)
	}
}

// TestSnapshotHydrateAcrossStrategies: the manifest records the writer's
// physical design for operators only — a snapshot written under any
// strategy, every index live, hydrates under any other, the relations stored
// the hydrating engine's way, and every algorithm answers exactly.
func TestSnapshotHydrateAcrossStrategies(t *testing.T) {
	g, _ := paperGraph(t)
	strategies := []IndexStrategy{ClusteredIndex, SecondaryIndex, NoIndex}
	dirs := map[IndexStrategy]string{}
	built := map[IndexStrategy]map[string]bool{} // the tables as the builds under each strategy create them
	for _, from := range strategies {
		dirs[from] = t.TempDir()
		e := newTestEngine(t, g, rdb.Options{}, Options{DataDir: dirs[from], Strategy: from})
		if _, err := e.BuildSegTable(6); err != nil {
			t.Fatal(err)
		}
		buildOracle(t, e)
		if _, err := e.BuildLabels(); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Snapshot(context.Background()); err != nil {
			t.Fatal(err)
		}
		built[from] = map[string]bool{}
		for _, line := range describeCatalog(e) {
			built[from][line] = true
		}
	}
	for _, from := range strategies {
		for _, to := range strategies {
			t.Run(from.String()+"->"+to.String(), func(t *testing.T) {
				db, err := rdb.Open(rdb.Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				h, err := OpenFromSnapshot(db, Options{DataDir: dirs[from], Strategy: to})
				if err != nil {
					t.Fatal(err)
				}
				defer h.Close()
				if h.SegLthd() != 6 || h.Oracle() == nil || h.Labels() == nil {
					t.Fatalf("hydrated lthd=%d oracle=%v labels=%v, want every index live", h.SegLthd(), h.Oracle(), h.Labels())
				}
				for _, line := range describeCatalog(h) {
					if !built[to][line] {
						t.Errorf("hydrated under %v: %s, which no build under it creates", to, line)
					}
				}
				nodes := []int64{0, 3, 5, 8, 10}
				for _, s := range nodes {
					for _, tt := range nodes {
						for _, alg := range append(allAlgorithms(), AlgLabel) {
							p, _, err := shortestPath(h, alg, s, tt)
							if err != nil {
								t.Fatalf("%v s=%d t=%d: %v", alg, s, tt, err)
							}
							checkPath(t, g, alg, s, tt, p)
						}
					}
				}
			})
		}
	}
}

// TestHydrateInPlaceCleanCatalog: hydrating an engine that has been
// serving replaces everything it created lazily. On the PostgreSQL 9.0
// profile a mutation of each maintenance kind leaves the sweep's staging
// tables and the repair's touch set behind; after a snapshot and an
// in-place Hydrate the catalog is exactly a fresh replica's (which below
// the MERGE level carries the maintenance staging table next to the
// segment tables).
func TestHydrateInPlaceCleanCatalog(t *testing.T) {
	g, _ := paperGraph(t)
	e := newTestEngine(t, g, rdb.Options{Profile: rdb.ProfilePostgreSQL9}, Options{DataDir: t.TempDir()})
	if _, err := e.BuildSegTable(6); err != nil {
		t.Fatal(err)
	}
	mirror := g.Clone()
	if _, err := e.InsertEdge(0, 10, 1); err != nil {
		t.Fatal(err)
	}
	if err := mirror.InsertEdge(0, 10, 1); err != nil {
		t.Fatal(err)
	}
	ed := g.Edges[2]
	if _, err := e.DeleteEdge(ed.From, ed.To); err != nil {
		t.Fatal(err)
	}
	if _, err := mirror.DeleteEdge(ed.From, ed.To); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.DB().Catalog().Get(tblMutTouch); !ok {
		t.Fatal("the deletion never computed a touch set in " + tblMutTouch)
	}
	if _, err := e.Snapshot(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := e.Hydrate(); err != nil {
		t.Fatal(err)
	}
	want := []string{"tedges", "tnodes", "toutsegs", "tseg", "tsegmaint"}
	if got := catalogNames(e); !reflect.DeepEqual(got, want) {
		t.Errorf("catalog after in-place hydration %v, want %v", got, want)
	}
	for _, q := range [][2]int64{{0, 10}, {ed.From, ed.To}, {3, 8}} {
		p, _, err := shortestPath(e, AlgBSEG, q[0], q[1])
		if err != nil {
			t.Fatal(err)
		}
		checkPath(t, mirror, AlgBSEG, q[0], q[1], p)
	}
}

// TestHydrateReplaysWAL: mutations applied after the last snapshot live
// only in the WAL; hydration replays them on top of the snapshot, their
// counters with them, and the WAL re-arms for the batches after it.
func TestHydrateReplaysWAL(t *testing.T) {
	m := newModel(t, 20260807, rdb.Options{}, Options{DataDir: t.TempDir()})
	m.load(graph.Random(20, 50, 11))
	m.buildSeg(6)
	m.snapshot()
	m.mutate(1) // a one-mutation batch counts like any other, replayed too
	for b := 1; b < 5; b++ {
		m.mutate(1 + m.rnd.Intn(4))
	}
	m.kill()
	m.buildOracle(4)
	m.query(m.draw(12))
	m.mutate(1)
	if ds := m.e.DurabilityStats(); !ds.Armed || ds.WAL.Appends == 0 {
		t.Fatalf("post-hydration WAL not armed: %+v", ds)
	}
}

// TestHydrateTornTail: a crash can tear the last WAL frame mid-write.
// Recovery must keep every intact record and drop the torn tail.
func TestHydrateTornTail(t *testing.T) {
	dir := t.TempDir()
	g, _ := paperGraph(t)
	mirror := g.Clone()
	a := abandonedEngine(t, g, dir)
	if _, err := a.BuildSegTable(6); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Snapshot(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Batch 1 survives: mirrored on the reference.
	if err := mirror.InsertEdge(0, 10, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ApplyMutations([]Mutation{{Op: MutInsert, From: 0, To: 10, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "mutations.wal")
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	intact := fi.Size()

	// Batch 2 gets torn: applied to the engine, NOT the mirror, then the
	// file is cut 5 bytes into its frame.
	if _, err := a.ApplyMutations([]Mutation{{Op: MutDelete, From: 0, To: 3}}); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, intact+5); err != nil {
		t.Fatal(err)
	}

	h := hydrateEngine(t, dir)
	ds := h.DurabilityStats()
	if ds.ReplayedRecords != 1 {
		t.Fatalf("replayed %d records, want 1 (the intact batch)", ds.ReplayedRecords)
	}
	buildOracle(t, h)
	for _, pair := range [][2]int64{{0, 10}, {0, 7}, {4, 9}} {
		for _, alg := range allAlgorithms() {
			p, _, err := shortestPath(h, alg, pair[0], pair[1])
			if err != nil {
				t.Fatalf("%v %v: %v", alg, pair, err)
			}
			checkPath(t, mirror, alg, pair[0], pair[1], p)
		}
	}
}

// TestSnapshotSkipUnchanged: snapshotting an unmoved graph version writes
// nothing — periodic snapshots are free on an idle server.
func TestSnapshotSkipUnchanged(t *testing.T) {
	dir := t.TempDir()
	g, _ := paperGraph(t)
	e := newTestEngine(t, g, rdb.Options{}, Options{DataDir: dir})
	if _, err := e.Snapshot(context.Background()); err != nil {
		t.Fatal(err)
	}
	st, err := e.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Skipped {
		t.Fatalf("second snapshot not skipped: %+v", st)
	}
	if ds := e.DurabilityStats(); ds.Snapshots != 1 || ds.SnapshotSkips != 1 {
		t.Fatalf("stats: %+v", ds)
	}
}

// TestSnapshotGCBoundsVersions: repeated mutate+snapshot cycles must not
// accumulate snapshot versions on disk — GC keeps the newest two.
func TestSnapshotGCBoundsVersions(t *testing.T) {
	dir := t.TempDir()
	g, _ := paperGraph(t)
	e := newTestEngine(t, g, rdb.Options{}, Options{DataDir: dir})
	for i := 0; i < 4; i++ {
		m := Mutation{Op: MutInsert, From: 0, To: int64(4 + i), Weight: int64(20 + i)}
		if _, err := e.ApplyMutations([]Mutation{m}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Snapshot(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(filepath.Join(dir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, ent := range entries {
		if ent.IsDir() {
			dirs = append(dirs, ent.Name())
		}
	}
	if len(dirs) > 2 {
		t.Fatalf("GC left %d snapshot versions on disk: %v", len(dirs), dirs)
	}
	if ds := e.DurabilityStats(); ds.GCRemoved < 2 {
		t.Fatalf("expected >= 2 versions reclaimed, stats %+v", ds)
	}
}

// TestOpenFromSnapshotEmpty: with no snapshot on disk, OpenFromSnapshot
// fails with ErrNoSnapshot and leaves the database usable for the
// LoadGraph fallback.
func TestOpenFromSnapshotEmpty(t *testing.T) {
	dir := t.TempDir()
	db, err := rdb.Open(rdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := OpenFromSnapshot(db, Options{DataDir: dir}); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("err = %v, want ErrNoSnapshot", err)
	}
	// Fallback path: the same DB must accept a fresh engine and load.
	g, _ := paperGraph(t)
	e := NewEngine(db, Options{DataDir: dir})
	t.Cleanup(func() { e.Close() })
	if err := e.LoadGraph(g); err != nil {
		t.Fatalf("fallback load after failed hydration: %v", err)
	}
	if _, err := e.Snapshot(context.Background()); err != nil {
		t.Fatalf("first snapshot after fallback: %v", err)
	}
}

// TestReplayRefusesForeignBatch: every logged batch passed the validation
// and the pair reads before its append, so a WAL record that fails them now
// (an endpoint out of range, a weight above MaxWeight, a delete of a pair
// with no edge) proves the log is on the wrong base. Hydration returns it,
// naming the record's and the snapshot's versions, instead of dropping the
// batch.
func TestReplayRefusesForeignBatch(t *testing.T) {
	g := graph.Random(20, 50, 1)
	for _, ed := range g.Edges {
		if ed.From == 0 && ed.To == 1 {
			t.Fatal("test graph has edge (0,1); pick another seed")
		}
	}
	for _, m := range []Mutation{
		{Op: MutInsert, From: 25, To: 3, Weight: 1},
		{Op: MutInsert, From: 2, To: 3, Weight: MaxWeight + 1},
		{Op: MutDelete, From: 0, To: 1},
	} {
		dir := t.TempDir()
		e := newTestEngine(t, g.Clone(), rdb.Options{}, Options{DataDir: dir})
		ss, err := e.Snapshot(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		rec := wal.Record{Version: ss.Version + 1, Muts: []Mutation{m}}
		if err := e.dur.walLog().Append(rec); err != nil {
			t.Fatal(err)
		}
		db, err := rdb.Open(rdb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		want := fmt.Sprintf("WAL record v%d does not apply over snapshot v%d", rec.Version, ss.Version)
		if _, err := OpenFromSnapshot(db, Options{DataDir: dir}); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("hydrate over %+v: %v, want %q", m, err, want)
		}
	}
}
