package core

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/rdb"
)

// The durability test battery: snapshot/hydrate round-trips with every
// index, WAL suffix replay, a kill-mid-churn differential (the PR's
// acceptance bar: recover to the exact relational state and prove it by
// driving every algorithm against the in-memory reference), torn-tail
// recovery, skip/GC behavior, and the no-snapshot fallback contract.

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

// TestSnapshotHydrate: a snapshot taken with every index built must
// hydrate a fresh engine that serves exact answers with zero rebuilds.
func TestSnapshotHydrate(t *testing.T) {
	dir := t.TempDir()
	g, _ := paperGraph(t)
	e := newTestEngine(t, g, rdb.Options{}, Options{DataDir: dir})
	if _, err := e.BuildSegTable(6); err != nil {
		t.Fatal(err)
	}
	buildOracle(t, e)
	if _, err := e.BuildLabels(); err != nil {
		t.Fatal(err)
	}
	st, err := e.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Skipped || st.Tables != 6 || st.Bytes <= 0 {
		t.Fatalf("snapshot stats: %+v", st)
	}

	h := hydrateEngine(t, dir)
	// The hydrated replica must have every index warm without a Build*
	// call — that is the entire point of fleet hydration.
	if h.Nodes() != e.Nodes() || h.Edges() != e.Edges() {
		t.Fatalf("hydrated shape %d/%d, want %d/%d", h.Nodes(), h.Edges(), e.Nodes(), e.Edges())
	}
	if h.SegLthd() != 6 {
		t.Fatalf("hydrated SegLthd = %d, want 6", h.SegLthd())
	}
	if h.Oracle() == nil {
		t.Fatal("hydrated engine lost the oracle")
	}
	if h.Labels() == nil {
		t.Fatal("hydrated engine lost the label index")
	}
	ds := h.DurabilityStats()
	if ds.Hydrations != 1 || ds.ReplayedRecords != 0 || !ds.Armed {
		t.Fatalf("durability stats: %+v", ds)
	}
	// Hydration restores the relations queries and mutations read, not the
	// builds' scratch: the degree ranking and the farthest-point state are
	// left to whichever build runs next.
	want := []string{"tedges", "texpand", "texpcost", "tinsegs", "tlabelin", "tlabelout", "tlandmark",
		"tlblfrom", "tlblto", "tnodes", "toutsegs", "tseg", "tvisited"}
	if got := catalogNames(h); !reflect.DeepEqual(got, want) {
		t.Errorf("hydrated catalog %v, want %v", got, want)
	}

	algs := append(allAlgorithms(), AlgLabel)
	nodes := []int64{0, 3, 5, 8, 10}
	for _, s := range nodes {
		for _, tt := range nodes {
			for _, alg := range algs {
				p, _, err := shortestPath(h, alg, s, tt)
				if err != nil {
					t.Fatalf("%v s=%d t=%d: %v", alg, s, tt, err)
				}
				checkPath(t, g, alg, s, tt, p)
			}
		}
	}

	// The hydrated SegTable must be byte-for-byte the builder's output.
	for _, tbl := range []string{TblOutSegs, TblInSegs} {
		want := segTableSnapshot(t, e, tbl)
		got := segTableSnapshot(t, h, tbl)
		if len(want) != len(got) {
			t.Fatalf("%s: %d rows hydrated, want %d", tbl, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("%s: row %v = %d, want %d", tbl, k, got[k], v)
			}
		}
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
	want := []string{"tedges", "texpand", "texpcost", "tinsegs", "tnodes", "toutsegs", "tseg", "tsegmaint", "tvisited"}
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
// only in the WAL; hydration must replay them on top of the snapshot.
func TestHydrateReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	seed := mutationDiffSeed(t, 20260807)
	rnd := rand.New(rand.NewSource(seed))
	mirror := graph.Random(20, 50, 11)
	e := newTestEngine(t, mirror.Clone(), rdb.Options{}, Options{DataDir: dir})
	if _, err := e.BuildSegTable(6); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Snapshot(context.Background()); err != nil {
		t.Fatal(err)
	}

	const batches = 5
	for b := 0; b < batches; b++ {
		k := 1 + rnd.Intn(4)
		muts := make([]Mutation, 0, k)
		for i := 0; i < k; i++ {
			muts = append(muts, randomMutation(t, rnd, mirror))
		}
		if _, err := e.ApplyMutations(muts); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}

	h := hydrateEngine(t, dir)
	ds := h.DurabilityStats()
	if ds.ReplayedRecords != batches {
		t.Fatalf("replayed %d records, want %d", ds.ReplayedRecords, batches)
	}
	buildOracle(t, h)
	for i := 0; i < 12; i++ {
		s, tt := rnd.Int63n(mirror.N), rnd.Int63n(mirror.N)
		for _, alg := range allAlgorithms() {
			p, _, err := shortestPath(h, alg, s, tt)
			if err != nil {
				t.Fatalf("%v s=%d t=%d: %v", alg, s, tt, err)
			}
			checkPath(t, mirror, alg, s, tt, p)
		}
	}

	// Post-hydration mutations must be durable too: the WAL re-arms.
	m := randomMutation(t, rnd, mirror)
	if _, err := h.ApplyMutations([]Mutation{m}); err != nil {
		t.Fatal(err)
	}
	if ds = h.DurabilityStats(); !ds.Armed || ds.WAL.Appends == 0 {
		t.Fatalf("post-hydration WAL not armed: %+v", ds)
	}
}

// TestKillMidChurnDifferential is the acceptance criterion: an engine
// killed without warning in the middle of a mutation churn (with a
// snapshot taken partway) must recover — snapshot plus WAL replay — to
// the exact relational state, proven by a differential across every
// algorithm against the in-memory reference and a SegTable row
// comparison against a from-scratch rebuild.
func TestKillMidChurnDifferential(t *testing.T) {
	const (
		steps    = 120
		nodes    = 24
		edges    = 70
		lthd     = 6
		batchMax = 6
	)
	seed := mutationDiffSeed(t, 20260808)
	t.Logf("kill-mid-churn differential: seed=%d (override with MUTATION_DIFF_SEED)", seed)
	rnd := rand.New(rand.NewSource(seed))
	dir := t.TempDir()

	var init []graph.Edge
	for i := 0; i < edges; i++ {
		init = append(init, graph.Edge{
			From: rnd.Int63n(nodes), To: rnd.Int63n(nodes), Weight: 1 + rnd.Int63n(9),
		})
	}
	mirror, err := graph.New(nodes, init)
	if err != nil {
		t.Fatal(err)
	}

	a := abandonedEngine(t, mirror.Clone(), dir)
	if _, err := a.BuildSegTable(lthd); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Snapshot(context.Background()); err != nil {
		t.Fatal(err)
	}

	applied, batches := 0, 0
	for applied < steps {
		k := 1 + rnd.Intn(batchMax)
		if applied+k > steps {
			k = steps - applied
		}
		muts := make([]Mutation, 0, k)
		for i := 0; i < k; i++ {
			muts = append(muts, randomMutation(t, rnd, mirror))
		}
		if _, err := a.ApplyMutations(muts); err != nil {
			t.Fatalf("step %d: %v", applied, err)
		}
		applied += k
		batches++
		// A mid-churn snapshot exercises the WAL reset: later batches form
		// the replay suffix, earlier ones are covered by the manifest.
		if batches == 8 {
			if _, err := a.Snapshot(context.Background()); err != nil {
				t.Fatalf("mid-churn snapshot: %v", err)
			}
		}
	}
	// Kill: a is abandoned here without Close — no final sync, no
	// snapshot. Everything the recovery sees was fsynced batch by batch.

	h := hydrateEngine(t, dir)
	ds := h.DurabilityStats()
	if ds.Hydrations != 1 || ds.ReplayedRecords == 0 {
		t.Fatalf("expected a replayed WAL suffix, got stats %+v", ds)
	}
	t.Logf("recovered: %d WAL records replayed on the mid-churn snapshot", ds.ReplayedRecords)

	if h.Edges() != mirror.M() {
		t.Fatalf("recovered edge count %d, want %d", h.Edges(), mirror.M())
	}
	buildOracle(t, h)
	for i := 0; i < 12; i++ {
		s, tt := rnd.Int63n(mirror.N), rnd.Int63n(mirror.N)
		for _, alg := range allAlgorithms() {
			p, _, err := shortestPath(h, alg, s, tt)
			if err != nil {
				t.Fatalf("%v s=%d t=%d: %v", alg, s, tt, err)
			}
			checkPath(t, mirror, alg, s, tt, p)
		}
	}

	// The recovered SegTable (snapshot rows + replayed repairs) must equal
	// a from-scratch rebuild over the final graph.
	ref := newTestEngine(t, mirror.Clone(), rdb.Options{}, Options{})
	if _, err := ref.BuildSegTable(lthd); err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []string{TblOutSegs, TblInSegs} {
		want := segTableSnapshot(t, ref, tbl)
		got := segTableSnapshot(t, h, tbl)
		if len(want) != len(got) {
			t.Fatalf("%s: %d rows recovered, want %d", tbl, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("%s: row %v = %d, want %d", tbl, k, got[k], v)
			}
		}
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
