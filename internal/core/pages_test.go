package core

import (
	"context"
	"fmt"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/rdb"
	"repro/internal/storage"
	"repro/internal/table"
)

// TestPagesStayFlat: a served engine that repeats the same work must stop
// growing its database file, and the temp space's tables must stop
// growing. Each round reloads the graph (DROP of every
// relation), runs four concurrent BSDJ searchers whose scratch sets are
// dropped on release, rebuilds the SegTable and the oracle, answers BSDJ,
// BSEG and ALT pairs, and applies a mutation batch that takes the rebuild
// fallback. After the second round the file is at its high-water mark,
// the temp space's tables hold as many pages as after every later round,
// and after every round each page of either space is in exactly one table
// of that space or on its free list;
// no Unpin ever finds its page unpinned.
// The searchers' scratch sets live in the temp space, so the file's
// high-water mark is the load's and the builds' alone. The temp space's
// own high-water mark is the searchers' peak, which depends on how many of
// their sets the scheduler keeps live at once; the pages its tables hold
// once every set is dropped do not.
func TestPagesStayFlat(t *testing.T) {
	g := graph.Power(600, 3, 7)
	e := newTestEngine(t, g, rdb.Options{}, Options{CacheSize: -1})
	e.scratchRetain, e.repairThreshold = -1, -1
	pairs := graph.RandomQueries(g, 4, 7)
	ask := func(alg Algorithm, q [2]int64) error {
		res, err := e.Query(context.Background(), QueryRequest{Source: q[0], Target: q[1], Alg: alg})
		if err != nil {
			return err
		}
		if ref := graph.MDJ(g, q[0], q[1]); res.Found != ref.Found || ref.Found && res.Distance != ref.Distance {
			return fmt.Errorf("%v %v: found %v at %d, reference %v at %d", alg, q, res.Found, res.Distance, ref.Found, ref.Distance)
		}
		return nil
	}
	var pages, temp [6]int
	for round := 1; round <= 5; round++ {
		if err := e.LoadGraph(g); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, q := range pairs {
					if err := ask(AlgBSDJ, q); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("round %d, concurrent searcher: %v", round, err)
		}
		if _, err := e.BuildSegTable(5); err != nil {
			t.Fatal(err)
		}
		if _, err := e.BuildOracle(oracle.Config{K: 2}); err != nil {
			t.Fatal(err)
		}
		for _, q := range pairs {
			for _, alg := range []Algorithm{AlgBSDJ, AlgBSEG, AlgALT} {
				if err := ask(alg, q); err != nil {
					t.Fatalf("round %d, %v %v: %v", round, alg, q, err)
				}
			}
		}
		ed := g.Edges[round]
		st, err := e.ApplyMutations([]Mutation{{Op: MutDelete, From: ed.From, To: ed.To}})
		if err != nil {
			t.Fatal(err)
		}
		if !st.Rebuilt {
			t.Fatalf("round %d: the delete did not take the rebuild fallback: %+v", round, st)
		}
		if err := e.DB().CheckPages(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		pages[round], temp[round] = e.DB().Pool().Disk().NumPages(), e.DB().Stats().Temp.Pages
		for _, id := range e.DB().Pool().FreePages() {
			if id.Temp() {
				temp[round]--
			}
		}
	}
	if pages[2] != pages[5] {
		t.Fatalf("the file kept growing: %d pages after round 2, %d after round 5 (per round: %v)", pages[2], pages[5], pages[1:])
	}
	if temp[2] != temp[5] {
		t.Fatalf("the temp space's tables kept growing: %d pages in use after round 2, %d after round 5 (per round: %v)", temp[2], temp[5], temp[1:])
	}
	if st := e.DB().Stats().Pool; st.Recycled == 0 || st.Leaked != 0 || st.BadUnpins != 0 {
		t.Fatalf("pool: %+v", st)
	}
	t.Logf("pages after each round: database %v, temp in use %v", pages[1:], temp[1:])
}

// TestScratchLeavesFileFlat: searches write only the temp space. On a
// file-backed graph.Power(8000) with its SegTable and an isolated node,
// behind a 64-page pool, a search to and one from the isolated node (an
// exhaustive sweep each, every node in the working set) leave the
// database file's page count as the load and build left it, at BSDJ and
// at BSEG, while the temp space grows to hold the working set. (While
// scratch shared the database file, the first such search grew the file
// by the pages of its visited set, for good.)
func TestScratchLeavesFileFlat(t *testing.T) {
	base := graph.Power(8000, 3, 2011)
	g, err := graph.New(base.N+1, base.Edges) // node base.N is isolated
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, g, rdb.Options{Path: filepath.Join(t.TempDir(), "flat.db"), BufferPoolPages: 64}, Options{CacheSize: -1})
	if _, err := e.BuildSegTable(20); err != nil {
		t.Fatal(err)
	}
	file, temp := e.DB().Pool().Disk().NumPages(), e.DB().Stats().Temp.Pages
	isolated := int64(base.N)
	for _, alg := range []Algorithm{AlgBSDJ, AlgBSEG} {
		for _, p := range [][2]int64{{5, isolated}, {isolated, 5}} {
			res, err := e.Query(context.Background(), QueryRequest{Source: p[0], Target: p[1], Alg: alg})
			if err != nil || res.Found {
				t.Fatalf("%v %v: found %v, %v", alg, p, res.Found, err)
			}
		}
	}
	if got := e.DB().Pool().Disk().NumPages(); got != file {
		t.Errorf("searches to and from the isolated node grew the database file %d -> %d pages", file, got)
	}
	if got := e.DB().Stats().Temp.Pages; got <= temp {
		t.Errorf("the temp space has %d pages, %d before the searches", got, temp)
	}
	if err := e.DB().CheckPages(); err != nil {
		t.Fatal(err)
	}
	t.Logf("database file %d pages; temp space %d -> %d pages", file, temp, e.DB().Stats().Temp.Pages)
}

// TestBuildsEmptyTheirWorkingSet: every build and the decremental repair
// leave the sweep's working set (TSeg), its below-MERGE staging tables,
// and the degree ranking with no rows, at the
// fused and the window-only SQL level.
func TestBuildsEmptyTheirWorkingSet(t *testing.T) {
	g := graph.Power(400, 3, 1)
	for _, profile := range []rdb.Profile{rdb.ProfileDBMSX, rdb.ProfilePostgreSQL9} {
		e := newTestEngine(t, g, rdb.Options{Profile: profile}, Options{})
		empty := func(after string) {
			t.Helper()
			for _, name := range []string{TblSeg, "TSegExpand", "TSegExpCost", "TDeg", "TDegIn"} {
				if tb, ok := e.DB().Catalog().Get(name); ok && tb.RowCount() != 0 {
					t.Errorf("%s, after %s: %s holds %d rows", profile.Name, after, name, tb.RowCount())
				}
			}
			if err := e.DB().CheckPages(); err != nil {
				t.Fatalf("%s, after %s: %v", profile.Name, after, err)
			}
		}
		if _, err := e.BuildSegTable(20); err != nil {
			t.Fatal(err)
		}
		empty("BuildSegTable")
		if _, err := e.BuildOracle(oracle.Config{K: 3}); err != nil {
			t.Fatal(err)
		}
		empty("BuildOracle")
		if _, err := e.BuildLabels(); err != nil {
			t.Fatal(err)
		}
		empty("BuildLabels")
		repaired := false
		for _, ed := range g.Edges {
			st, err := e.ApplyMutations([]Mutation{{Op: MutDelete, From: ed.From, To: ed.To}})
			if err != nil {
				t.Fatal(err)
			}
			if st.Affected > 0 && !st.Rebuilt {
				repaired = true
				break
			}
		}
		if !repaired {
			t.Fatalf("%s: no delete took the scoped repair", profile.Name)
		}
		empty("a repair")
	}
}

// TestRelationMisses runs in BenchmarkColdBSEGQuery's shape (a 17-page pool
// over the file of graph.Power(8000) with a SegTable at lthd 20) for 128
// BSEG queries, and holds the pool's owner counters (rdb.Stats.Relations)
// to an independent count: a miss hook that maps each missed page id, at
// the miss, through the pages of every secondary index ("table.index") and
// then every table in the catalog. Each row's misses must agree, the rows'
// misses must add up to the pool's, and TOutSegs' tid index, which the
// backward search reads, must miss under a row of its own. It logs what a
// cold query pays each relation and index.
func TestRelationMisses(t *testing.T) {
	const poolPages, queries = 17, 128
	g := graph.Power(8000, 3, 2011)
	e := newTestEngine(t, g, rdb.Options{Path: filepath.Join(t.TempDir(), "cold.db"), BufferPoolPages: poolPages}, Options{CacheSize: -1})
	if _, err := e.BuildSegTable(20); err != nil {
		t.Fatal(err)
	}
	pairs := graph.RandomQueries(g, 16, 1)
	ask := func(p [2]int64) {
		if _, err := e.Query(context.Background(), QueryRequest{Source: p[0], Target: p[1], Alg: AlgBSEG}); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range pairs { // lease the scratch set and compile every shape
		ask(p)
	}
	cat := e.DB().Catalog()
	names := slices.Sorted(slices.Values(cat.Names()))
	tables := make([]*table.Table, len(names))
	for i, name := range names {
		tables[i], _ = cat.Get(name)
	}
	hooked := map[string]uint64{}
	pool := e.DB().Pool()
	pool.SetMissHook(func(id storage.PageID) {
		for _, tb := range tables {
			for _, ix := range tb.Secondary {
				if slices.Contains(ix.Tree().Pages(), id) {
					hooked[tb.Name+"."+ix.Name]++
					return
				}
			}
			if slices.Contains(tb.Pages(), id) {
				hooked[tb.Name]++
				return
			}
		}
		hooked[""]++
	})
	before := e.DB().Stats()
	for i := 0; i < queries; i++ {
		ask(pairs[i%len(pairs)])
	}
	after := e.DB().Stats()
	pool.SetMissHook(nil)
	if got := slices.Sorted(slices.Values(cat.Names())); !slices.Equal(got, names) {
		t.Fatalf("the catalog changed under the queries: %v, was %v", got, names)
	}
	if hooked[""] != 0 {
		t.Errorf("%d misses on pages no table holds", hooked[""])
	}
	var sum uint64
	rows := []string{"relation              misses/q fetches/q flushes/q"}
	for _, name := range slices.Sorted(maps.Keys(after.Relations)) {
		a, b := after.Relations[name], before.Relations[name]
		misses := a.Misses - b.Misses
		sum += misses
		if misses != hooked[name] {
			t.Errorf("%s: %d misses charged, the hook counted %d", name, misses, hooked[name])
		}
		if a.Fetches != b.Fetches {
			rows = append(rows, fmt.Sprintf("%-21s %7.1f %9.1f %9.1f", name, float64(misses)/queries,
				float64(a.Fetches-b.Fetches)/queries, float64(a.Flushes-b.Flushes)/queries))
		}
	}
	if total := after.Pool.Misses - before.Pool.Misses; sum != total || total == 0 {
		t.Errorf("the relations were charged %d misses, the pool counted %d", sum, total)
	}
	missed := func(name string) uint64 { return after.Relations[name].Misses - before.Relations[name].Misses }
	if ix := TblOutSegs + ".toutsegs_tid"; missed(ix) == 0 || missed(TblOutSegs) == 0 {
		t.Errorf("%s was charged %d misses and %s %d: want both", ix, missed(ix), TblOutSegs, missed(TblOutSegs))
	}
	t.Logf("%d queries, %d-page pool:\n%s", queries, poolPages, strings.Join(rows, "\n"))
}

// TestEdgeTableBytes: TEdges stores one row an edge pair, at its cheapest
// parallel edge's cost, under every design and through inserts that do and
// do not undercut the pair's cost; Edges() counts the pairs. Keyed on the
// unique pair, its clustered cell has no uniquifier and its tid index entry
// is (tid, fid), so at cold_bseg's graph it fits in 250 pages (329 while it
// was keyed on fid with a uniquifier and the index repeated both).
func TestEdgeTableBytes(t *testing.T) {
	e := newTestEngine(t, graph.Power(20000, 3, 2011), rdb.Options{BufferPoolPages: 128}, Options{})
	tb, _ := e.DB().Catalog().Get(TblEdges)
	if pages := len(tb.Pages()); pages > 250 {
		t.Errorf("TEdges holds %d pages after the load, want at most 250", pages)
	} else {
		t.Logf("TEdges: %d pages for %d edge pairs", pages, e.Edges())
	}

	g := graph.Random(30, 400, 5) // a multigraph: 400 edges over 870 ordered pairs
	stored := func(e *Engine) map[[2]int64]int64 {
		t.Helper()
		rows, err := e.DB().Query("SELECT fid, tid, cost FROM " + TblEdges)
		if err != nil {
			t.Fatal(err)
		}
		toExt := e.nodeOrder().toExt
		out := map[[2]int64]int64{}
		for _, r := range rows.Data {
			pair := [2]int64{toExt[r[0].I], toExt[r[1].I]}
			if _, dup := out[pair]; dup {
				t.Fatalf("pair %v is stored twice", pair)
			}
			out[pair] = r[2].I
		}
		return out
	}
	for _, strategy := range []IndexStrategy{ClusteredIndex, SecondaryIndex, NoIndex} {
		mirror := g.Clone()
		e := newTestEngine(t, g, rdb.Options{}, Options{Strategy: strategy})
		check := func(at string) {
			t.Helper()
			want := map[[2]int64]int64{}
			for _, ed := range graph.Collapse(slices.Clone(mirror.Edges)) {
				want[[2]int64{ed.From, ed.To}] = ed.Weight
			}
			if len(want) == mirror.M() {
				t.Fatalf("%v, %s: the mirror has no parallel edge", strategy, at)
			}
			if got := stored(e); !maps.Equal(got, want) || e.Edges() != len(want) {
				t.Fatalf("%v, %s: TEdges holds %d pairs, Edges() says %d; the mirror's %d pairs differ: %v",
					strategy, at, len(got), e.Edges(), len(want), got)
			}
		}
		check("after the load")
		ed := mirror.Edges[0]
		muts := []Mutation{
			{Op: MutInsert, From: ed.From, To: ed.To, Weight: 1},             // cheaper: the pair's new cost
			{Op: MutInsert, From: ed.From, To: ed.To, Weight: ed.Weight + 1}, // dearer than the pair: no write
			{Op: MutInsert, From: 0, To: 29, Weight: 40},
			{Op: MutInsert, From: 0, To: 29, Weight: 50},
		}
		for _, m := range muts {
			if err := mirror.InsertEdge(m.From, m.To, m.Weight); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.ApplyMutations(muts); err != nil {
			t.Fatal(err)
		}
		check("after inserts")
	}
}
