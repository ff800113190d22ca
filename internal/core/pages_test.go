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
// growing its database file. Each round reloads the graph (DROP of every
// relation), runs four concurrent BSDJ searchers whose scratch sets are
// dropped on release, rebuilds the SegTable and the oracle, answers BSDJ,
// BSEG and ALT pairs, and applies a mutation batch that takes the rebuild
// fallback. After the second round the file is at its high-water mark, and
// after every round each page is in exactly one table or on the free list;
// no Unpin ever finds its page unpinned.
// The searchers run before the builds on purpose: how many of their sets
// are live at once depends on the scheduler, and with the index tables
// still on the free list their peak stays below the builds' deterministic
// one, so the high-water mark does not depend on it.
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
	var pages [6]int
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
		pages[round] = e.DB().Pool().Disk().NumPages()
	}
	if pages[2] != pages[5] {
		t.Fatalf("the file kept growing: %d pages after round 2, %d after round 5 (per round: %v)", pages[2], pages[5], pages[1:])
	}
	if st := e.DB().Stats().Pool; st.Recycled == 0 || st.Leaked != 0 || st.BadUnpins != 0 {
		t.Fatalf("pool: %+v", st)
	}
	t.Logf("pages after each round: %v", pages[1:])
}

// TestRelationMisses runs in BenchmarkColdBSEGQuery's shape (a 17-page pool
// over the file of graph.Power(8000) with a SegTable at lthd 20) for 128
// BSEG queries, and holds the pool's owner counters (rdb.Stats.Relations)
// to an independent count: a miss hook that maps each missed page id, at
// the miss, through the Pages() of every table in the catalog. Each
// relation's misses must agree, and the relations' misses must add up to
// the pool's. It logs what a cold query pays each relation.
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
	rows := []string{"relation   misses/q fetches/q flushes/q"}
	for _, name := range slices.Sorted(maps.Keys(after.Relations)) {
		a, b := after.Relations[name], before.Relations[name]
		misses := a.Misses - b.Misses
		sum += misses
		if misses != hooked[name] {
			t.Errorf("%s: %d misses charged, the hook counted %d", name, misses, hooked[name])
		}
		if a.Fetches != b.Fetches {
			rows = append(rows, fmt.Sprintf("%-12s %7.1f %9.1f %9.1f", name, float64(misses)/queries,
				float64(a.Fetches-b.Fetches)/queries, float64(a.Flushes-b.Flushes)/queries))
		}
	}
	if total := after.Pool.Misses - before.Pool.Misses; sum != total || total == 0 {
		t.Errorf("the relations were charged %d misses, the pool counted %d", sum, total)
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
