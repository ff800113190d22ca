package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/rdb"
)

// TestBuildParity pins the work the three index builds do on one fixed
// graph, default profile. The values were recorded before the builds
// shared internal/sweep: a change to the sweep that moves any of them
// changed what the builds compute or how many rounds they take, not just
// where the code lives. Every subtest builds on a fresh engine, so the
// statement counts are deterministic too: a round is F, E+M and nothing
// else (no statement un-marks the frontier).
func TestBuildParity(t *testing.T) {
	g := graph.Power(400, 3, 1)

	t.Run("segtable", func(t *testing.T) {
		e := newTestEngine(t, g, rdb.Options{}, Options{})
		st, err := e.BuildSegTable(20)
		if err != nil {
			t.Fatal(err)
		}
		if st.OutSegs != 901 || st.InSegs != 901 || st.Iterations != 21 || st.Statements != 53 {
			t.Errorf("BuildSegTable(20) = %v, want out=901 in=901 iters=21 stmts=53", st)
		}
		if err := e.checkSegTable(); err != nil {
			t.Error(err)
		}
	})

	t.Run("oracle-degree", func(t *testing.T) {
		e := newTestEngine(t, g, rdb.Options{}, Options{})
		st, err := e.BuildOracle(oracle.Config{K: 4})
		if err != nil {
			t.Fatal(err)
		}
		if want := []int64{1, 3, 2, 12}; !reflect.DeepEqual(st.Landmarks, want) || st.Rows != 1600 ||
			st.Iterations != 1939 || st.Statements != 3938 {
			t.Errorf("BuildOracle(K=4) = %v landmarks %v, want landmarks %v rows=1600 iters=1939 stmts=3938",
				st, st.Landmarks, want)
		}
	})

	t.Run("labels", func(t *testing.T) {
		e := newTestEngine(t, g, rdb.Options{}, Options{})
		st, err := e.BuildLabels()
		if err != nil {
			t.Fatal(err)
		}
		if st.Hubs != 400 || st.RowsOut != 1687 || st.RowsIn != 1687 || st.Pruned != 822 || st.Iterations != 3690 ||
			st.Statements != 15093 {
			t.Errorf("BuildLabels = %v, want hubs=400 rows=1687+1687 pruned=822 iters=3690 stmts=15093", st)
		}
	})

	// The catalog: a SegTable-only engine carries the graph, the two
	// segment tables and the sweep's working set (searches lease theirs); the
	// oracle and the labels add only their own relations and the shared
	// degree ranking — no private copy of the working set.
	t.Run("catalog", func(t *testing.T) {
		e := newTestEngine(t, g, rdb.Options{}, Options{})
		if _, err := e.BuildSegTable(20); err != nil {
			t.Fatal(err)
		}
		if err := e.checkSegTable(); err != nil {
			t.Error(err)
		}
		segOnly := []string{"tedges", "tnodes", "toutsegs", "tseg"}
		if got := catalogNames(e); !reflect.DeepEqual(got, segOnly) {
			t.Errorf("after BuildSegTable: catalog %v, want %v", got, segOnly)
		}
		if _, err := e.BuildOracle(oracle.Config{K: 2}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.BuildLabels(); err != nil {
			t.Fatal(err)
		}
		all := []string{"tdeg", "tdegin", "tedges", "tlabelin", "tlabelout",
			"tlandmark", "tlblfrom", "tlblto", "tnodes", "toutsegs", "tseg"}
		if got := catalogNames(e); !reflect.DeepEqual(got, all) {
			t.Errorf("after all three builds: catalog %v, want %v", got, all)
		}
		// The oracle and the labels sweep through the SegTable's working set,
		// never its tables.
		if err := e.checkSegTable(); err != nil {
			t.Errorf("after all three builds: %v", err)
		}
	})

	// A reload starts from a clean catalog, whatever the engine created
	// lazily since the last one: below the MERGE level a mutation leaves
	// the maintenance and sweep staging tables and the repair's touch set
	// behind, and none of them may survive LoadGraph.
	t.Run("catalog-reload", func(t *testing.T) {
		e := newTestEngine(t, g, rdb.Options{Profile: rdb.ProfilePostgreSQL9}, Options{})
		if _, err := e.BuildSegTable(20); err != nil {
			t.Fatal(err)
		}
		if err := e.checkSegTable(); err != nil {
			t.Error(err)
		}
		if _, err := e.InsertEdge(5, 300, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := e.DeleteEdge(5, 300); err != nil {
			t.Fatal(err)
		}
		mutated := []string{"tedges", "tmutsrc", "tmuttouch", "tnodes",
			"toutsegs", "tseg", "tsegexpand", "tsegexpcost", "tsegmaint"}
		if got := catalogNames(e); !reflect.DeepEqual(got, mutated) {
			t.Errorf("after the mutations: catalog %v, want %v", got, mutated)
		}
		if err := e.checkSegTable(); err != nil {
			t.Errorf("after the mutations: %v", err)
		}
		if err := e.LoadGraph(g); err != nil {
			t.Fatal(err)
		}
		loaded := []string{"tedges", "tnodes"}
		if got := catalogNames(e); !reflect.DeepEqual(got, loaded) {
			t.Errorf("after the reload: catalog %v, want %v", got, loaded)
		}
	})
}

// TestBatchedBuildMatchesOneBatch: a buffer pool that holds a few dozen
// sources' working set at a time splits the SegTable sweep into batches,
// each merged into TOutSegs before the next one sweeps over its direct
// hops. The table must come out as the default pool's one-batch build
// leaves it, row for row and pid included, its tid index agreeing
// (checkSegTable), on every physical design, at thresholds that keep
// segments short and that let them span many hops.
func TestBatchedBuildMatchesOneBatch(t *testing.T) {
	rows := func(t *testing.T, e *Engine) [][4]int64 {
		t.Helper()
		res, err := e.DB().Query("SELECT fid, tid, pid, cost FROM " + TblOutSegs)
		if err != nil {
			t.Fatal(err)
		}
		out := make([][4]int64, 0, res.Len())
		for _, r := range res.Data {
			out = append(out, [4]int64{r[0].I, r[1].I, r[2].I, r[3].I})
		}
		slices.SortFunc(out, func(a, b [4]int64) int { return slices.Compare(a[:], b[:]) })
		return out
	}
	// An 8-page pool holds a batch of a few dozen sources. Longer segments
	// mean more rows per source, so more batches on a smaller graph, and
	// more rounds per batch: n shrinks as lthd grows, to keep every case
	// above eight batches and the NoIndex builds (a heap scan of the
	// segment table per round) short.
	for _, tc := range []struct {
		lthd int64
		n    int64
	}{{5, 1000}, {20, 1000}, {60, 400}} {
		lthd := tc.lthd
		for _, gc := range []struct {
			name string
			g    *graph.Graph
		}{{"power", graph.Power(tc.n, 3, 7)}, {"random", graph.Random(tc.n*3/5, int(tc.n*12/5), 7)}} {
			for _, strategy := range []IndexStrategy{ClusteredIndex, SecondaryIndex, NoIndex} {
				t.Run(fmt.Sprintf("%s/lthd=%d/%v", gc.name, lthd, strategy), func(t *testing.T) {
					t.Parallel()
					var stats [2]*SegTableStats
					var tables [2][][4]int64
					for i, pool := range []int{8, 0} { // 0: the default pool
						e := newTestEngine(t, gc.g, rdb.Options{BufferPoolPages: pool}, Options{Strategy: strategy})
						st, err := e.BuildSegTable(lthd)
						if err != nil {
							t.Fatal(err)
						}
						if err := e.checkSegTable(); err != nil {
							t.Fatalf("%d-page pool: %v", pool, err)
						}
						stats[i] = st
						tables[i] = rows(t, e)
					}
					if stats[0].Batches < 8 || stats[1].Batches != 1 {
						t.Fatalf("batches %d on the small pool and %d on the default one, want >= 8 and 1", stats[0].Batches, stats[1].Batches)
					}
					if !slices.Equal(tables[0], tables[1]) {
						t.Errorf("%d rows in %d batches differ from %d rows in one", len(tables[0]), stats[0].Batches, len(tables[1]))
					}
					t.Logf("batches %d: %v", stats[0].Batches, stats[0])
				})
			}
		}
	}
}

// TestBatchSizesHoldSteady: on an 8-page pool the build sizes every batch
// but the first from the rows per source the one before it left, and the
// first from the fold's direct hops within lthd, so at a threshold where
// every source reaches about as many rows the batches before the last stay
// within a factor of two of each other. Sized from the pages TSeg left,
// power/lthd=5 swung 44 → 233 sources (5.3×). (At lthd 20 and 60 the rows
// per source themselves vary along the node order, and the batches follow
// them.)
func TestBatchSizesHoldSteady(t *testing.T) {
	for _, gc := range []struct {
		name string
		g    *graph.Graph
	}{{"power", graph.Power(1000, 3, 7)}, {"random", graph.Random(600, 2400, 7)}} {
		t.Run(gc.name, func(t *testing.T) {
			e := newTestEngine(t, gc.g, rdb.Options{BufferPoolPages: 8}, Options{})
			st, err := e.BuildSegTable(5)
			if err != nil {
				t.Fatal(err)
			}
			if st.Batches != len(st.BatchSources) || st.Batches < 5 {
				t.Fatalf("batches %d, sources %v: want at least five", st.Batches, st.BatchSources)
			}
			full := st.BatchSources[:st.Batches-1]
			if lo, hi := slices.Min(full), slices.Max(full); hi > 2*lo {
				t.Errorf("sources per batch %v: %d to %d, more than a factor of two", st.BatchSources, lo, hi)
			}
			t.Logf("sources per batch %v", st.BatchSources)
		})
	}
}

// TestSegTableFill: a build leaves the leaves of TOutSegs and of its tid
// index at least 90% full on average — each batch's merge splits the
// leaves its segments land in, between the fold's direct hops, and the
// build packs the batch's range of the table, and the index once after the
// last batch — on both graph families, at thresholds that keep segments
// short and that let them span many hops, built in one batch or, on an
// 8-page pool, in many. Unpacked, the splits left them 57–68% full. A
// churn of TestMutationDifferential's size then lands the repairs' inserts
// at random in the one-batch builds; the fill it leaves is logged, not
// bounded.
func TestSegTableFill(t *testing.T) {
	fill := func(t *testing.T, e *Engine, name string) float64 {
		t.Helper()
		tbl, _ := e.db.Catalog().Get(TblOutSegs)
		tr := tbl.Clustered().Tree()
		if name != TblOutSegs {
			tr = segIndex(e).Tree()
		}
		levels, err := tr.LevelFills()
		if err != nil {
			t.Fatal(err)
		}
		leaves, sum := levels[len(levels)-1], 0.0
		for _, f := range leaves {
			sum += f
		}
		return sum / float64(len(leaves))
	}
	for _, gc := range []struct {
		name string
		g    *graph.Graph
	}{{"power", graph.Power(1000, 3, 7)}, {"random", graph.Random(600, 2400, 7)}} {
		for _, lthd := range []int64{5, 20} {
			for _, pool := range []int{0, 8} { // 0: the default pool
				t.Run(fmt.Sprintf("%s/lthd=%d/pool=%d", gc.name, lthd, pool), func(t *testing.T) {
					t.Parallel()
					e := newTestEngine(t, gc.g, rdb.Options{BufferPoolPages: pool}, Options{})
					st, err := e.BuildSegTable(lthd)
					if err != nil {
						t.Fatal(err)
					}
					var fills []string
					for _, tbl := range []string{TblOutSegs, segIndex(e).Name} {
						f := fill(t, e, tbl)
						if f < 0.9 {
							t.Errorf("%s: leaves %.1f%% full after a build in %d batches, want at least 90%%", tbl, 100*f, st.Batches)
						}
						fills = append(fills, fmt.Sprintf("%s %.1f%%", tbl, 100*f))
					}
					if pool != 0 { // the churn's fill does not depend on how the build batched
						t.Logf("%d batches: %s", st.Batches, strings.Join(fills, ", "))
						return
					}
					mirror, rnd := gc.g.Clone(), rand.New(rand.NewSource(lthd))
					for applied := 0; applied < 1000; {
						muts := make([]Mutation, min(1+rnd.Intn(8), 1000-applied))
						for i := range muts {
							muts[i] = randomMutation(t, rnd, mirror, mirror.N)
						}
						if _, err := e.ApplyMutations(muts); err != nil {
							t.Fatal(err)
						}
						applied += len(muts)
					}
					t.Logf("%d batches: %s; after 1000 mutations %s %.1f%%, %s %.1f%%", st.Batches, strings.Join(fills, ", "),
						TblOutSegs, 100*fill(t, e, TblOutSegs), segIndex(e).Name, 100*fill(t, e, segIndex(e).Name))
				})
			}
		}
	}
}
