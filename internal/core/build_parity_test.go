package core

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/rdb"
)

// TestBuildParity pins the work the three index builds do on one fixed
// graph, default profile. The values were recorded before the builds
// shared internal/sweep: a change to the sweep that moves any of them
// changed what the builds compute or how many rounds they take, not just
// where the code lives. Oracle and label statement counts are not pinned —
// they depend on which working tables a build finds already created.
func TestBuildParity(t *testing.T) {
	g := graph.Power(400, 3, 1)

	t.Run("segtable", func(t *testing.T) {
		e := newTestEngine(t, g, rdb.Options{}, Options{})
		st, err := e.BuildSegTable(20)
		if err != nil {
			t.Fatal(err)
		}
		if st.OutSegs != 901 || st.InSegs != 901 || st.Iterations != 42 || st.Statements != 144 {
			t.Errorf("BuildSegTable(20) = %v, want out=901 in=901 iters=42 stmts=144", st)
		}
	})

	for _, tc := range []struct {
		cfg       oracle.Config
		landmarks []int64
		iters     int
	}{
		{oracle.Config{K: 4}, []int64{1, 3, 2, 12}, 1939},
		{oracle.Config{K: 4, Strategy: oracle.Farthest}, []int64{1, 185, 248, 390}, 1975},
	} {
		t.Run("oracle-"+tc.cfg.Strategy.String(), func(t *testing.T) {
			e := newTestEngine(t, g, rdb.Options{}, Options{})
			st, err := e.BuildOracle(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(st.Landmarks, tc.landmarks) || st.Rows != 1600 || st.Iterations != tc.iters {
				t.Errorf("BuildOracle(%+v) = %v landmarks %v, want landmarks %v rows=1600 iters=%d",
					tc.cfg, st, st.Landmarks, tc.landmarks, tc.iters)
			}
			t.Logf("statements: %d", st.Statements)
		})
	}

	t.Run("labels", func(t *testing.T) {
		e := newTestEngine(t, g, rdb.Options{}, Options{})
		st, err := e.BuildLabels()
		if err != nil {
			t.Fatal(err)
		}
		if st.Hubs != 400 || st.RowsOut != 1687 || st.RowsIn != 1687 || st.Pruned != 822 || st.Iterations != 3690 {
			t.Errorf("BuildLabels = %v, want hubs=400 rows=1687+1687 pruned=822 iters=3690", st)
		}
		t.Logf("statements: %d", st.Statements)
	})

	// The catalog: a SegTable-only engine carries the graph, the search
	// scratch set, the two segment tables and the sweep's working set; the
	// oracle and the labels add only their own relations and the shared
	// degree ranking — no private copy of the working set.
	t.Run("catalog", func(t *testing.T) {
		e := newTestEngine(t, g, rdb.Options{}, Options{})
		if _, err := e.BuildSegTable(20); err != nil {
			t.Fatal(err)
		}
		segOnly := []string{"tedges", "texpand", "texpcost", "tinsegs", "tnodes", "toutsegs", "tseg", "tvisited"}
		if got := catalogNames(e); !reflect.DeepEqual(got, segOnly) {
			t.Errorf("after BuildSegTable: catalog %v, want %v", got, segOnly)
		}
		if _, err := e.BuildOracle(oracle.Config{K: 2, Strategy: oracle.Farthest}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.BuildLabels(); err != nil {
			t.Fatal(err)
		}
		all := []string{"tdeg", "tdegin", "tedges", "texpand", "texpcost", "tinsegs", "tlabelin", "tlabelout",
			"tlandmark", "tlblfrom", "tlblto", "tlmkfar", "tnodes", "toutsegs", "tseg", "tvisited"}
		if got := catalogNames(e); !reflect.DeepEqual(got, all) {
			t.Errorf("after all three builds: catalog %v, want %v", got, all)
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
		if _, err := e.InsertEdge(5, 300, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := e.DeleteEdge(5, 300); err != nil {
			t.Fatal(err)
		}
		mutated := []string{"tedges", "texpand", "texpcost", "tinsegs", "tmutsrc", "tmuttouch", "tnodes",
			"toutsegs", "tseg", "tsegexpand", "tsegexpcost", "tsegmaint", "tvisited"}
		if got := catalogNames(e); !reflect.DeepEqual(got, mutated) {
			t.Errorf("after the mutations: catalog %v, want %v", got, mutated)
		}
		if err := e.LoadGraph(g); err != nil {
			t.Fatal(err)
		}
		loaded := []string{"tedges", "texpand", "texpcost", "tnodes", "tvisited"}
		if got := catalogNames(e); !reflect.DeepEqual(got, loaded) {
			t.Errorf("after the reload: catalog %v, want %v", got, loaded)
		}
	})
}
