package oracle

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/fem"
	"repro/internal/graph"
	"repro/internal/rdb"
	"repro/internal/sweep"
)

// loadGraphTables materializes g into bare TNodes/TEdges relations the way
// the engine's loader does, without depending on internal/core.
func loadGraphTables(t *testing.T, sess *rdb.Session, g *graph.Graph) {
	t.Helper()
	if err := runner(sess, g).Schema(context.Background()).Create(sweep.Owned(sweep.Graph)...); err != nil {
		t.Fatal(err)
	}
	for nid := int64(0); nid < g.N; nid++ {
		if _, err := sess.Exec("INSERT INTO TNodes (nid, ext) VALUES (?, ?)", nid, nid); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range graph.Collapse(slices.Clone(g.Edges)) { // one row a pair, as the loader stores it
		if _, err := sess.Exec("INSERT INTO TEdges (fid, tid, cost) VALUES (?, ?, ?)",
			e.From, e.To, e.Weight); err != nil {
			t.Fatal(err)
		}
	}
}

// runner is the sweep kernel over a bare session, the way the engine builds
// it over its own statement path; the session's profile picks the MERGE or
// UPDATE+INSERT expansion.
func runner(sess *rdb.Session, g *graph.Graph) *sweep.Runner {
	return sweep.New(sess.DB(), sess.ExecContext, sess.QueryIntContext, g.WMin(), int(16*g.N)+1024, fem.LevelOf(sess.DB().Profile()), sweep.ClusteredIndex)
}

// TestBuildDistancesExact cross-checks every TLandmark row against the
// in-memory Dijkstra: dout = dist(l, v) and din = dist(v, l) exactly, with
// the Unreached sentinel standing in for missing paths — on both the MERGE
// and the UPDATE+INSERT relaxation paths.
func TestBuildDistancesExact(t *testing.T) {
	g := graph.Random(40, 100, 7)
	for _, useMerge := range []bool{true, false} {
		name := "merge"
		profile := rdb.ProfileDBMSX
		if !useMerge {
			name = "update-insert"
			profile = rdb.ProfilePostgreSQL9
		}
		t.Run(name, func(t *testing.T) {
			db, err := rdb.Open(rdb.Options{Profile: profile})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			sess := db.Session()
			defer sess.Close()
			loadGraphTables(t, sess, g)

			orc, st, err := Build(context.Background(), runner(sess, g), Config{K: 4})
			if err != nil {
				t.Fatal(err)
			}
			if len(orc.Landmarks) != 4 {
				t.Fatalf("expected 4 landmarks, got %v", orc.Landmarks)
			}
			if orc.Rows != 4*int(g.N) {
				t.Fatalf("expected %d rows (k*|V|), got %d", 4*g.N, orc.Rows)
			}
			if st.Iterations == 0 || st.Statements == 0 {
				t.Fatalf("empty build stats: %+v", st)
			}
			rows, err := db.Query(fmt.Sprintf("SELECT lid, nid, dout, din FROM %s", TblLandmark))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows.Data {
				lid, nid, dout, din := r[0].I, r[1].I, r[2].I, r[3].I
				l := orc.Landmarks[lid]
				fwd := graph.MDJ(g, l, nid)
				want := Unreached
				if fwd.Found {
					want = fwd.Distance
				}
				if dout != want {
					t.Errorf("dout(l=%d, v=%d) = %d, want %d", l, nid, dout, want)
				}
				bwd := graph.MDJ(g, nid, l)
				want = Unreached
				if bwd.Found {
					want = bwd.Distance
				}
				if din != want {
					t.Errorf("din(l=%d, v=%d) = %d, want %d", l, nid, din, want)
				}
			}
		})
	}
}

// TestDegreeSelectionOrder: the build must pick the k
// highest-total-degree nodes.
func TestDegreeSelectionOrder(t *testing.T) {
	// A star around node 0 plus a light tail: degrees 0 >> 1 > others.
	var edges []graph.Edge
	for i := int64(1); i <= 6; i++ {
		edges = append(edges, graph.Edge{From: 0, To: i, Weight: 1})
		edges = append(edges, graph.Edge{From: i, To: 0, Weight: 1})
	}
	edges = append(edges,
		graph.Edge{From: 1, To: 2, Weight: 1},
		graph.Edge{From: 2, To: 1, Weight: 1},
		graph.Edge{From: 1, To: 3, Weight: 1})
	g, err := graph.New(8, edges) // node 7 isolated
	if err != nil {
		t.Fatal(err)
	}
	db, err := rdb.Open(rdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sess := db.Session()
	defer sess.Close()
	loadGraphTables(t, sess, g)
	orc, _, err := Build(context.Background(), runner(sess, g), Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if orc.Landmarks[0] != 0 || orc.Landmarks[1] != 1 {
		t.Fatalf("the build should pick hub 0 then 1, got %v", orc.Landmarks)
	}
}

// TestKClamp: requesting more landmarks than placeable nodes stops early
// instead of failing.
func TestKClamp(t *testing.T) {
	g, err := graph.New(3, []graph.Edge{{From: 0, To: 1, Weight: 2}, {From: 1, To: 0, Weight: 2}})
	if err != nil {
		t.Fatal(err)
	}
	db, err := rdb.Open(rdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sess := db.Session()
	defer sess.Close()
	loadGraphTables(t, sess, g)
	orc, _, err := Build(context.Background(), runner(sess, g), Config{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Only nodes 0 and 1 carry edges; node 2 never enters the ranking.
	if orc.K != 2 || len(orc.Landmarks) != 2 {
		t.Fatalf("expected 2 placeable landmarks, got %+v", orc)
	}
	// Every node still gets rows for every placed landmark.
	if orc.Rows != 2*3 {
		t.Fatalf("expected 6 rows, got %d", orc.Rows)
	}
}
