package labels

import (
	"context"
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

// TestBuildCoverExact is the package-level exactness check: after a build,
// the 2-hop query MIN(out(s).dist + in(t).dist) over common hubs must
// equal the true distance for every pair — and come back NULL exactly for
// the unreachable ones — on both the MERGE and UPDATE+INSERT relaxation
// paths.
func TestBuildCoverExact(t *testing.T) {
	base := graph.Random(40, 100, 7)
	g, err := graph.New(base.N+1, base.Edges) // node g.N-1 is isolated
	if err != nil {
		t.Fatal(err)
	}
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

			lbl, st, err := Build(context.Background(), runner(sess, g))
			if err != nil {
				t.Fatal(err)
			}
			if lbl.Hubs == 0 || lbl.Rows() == 0 {
				t.Fatalf("empty index: %+v", lbl)
			}
			if st.Hubs != lbl.Hubs || st.RowsOut != lbl.RowsOut || st.RowsIn != lbl.RowsIn {
				t.Fatalf("stats disagree with index: %+v vs %+v", st, lbl)
			}
			// The pruned build must stay well under the quadratic naive
			// cover (every node labeled with every hub).
			if naive := int(g.N) * lbl.Hubs * 2; lbl.Rows() >= naive {
				t.Errorf("no pruning: %d rows >= naive %d", lbl.Rows(), naive)
			}

			distQ := "SELECT MIN(a.dist + b.dist) FROM " + TblOut + " a, " + TblIn +
				" b WHERE a.nid = ? AND b.nid = ? AND a.hub = b.hub"
			for s := int64(0); s < g.N; s++ {
				for d := int64(0); d < g.N; d++ {
					if s == d {
						// Trivial pairs are answered before the index is
						// consulted (an edgeless node has no labels at all).
						continue
					}
					got, null, err := sess.QueryInt(distQ, s, d)
					if err != nil {
						t.Fatal(err)
					}
					ref := graph.MDJ(g, s, d)
					if ref.Found == null {
						t.Fatalf("s=%d t=%d: found=%v but query null=%v", s, d, ref.Found, null)
					}
					if ref.Found && got != ref.Distance {
						t.Fatalf("s=%d t=%d: label distance %d, reference %d", s, d, got, ref.Distance)
					}
				}
			}
		})
	}
}

// TestBuildEdgeless covers the degenerate graph with nodes but no edges:
// zero hubs, zero rows, and that empty cover is still exact (every s != t
// pair is unreachable).
func TestBuildEdgeless(t *testing.T) {
	g, err := graph.New(5, nil)
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
	lbl, _, err := Build(context.Background(), runner(sess, g))
	if err != nil {
		t.Fatal(err)
	}
	if lbl.Hubs != 0 || lbl.Rows() != 0 {
		t.Fatalf("edgeless graph built a non-empty index: %+v", lbl)
	}
}

// TestBuildCancellation checks that a pre-cancelled context aborts the
// build with the context error instead of running to completion.
func TestBuildCancellation(t *testing.T) {
	g := graph.Random(30, 80, 3)
	db, err := rdb.Open(rdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sess := db.Session()
	defer sess.Close()
	loadGraphTables(t, sess, g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Build(ctx, runner(sess, g)); err == nil {
		t.Fatal("cancelled build must fail")
	}
}
