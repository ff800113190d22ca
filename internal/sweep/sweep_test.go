package sweep

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/fem"
	"repro/internal/graph"
	"repro/internal/rdb"
)

// loadGraphTables materializes g into bare TNodes/TEdges relations the way
// the engine's loader does, without depending on internal/core.
func loadGraphTables(t *testing.T, sess *rdb.Session, g *graph.Graph) {
	t.Helper()
	schema := Schema{Catalog: sess.DB().Catalog(), Exec: func(q string) error {
		_, err := sess.Exec(q)
		return err
	}}
	if err := schema.Create(Owned(Graph)...); err != nil {
		t.Fatal(err)
	}
	for nid := int64(0); nid < g.N; nid++ {
		if _, err := sess.Exec("INSERT INTO TNodes (nid) VALUES (?)", nid); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range g.Edges {
		if _, err := sess.Exec("INSERT INTO TEdges (fid, tid, cost) VALUES (?, ?, ?)",
			e.From, e.To, e.Weight); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRunDifferential checks the working set a sweep leaves behind against
// the in-memory one-to-all Dijkstra, on every expansion profile, in both
// directions, for the two ways the builds call it: one seed with no bound
// (oracle, labels) and every node seeded under a bound (SegTable). Every
// (src, nid) pair within the bound must have exactly one row carrying the
// true distance, no row may exceed the bound, and every par must be a real
// neighbour on a shortest path: dist[par] + w(par, nid) = dist[nid].
func TestRunDifferential(t *testing.T) {
	base := graph.Random(40, 100, 7)
	withIsolated, err := graph.New(base.N+1, base.Edges) // node N-1 has no edge
	if err != nil {
		t.Fatal(err)
	}
	profiles := []struct {
		name        string
		profile     rdb.Profile
		traditional bool
	}{
		{"merge", rdb.ProfileDBMSX, false},
		{"update-insert", rdb.ProfilePostgreSQL9, false},
		{"no-window", rdb.ProfileDBMSX, true},
	}
	for _, g := range []*graph.Graph{base, withIsolated, graph.Random(30, 80, 3)} {
		for _, pr := range profiles {
			db, err := rdb.Open(rdb.Options{Profile: pr.profile})
			if err != nil {
				t.Fatal(err)
			}
			sess := db.Session()
			loadGraphTables(t, sess, g)
			r := New(db, sess.ExecContext, sess.QueryIntContext, g.WMin(), int(16*g.N)+1024, fem.LevelOf(pr.profile, pr.traditional), ClusteredIndex)
			for _, forward := range []bool{true, false} {
				for _, tc := range []struct {
					name  string
					seed  Query
					srcs  []int64
					bound int64
				}{
					{"one-seed", One(3), []int64{3}, NoBound},
					{"all-seeds", Q(TblNodes), allNodes(g), 60}, // weights are 1..100: some pairs in, most out
				} {
					name := fmt.Sprintf("n%d/%s/forward=%v/%s", g.N, pr.name, forward, tc.name)
					iters, pruned, err := r.Run(context.Background(), forward, tc.bound, tc.seed, Query{})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if iters == 0 || pruned != 0 {
						t.Errorf("%s: iters=%d pruned=%d", name, iters, pruned)
					}
					checkWork(t, name, db, g, forward, tc.srcs, tc.bound)
				}
			}
			sess.Close()
			db.Close()
		}
	}
}

func allNodes(g *graph.Graph) []int64 {
	out := make([]int64, g.N)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// checkWork compares TblWork with graph.OneToAll from every source.
func checkWork(t *testing.T, name string, db *rdb.DB, g *graph.Graph, forward bool, srcs []int64, bound int64) {
	t.Helper()
	rows, err := db.Query("SELECT src, nid, dist, par FROM " + TblWork)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int64][]int64, len(srcs))
	expect := 0
	for _, s := range srcs {
		dist, _ := graph.OneToAll(g, s, forward)
		want[s] = dist
		for _, d := range dist {
			if d <= bound && d < graph.Infinity {
				expect++
			}
		}
	}
	if rows.Len() != expect {
		t.Errorf("%s: %d rows, want %d (one per pair within the bound)", name, rows.Len(), expect)
	}
	for _, row := range rows.Data {
		src, nid, dist, par := row[0].I, row[1].I, row[2].I, row[3].I
		ref, ok := want[src]
		if !ok {
			t.Fatalf("%s: row for unseeded source %d", name, src)
		}
		if dist != ref[nid] || dist > bound {
			t.Errorf("%s: dist(%d, %d) = %d, want %d (bound %d)", name, src, nid, dist, ref[nid], bound)
		}
		if nid == src {
			if par != src {
				t.Errorf("%s: seed row (%d, %d) has par %d", name, src, nid, par)
			}
			continue
		}
		// The last hop: par -> nid forward, nid -> par backward.
		w := int64(-1)
		visit := func(v, ew int64) {
			if v == nid && (w < 0 || ew < w) {
				w = ew
			}
		}
		if forward {
			g.OutEdges(par, visit)
		} else {
			g.InEdges(par, visit)
		}
		if w < 0 || ref[par]+w != dist {
			t.Errorf("%s: par(%d, %d) = %d is no shortest-path neighbour (dist[par]=%d, w=%d, dist=%d)",
				name, src, nid, par, ref[par], w, dist)
		}
	}
}

// TestGoldenMerge pins the sweep's default-level statement to the bytes the
// package's own rendering produced before internal/fem replaced it (PR 16's
// renderDir): one fused MERGE per round, in either direction.
func TestGoldenMerge(t *testing.T) {
	for _, tc := range []struct {
		forward bool
		want    string
	}{
		{true, "MERGE INTO TSeg AS target USING (SELECT src, nid, par, cost FROM (SELECT q.src, out.tid, q.nid, out.cost + q.dist, ROW_NUMBER() OVER (PARTITION BY q.src, out.tid ORDER BY out.cost + q.dist) FROM TSeg q, TEdges out WHERE q.nid = out.fid AND q.f = 2 AND out.cost + q.dist <= ?) tmp (src, nid, par, cost, rn) WHERE rn = 1) AS source (src, nid, par, cost) ON (target.src = source.src AND target.nid = source.nid) WHEN MATCHED AND target.dist > source.cost THEN UPDATE SET dist = source.cost, par = source.par, f = 0 WHEN NOT MATCHED THEN INSERT (src, nid, dist, par, f) VALUES (source.src, source.nid, source.cost, source.par, 0)"},
		{false, "MERGE INTO TSeg AS target USING (SELECT src, nid, par, cost FROM (SELECT q.src, out.fid, q.nid, out.cost + q.dist, ROW_NUMBER() OVER (PARTITION BY q.src, out.fid ORDER BY out.cost + q.dist) FROM TSeg q, TEdges out WHERE q.nid = out.tid AND q.f = 2 AND out.cost + q.dist <= ?) tmp (src, nid, par, cost, rn) WHERE rn = 1) AS source (src, nid, par, cost) ON (target.src = source.src AND target.nid = source.nid) WHEN MATCHED AND target.dist > source.cost THEN UPDATE SET dist = source.cost, par = source.par, f = 0 WHEN NOT MATCHED THEN INSERT (src, nid, dist, par, f) VALUES (source.src, source.nid, source.cost, source.par, 0)"},
	} {
		got := round(fem.MergeWindow, tc.forward)
		if len(got) != 1 || got[0].Text != tc.want {
			t.Errorf("forward=%v:\n got  %v\n want %s", tc.forward, got, tc.want)
		}
	}
}
