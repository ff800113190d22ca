package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/rdb"
)

// kruskalWeight computes the minimal spanning forest weight in memory
// (reference for the FEM MST). Treats each directed edge as undirected.
func kruskalWeight(g *graph.Graph) (int64, int) {
	type ue struct{ u, v, w int64 }
	var edges []ue
	for _, e := range g.Edges {
		edges = append(edges, ue{e.From, e.To, e.Weight})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].w < edges[j].w })
	parent := make([]int64, g.N)
	for i := range parent {
		parent[i] = int64(i)
	}
	var find func(int64) int64
	find = func(x int64) int64 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	var total int64
	merged := 0
	for _, e := range edges {
		ru, rv := find(e.u), find(e.v)
		if ru != rv {
			parent[ru] = rv
			total += e.w
			merged++
		}
	}
	return total, int(g.N) - merged // component count
}

// directedAsUndirected doubles every edge so FEM-MST (which expands
// out-edges) sees an undirected graph.
func directedAsUndirected(g *graph.Graph) *graph.Graph {
	var edges []graph.Edge
	for _, e := range g.Edges {
		edges = append(edges, e, graph.Edge{From: e.To, To: e.From, Weight: e.Weight})
	}
	out, err := graph.New(g.N, edges)
	if err != nil {
		panic(err)
	}
	return out
}

// TestMSTMatchesKruskal checks the forest's weight, component count and
// edges against Kruskal's, on a random graph and on one whose tree holds a
// zero-weight edge (a tree edge is any non-root's, whatever its weight).
// Every node joins the forest through exactly one F-operator, roots
// included, so the run takes one iteration per node.
func TestMSTMatchesKruskal(t *testing.T) {
	zero, err := graph.New(4, []graph.Edge{{From: 0, To: 1, Weight: 0}, {From: 1, To: 2, Weight: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Graph{directedAsUndirected(graph.Random(40, 100, 21)), directedAsUndirected(zero)} {
		e := newTestEngine(t, g, rdb.Options{}, Options{})
		res, err := e.MinimumSpanningForest()
		if err != nil {
			t.Fatal(err)
		}
		want, comps := kruskalWeight(g)
		if res.TotalWeight != want {
			t.Fatalf("n=%d: MST weight %d, Kruskal %d", g.N, res.TotalWeight, want)
		}
		if res.Components != comps {
			t.Fatalf("n=%d: components %d, want %d", g.N, res.Components, comps)
		}
		if len(res.Edges) != int(g.N)-comps {
			t.Fatalf("n=%d: edges %v, want %d of them", g.N, res.Edges, int(g.N)-comps)
		}
		if res.Iterations != int(g.N) {
			t.Fatalf("n=%d: %d iterations, want one per node", g.N, res.Iterations)
		}
		// Every reported edge must exist with that weight.
		for _, me := range res.Edges {
			found := false
			g.OutEdges(me.From, func(v, w int64) {
				if v == me.To && w == me.Weight {
					found = true
				}
			})
			if !found {
				t.Fatalf("n=%d: MST edge %v not in graph", g.N, me)
			}
		}
	}
}

// TestMSTDisconnected runs Prim's over two components, 0-1-2 and 3-4, and
// then with an isolated node 5 as well: a node no edge reaches is a root of
// its own, one more component with no edge.
func TestMSTDisconnected(t *testing.T) {
	for _, n := range []int64{5, 6} {
		for _, w01 := range []int64{2, 0} {
			edges := []graph.Edge{
				{From: 0, To: 1, Weight: w01}, {From: 1, To: 0, Weight: w01},
				{From: 1, To: 2, Weight: 3}, {From: 2, To: 1, Weight: 3},
				{From: 3, To: 4, Weight: 7}, {From: 4, To: 3, Weight: 7},
			}
			g, _ := graph.New(n, edges)
			e := newTestEngine(t, g, rdb.Options{}, Options{})
			res, err := e.MinimumSpanningForest()
			if err != nil {
				t.Fatal(err)
			}
			if res.Components != int(n)-3 || res.TotalWeight != w01+10 || len(res.Edges) != 3 {
				t.Fatalf("n=%d, w(0,1) = %d: forest wrong: %+v", n, w01, res)
			}
			for _, me := range res.Edges {
				if me.From == 5 || me.To == 5 {
					t.Fatalf("n=%d: isolated node 5 on edge %v", n, me)
				}
			}
		}
	}
}

func TestQuickMSTWeight(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int64(10 + rng.Intn(25))
		g := directedAsUndirected(graph.Random(n, int(n)*2, seed))
		db, err := rdb.Open(rdb.Options{})
		if err != nil {
			return false
		}
		defer db.Close()
		e := NewEngine(db, Options{})
		if err := e.LoadGraph(g); err != nil {
			return false
		}
		res, err := e.MinimumSpanningForest()
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		want, _ := kruskalWeight(g)
		return res.TotalWeight == want
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestMSTOnPostgresProfile(t *testing.T) {
	g := directedAsUndirected(graph.Random(25, 60, 5))
	e := newTestEngine(t, g, rdb.Options{Profile: rdb.ProfilePostgreSQL9}, Options{})
	res, err := e.MinimumSpanningForest()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := kruskalWeight(g)
	if res.TotalWeight != want {
		t.Fatalf("postgres-profile MST weight %d, want %d", res.TotalWeight, want)
	}
}

func TestReachable(t *testing.T) {
	edges := []graph.Edge{
		{From: 0, To: 1, Weight: 1},
		{From: 1, To: 2, Weight: 1},
		{From: 2, To: 3, Weight: 1},
		{From: 4, To: 0, Weight: 1}, // 4 reaches all; nothing reaches 4
	}
	g, _ := graph.New(5, edges)
	e := newTestEngine(t, g, rdb.Options{}, Options{})
	r, err := e.Reachable(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Reachable || r.Hops != 3 {
		t.Fatalf("0->3: %+v", r)
	}
	r, err = e.Reachable(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Reachable {
		t.Fatalf("0->4 must be unreachable: %+v", r)
	}
	r, err = e.Reachable(2, 2)
	if err != nil || !r.Reachable || r.Hops != 0 {
		t.Fatalf("self: %+v %v", r, err)
	}
}

func TestQuickReachability(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int64(10 + rng.Intn(30))
		g := graph.Random(n, int(n)*2, seed)
		db, err := rdb.Open(rdb.Options{})
		if err != nil {
			return false
		}
		defer db.Close()
		e := NewEngine(db, Options{})
		if err := e.LoadGraph(g); err != nil {
			return false
		}
		for trial := 0; trial < 4; trial++ {
			s, tt := rng.Int63n(n), rng.Int63n(n)
			ref := graph.MDJ(g, s, tt)
			r, err := e.Reachable(s, tt)
			if err != nil || r.Reachable != ref.Found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// segTableSnapshot reads (fid,tid)->cost maps for comparison, in external
// ids: engines loaded from different graphs number their nodes differently.
func segTableSnapshot(t *testing.T, e *Engine, tbl string) map[[2]int64]int64 {
	t.Helper()
	rows, err := e.DB().Query("SELECT fid, tid, cost FROM " + tbl)
	if err != nil {
		t.Fatal(err)
	}
	toExt := e.nodeOrder().toExt
	out := make(map[[2]int64]int64, rows.Len())
	for _, r := range rows.Data {
		out[[2]int64{toExt[r[0].I], toExt[r[1].I]}] = r[2].I
	}
	return out
}

// sameSegTable fails t unless a's TOutSegs holds b's (fid, tid, cost)
// rows, no more and no fewer; pids may differ between equal-cost paths.
func sameSegTable(t *testing.T, a, b *Engine) {
	t.Helper()
	got, want := segTableSnapshot(t, a, TblOutSegs), segTableSnapshot(t, b, TblOutSegs)
	for pair, w := range want {
		if g, ok := got[pair]; !ok || g != w {
			t.Fatalf("pair %v costs %d (present %v), the other engine's %d", pair, g, ok, w)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d rows, the other engine's %d", len(got), len(want))
	}
}

// TestIncrementalSegMaintenance: inserting edges one by one must leave the
// SegTable with exactly the distances a from-scratch rebuild computes, and
// BSEG exact on it.
func TestIncrementalSegMaintenance(t *testing.T) {
	m := newModel(t, 77, rdb.Options{}, Options{})
	m.load(graph.Random(30, 60, 13))
	m.buildSeg(20)
	for i := 0; i < 15; i++ {
		if u, v := m.rnd.Int63n(m.mirror.N), m.rnd.Int63n(m.mirror.N); u != v {
			m.apply(Mutation{Op: MutInsert, From: u, To: v, Weight: 1 + m.rnd.Int63n(30)})
		}
	}
	m.sameAsRebuild()
	m.query(m.draw(6))
}

// TestIncrementalMaintenancePostgresProfile covers the merge-free path.
func TestIncrementalMaintenancePostgresProfile(t *testing.T) {
	m := newModel(t, 9, rdb.Options{Profile: rdb.ProfilePostgreSQL9}, Options{})
	m.load(graph.Random(20, 40, 9))
	m.buildSeg(15)
	m.apply(Mutation{Op: MutInsert, From: 0, To: 7, Weight: 2})
	m.sameAsRebuild()
}

// TestInsertEdgeWithoutSegTable: plain edge insertion works pre-index.
func TestInsertEdgeWithoutSegTable(t *testing.T) {
	g := graph.Random(10, 20, 4)
	e := newTestEngine(t, g, rdb.Options{}, Options{})
	before := e.Edges()
	if _, err := e.InsertEdge(0, 5, 3); err != nil {
		t.Fatal(err)
	}
	if e.Edges() != before+1 {
		t.Fatalf("edge count: %d", e.Edges())
	}
	if _, err := e.InsertEdge(0, 5, 0); err == nil {
		t.Fatal("zero weight must fail")
	}
	if _, err := e.InsertEdge(0, 99, 1); err == nil {
		t.Fatal("out of range must fail")
	}
}
