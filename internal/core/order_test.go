package core

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/rdb"
)

// TestNodeOrderInvisible: the engine numbers nodes in its own order and no
// caller can tell. π(G) is graph.Power(300) with its ids shuffled by a random
// permutation π; for every algorithm the answer to (π(s), π(t)) has G's
// distance at (s, t) and is a walk of π(G), the landmark interval brackets
// it, reachability agrees to the hop, the spanning forest is made of π(G)'s
// edges and the degree landmarks are π(G)'s best-connected nodes. The check
// runs again after a mutation batch given in external ids, after Snapshot →
// Close → Hydrate, and after a hydration that replays a WAL suffix.
func TestNodeOrderInvisible(t *testing.T) {
	mirror := graph.Power(300, 3, 7) // G, mutated along with the engine
	rnd := rand.New(rand.NewSource(1))
	pi := rnd.Perm(int(mirror.N))
	permute := func(g *graph.Graph) *graph.Graph {
		edges := make([]graph.Edge, len(g.Edges))
		for i, ed := range g.Edges {
			edges[i] = graph.Edge{From: int64(pi[ed.From]), To: int64(pi[ed.To]), Weight: ed.Weight}
		}
		pg, err := graph.New(g.N, edges)
		if err != nil {
			t.Fatal(err)
		}
		return pg
	}
	pairs := graph.RandomQueries(mirror, 10, 3)
	ctx := context.Background()
	check := func(stage string, e *Engine) {
		pg := permute(mirror)
		unit := make([]graph.Edge, len(mirror.Edges)) // its distances are Reachable's hops
		for i, ed := range mirror.Edges {
			unit[i] = graph.Edge{From: ed.From, To: ed.To, Weight: 1}
		}
		hops, err := graph.New(mirror.N, unit)
		if err != nil {
			t.Fatal(err)
		}
		algs := []Algorithm{AlgAuto, AlgDJ, AlgBDJ, AlgBSDJ, AlgBBFS, AlgBSEG}
		if e.Oracle() != nil {
			algs = append(algs, AlgALT)
		}
		if e.Labels() != nil {
			algs = append(algs, AlgLabel)
		}
		for _, p := range pairs {
			s, tt := int64(pi[p[0]]), int64(pi[p[1]])
			want := graph.MDJ(mirror, p[0], p[1])
			for _, alg := range algs {
				res, err := e.Query(ctx, QueryRequest{Source: s, Target: tt, Alg: alg})
				if err != nil {
					t.Fatalf("%s: %v (%d,%d): %v", stage, alg, s, tt, err)
				}
				if res.Found != want.Found || res.Distance != want.Distance {
					t.Fatalf("%s: %v (%d,%d): found %v at %d, G has %v at %d", stage, alg, s, tt, res.Found, res.Distance, want.Found, want.Distance)
				}
				checkPath(t, pg, alg, s, tt, res.Path)
			}
			if e.Oracle() != nil {
				iv, err := e.DistanceInterval(ctx, s, tt)
				if err != nil || iv.Lower > want.Distance || iv.Upper < want.Distance {
					t.Fatalf("%s: interval (%d,%d) = %+v (%v), distance %d", stage, s, tt, iv, err, want.Distance)
				}
			}
			r, err := e.Reachable(s, tt)
			if h := graph.MDJ(hops, p[0], p[1]); err != nil || r.Reachable != h.Found || int64(r.Hops) != h.Distance {
				t.Fatalf("%s: Reachable(%d,%d) = %+v (%v), G says %v at %d hops", stage, s, tt, r, err, h.Found, h.Distance)
			}
		}
		mst, err := e.MinimumSpanningForest()
		if err != nil {
			t.Fatal(err)
		}
		for _, ed := range mst.Edges {
			ok := false
			pg.OutEdges(ed.From, func(v, w int64) { ok = ok || v == ed.To && w == ed.Weight })
			if !ok {
				t.Fatalf("%s: spanning forest edge %+v is no edge of π(G)", stage, ed)
			}
		}
	}
	// randomBatch draws mutations on the mirror and returns them in π's ids.
	randomBatch := func() []Mutation {
		muts := make([]Mutation, 6)
		for i := range muts {
			m := randomMutation(t, rnd, mirror, mirror.N)
			m.From, m.To = int64(pi[m.From]), int64(pi[m.To])
			muts[i] = m
		}
		return muts
	}

	dir := t.TempDir()
	e := newTestEngine(t, permute(mirror), rdb.Options{}, Options{DataDir: dir, CacheSize: -1})
	if _, err := e.BuildSegTable(20); err != nil {
		t.Fatal(err)
	}
	st, err := e.BuildOracle(oracle.Config{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	pg := permute(mirror)
	degree := func(v int64) (d int) {
		count := func(int64, int64) { d++ }
		pg.OutEdges(v, count)
		pg.InEdges(v, count)
		return d
	}
	least, landmark := 1<<30, map[int64]bool{}
	for _, l := range st.Landmarks {
		least, landmark[l] = min(least, degree(l)), true
	}
	for v := int64(0); v < pg.N; v++ {
		if !landmark[v] && degree(v) > least {
			t.Fatalf("landmarks %v: node %d has degree %d, above landmark degree %d", st.Landmarks, v, degree(v), least)
		}
	}
	if _, err := e.BuildLabels(); err != nil {
		t.Fatal(err)
	}
	check("loaded", e)

	if _, err := e.ApplyMutations(randomBatch()); err != nil {
		t.Fatal(err)
	}
	check("mutated", e)

	if _, err := e.Snapshot(ctx); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	h := hydrateEngine(t, dir)
	check("hydrated", h)

	if _, err := h.ApplyMutations(randomBatch()); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	r := hydrateEngine(t, dir)
	if n := r.DurabilityStats().ReplayedRecords; n != 1 {
		t.Fatalf("replayed %d WAL records, want 1", n)
	}
	check("replayed", r)
}

// TestColdBSEGMissesFollowOrder pins what the node order buys in the disk
// regime, in BenchmarkColdBSEGQuery's shape: graph.Power(8000) with its
// SegTable at lthd 20 in a file behind a 48-page pool, 16 BSEG pairs, each
// asked once to compile its statements and once measured. Numbered in
// generator order a query read 483.4 pages from the file; numbered
// breadth-first, a frontier's rows share pages and it reads at most 240.
// It also bounds the page fetches a query makes, hits included: 5502 while
// every MERGE and UPDATE materialized its matches and stored each through a
// descent of its own, ~4455 since they write through the leaf they read,
// 4417.6 while every index probe descended from the root, and 3372.7 since
// a probe that lands on the leaf its iterator last read fetches only that
// leaf (btree.Iterator's finger), the physical reads 34.8 both times.
func TestColdBSEGMissesFollowOrder(t *testing.T) {
	const poolPages, bound, fetchBound = 48, 240, 3700
	g := graph.Power(8000, 3, 2011)
	path := filepath.Join(t.TempDir(), "cold.db")
	e := newTestEngine(t, g, rdb.Options{Path: path, BufferPoolPages: poolPages}, Options{CacheSize: -1})
	if _, err := e.BuildSegTable(20); err != nil {
		t.Fatal(err)
	}
	pairs := graph.RandomQueries(g, 16, 1)
	ask := func() {
		for _, p := range pairs {
			if _, err := e.Query(context.Background(), QueryRequest{Source: p[0], Target: p[1], Alg: AlgBSEG}); err != nil {
				t.Fatal(err)
			}
		}
	}
	ask()
	before := e.db.Stats().Pool
	ask()
	after := e.db.Stats().Pool
	perQuery := float64(after.Misses-before.Misses) / float64(len(pairs))
	fetches := float64(after.Hits+after.Misses-before.Hits-before.Misses) / float64(len(pairs))
	t.Logf("%.1f physical reads and %.1f page fetches per query (file %d pages, pool %d)",
		perQuery, fetches, e.db.Pool().Disk().NumPages(), poolPages)
	if perQuery > bound {
		t.Errorf("%.1f physical reads per query, want at most %d", perQuery, bound)
	}
	if fetches > fetchBound {
		t.Errorf("%.1f page fetches per query, want at most %d", fetches, fetchBound)
	}
}
