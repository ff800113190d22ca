package core

import (
	"context"
	"maps"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/rdb"
)

// TestTouchSetMatchesDefinition: after computeTouchSet for an edge (u, v, w),
// TMutTouch is exactly {(x, y) in SegTable : δ(x,u) + w + δ(v,y) <= δ(x,y)},
// with δ read from the SegTable itself and δ(x,x) = 0 — the set the
// decremental repair is scoped by, computed here in Go from the table
// contents. The 1000-step differential checks the state a repair ends in;
// this checks the set it is allowed to touch, for every edge of random
// graphs with parallel edges, under the three index strategies and the
// merge-free profile.
func TestTouchSetMatchesDefinition(t *testing.T) {
	const lthd = 60 // generator weights are 1..100: keep both-half pairs common
	for ci, cfg := range []struct {
		name    string
		profile rdb.Profile
		opts    Options
	}{
		{"clustered", rdb.Profile{}, Options{Strategy: ClusteredIndex}},
		{"secondary", rdb.Profile{}, Options{Strategy: SecondaryIndex}},
		{"noindex", rdb.Profile{}, Options{Strategy: NoIndex}},
		{"postgres", rdb.ProfilePostgreSQL9, Options{}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			g := graph.Random(24, 60, int64(41+ci))
			rng := rand.New(rand.NewSource(int64(ci)))
			for i := 0; i < 8; i++ { // parallel edges, cheaper and dearer
				ed := g.Edges[rng.Intn(g.M())]
				if err := g.InsertEdge(ed.From, ed.To, 1+rng.Int63n(graph.MaxWeight)); err != nil {
					t.Fatal(err)
				}
			}
			e := newTestEngine(t, g, rdb.Options{Profile: cfg.profile}, cfg.opts)
			if _, err := e.BuildSegTable(lthd); err != nil {
				t.Fatal(err)
			}
			seg := segTableSnapshot(t, e, TblOutSegs)
			// The prefix shapes read x -> u through TOutSegs' tid index: it
			// must yield the table's pairs at their costs.
			if err := e.checkSegTable(); err != nil {
				t.Fatal(err)
			}
			dist := func(x, y int64) (int64, bool) {
				if x == y {
					return 0, true
				}
				c, ok := seg[[2]int64{x, y}]
				return c, ok
			}
			var shapes [4]int // touched pairs by decomposition case
			done := map[[2]int64]bool{}
			for _, ed := range g.Edges {
				u, v := ed.From, ed.To
				if done[[2]int64{u, v}] {
					continue
				}
				done[[2]int64{u, v}] = true
				w := ed.Weight // the effective weight, as deleteLocked reads it
				g.OutEdges(u, func(to, c int64) {
					if to == v && c < w {
						w = c
					}
				})
				want := map[[2]int64]bool{}
				for pair, c := range seg {
					pre, okPre := dist(pair[0], u)
					suf, okSuf := dist(v, pair[1])
					if okPre && okSuf && pre+w+suf <= c {
						want[pair] = true
						k := 0
						if pair[0] != u {
							k++
						}
						if pair[1] != v {
							k += 2
						}
						shapes[k]++
					}
				}
				// The touch set speaks the relations' internal ids; seg and
				// g.Edges external ones.
				ord := e.nodeOrder()
				if err := e.computeTouchSet(context.Background(), &QueryStats{}, ord.toInt[u], ord.toInt[v], w); err != nil {
					t.Fatalf("edge %d->%d: %v", u, v, err)
				}
				rows, err := e.DB().Query("SELECT fid, tid FROM " + tblMutTouch)
				if err != nil {
					t.Fatal(err)
				}
				got := map[[2]int64]bool{}
				for _, r := range rows.Data {
					got[[2]int64{ord.toExt[r[0].I], ord.toExt[r[1].I]}] = true
				}
				if len(got) != rows.Len() || !maps.Equal(got, want) {
					t.Fatalf("edge %d->%d (w=%d): %d rows in TMutTouch\n got  %v\n want %v", u, v, w, rows.Len(), got, want)
				}
			}
			for k, n := range shapes {
				if n == 0 {
					t.Errorf("no touched pair of shape %d (x != u: %v, y != v: %v): the graph does not exercise it", k+1, k&1 != 0, k&2 != 0)
				}
			}
		})
	}
}

// TestRepairCostFollowsTouchSet: a decremental repair reads the pages its
// touch set leads it to, not the SegTable. graph.Power grows by attachment,
// so Power(n) is the first n nodes of Power(8n); the edges whose endpoints
// gained no neighbour on the way have the same neighbourhood in both, and a
// DeleteEdge or a weakening UpdateEdgeWeight of one of them must cost about
// the same buffer-pool fetches (exact counts) in the SegTable eight times the
// size. A statement that scans TOutSegs, its tid index or TEdges to find its two
// rows grows eightfold.
func TestRepairCostFollowsTouchSet(t *testing.T) {
	const n, lthd, sample = 500, 20, 6
	small, big := graph.Power(n, 3, 2011), graph.Power(8*n, 3, 2011)
	var edges []graph.Edge
	for _, ed := range small.Edges {
		if small.OutDegree(ed.From) == big.OutDegree(ed.From) && small.OutDegree(ed.To) == big.OutDegree(ed.To) {
			edges = append(edges, ed)
		}
	}
	if len(edges) < 2*sample {
		t.Fatalf("%d edges with an unchanged neighbourhood, want %d", len(edges), 2*sample)
	}
	type cost struct {
		segRows                int
		delFetches, updFetches uint64
		delTouched, updTouched int64
	}
	measure := func(g *graph.Graph) cost {
		e := newTestEngine(t, g, rdb.Options{BufferPoolPages: 16384}, Options{CacheSize: -1})
		st, err := e.BuildSegTable(lthd)
		if err != nil {
			t.Fatal(err)
		}
		c := cost{segRows: st.OutSegs}
		fetches := func() uint64 { p := e.db.Stats().Pool; return p.Hits + p.Misses }
		run := func(op func() (*MaintStats, error)) (uint64, int64) {
			t.Helper()
			f0 := fetches()
			ms, err := op()
			if err != nil {
				t.Fatal(err)
			}
			if ms.Rebuilt {
				t.Fatalf("the repair fell back to a rebuild: %+v", ms)
			}
			return fetches() - f0, ms.Affected
		}
		// Twice round: the first trip compiles the statements and creates
		// the scratch tables, the second is measured.
		for trip := 0; trip < 2; trip++ {
			c.delFetches, c.updFetches, c.delTouched, c.updTouched = 0, 0, 0, 0
			for _, ed := range edges[:sample] {
				f, touched := run(func() (*MaintStats, error) { return e.DeleteEdge(ed.From, ed.To) })
				c.delFetches, c.delTouched = c.delFetches+f, c.delTouched+touched
				run(func() (*MaintStats, error) { return e.InsertEdge(ed.From, ed.To, ed.Weight) })
			}
			for _, ed := range edges[sample : 2*sample] {
				f, touched := run(func() (*MaintStats, error) { return e.UpdateEdgeWeight(ed.From, ed.To, ed.Weight+50) })
				c.updFetches, c.updTouched = c.updFetches+f, c.updTouched+touched
				run(func() (*MaintStats, error) { return e.UpdateEdgeWeight(ed.From, ed.To, ed.Weight) })
			}
		}
		return c
	}
	s, b := measure(small), measure(big)
	t.Logf("n=%d: %+v", n, s)
	t.Logf("n=%d: %+v", 8*n, b)
	if b.segRows < 6*s.segRows {
		t.Fatalf("SegTable grew from %d to %d rows, want about eightfold", s.segRows, b.segRows)
	}
	within2x := func(what string, a, b uint64) {
		t.Helper()
		if a == 0 || b == 0 || a > 2*b || b > 2*a {
			t.Errorf("%s: %d at n=%d, %d at n=%d: not within 2x of each other", what, a, n, b, 8*n)
		}
	}
	within2x("touched rows, deletes", uint64(s.delTouched), uint64(b.delTouched))
	within2x("touched rows, weakenings", uint64(s.updTouched), uint64(b.updTouched))
	within2x("buffer-pool fetches, deletes", s.delFetches, b.delFetches)
	within2x("buffer-pool fetches, weakenings", s.updFetches, b.updFetches)
}
