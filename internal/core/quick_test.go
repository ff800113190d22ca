package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/rdb"
)

// TestQuickAllAlgorithmsMatchDijkstra is the library's flagship property:
// on arbitrary random graphs, every relational algorithm returns exactly
// the in-memory Dijkstra distance, and the recovered path realizes it.
func TestQuickAllAlgorithmsMatchDijkstra(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int64(15 + rng.Intn(35))
		m := int(n) * (2 + rng.Intn(2))
		g := graph.Random(n, m, seed)

		db, err := rdb.Open(rdb.Options{})
		if err != nil {
			return false
		}
		defer db.Close()
		e := NewEngine(db, Options{})
		if err := e.LoadGraph(g); err != nil {
			return false
		}
		lthd := int64(5 + rng.Intn(30))
		if _, err := e.BuildSegTable(lthd); err != nil {
			return false
		}
		for trial := 0; trial < 3; trial++ {
			s, tt := rng.Int63n(n), rng.Int63n(n)
			ref := graph.MDJ(g, s, tt)
			for _, alg := range []Algorithm{AlgDJ, AlgBDJ, AlgBSDJ, AlgBBFS, AlgBSEG} {
				p, _, err := shortestPath(e, alg, s, tt)
				if err != nil {
					t.Logf("seed=%d alg=%v s=%d t=%d: %v", seed, alg, s, tt, err)
					return false
				}
				if p.Found != ref.Found {
					t.Logf("seed=%d alg=%v s=%d t=%d: found=%v want %v", seed, alg, s, tt, p.Found, ref.Found)
					return false
				}
				if !p.Found {
					continue
				}
				if p.Length != ref.Distance {
					t.Logf("seed=%d alg=%v s=%d t=%d: len=%d want %d", seed, alg, s, tt, p.Length, ref.Distance)
					return false
				}
				got, ok := g.PathLength(p.Nodes)
				if !ok || got != ref.Distance {
					t.Logf("seed=%d alg=%v s=%d t=%d: bad path %v", seed, alg, s, tt, p.Nodes)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSegTablePreservesDistances: searching the SegTable graph G'
// (segments + residual edges) yields the same distances as G — the
// property Definition 4 is built on.
func TestQuickSegTablePreservesDistances(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	fn := func(seed int64, lthdRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int64(12 + rng.Intn(24))
		g := graph.Random(n, int(n)*3, seed)
		lthd := int64(lthdRaw%40) + 2

		db, err := rdb.Open(rdb.Options{})
		if err != nil {
			return false
		}
		defer db.Close()
		e := NewEngine(db, Options{})
		if err := e.LoadGraph(g); err != nil {
			return false
		}
		if _, err := e.BuildSegTable(lthd); err != nil {
			return false
		}
		// Rebuild G' from TOutSegs and compare all-source distances from a
		// few roots.
		rows, err := db.Query("SELECT fid, tid, cost FROM TOutSegs")
		if err != nil {
			return false
		}
		toExt := e.nodeOrder().toExt // the rows hold internal ids, g external ones
		var edges []graph.Edge
		for _, r := range rows.Data {
			edges = append(edges, graph.Edge{From: toExt[r[0].I], To: toExt[r[1].I], Weight: r[2].I})
		}
		gp, err := graph.New(n, edges)
		if err != nil {
			return false
		}
		for trial := 0; trial < 4; trial++ {
			s, tt := rng.Int63n(n), rng.Int63n(n)
			a := graph.MDJ(g, s, tt)
			b := graph.MDJ(gp, s, tt)
			if a.Found != b.Found {
				return false
			}
			if a.Found && a.Distance != b.Distance {
				t.Logf("seed=%d lthd=%d s=%d t=%d: G=%d G'=%d", seed, lthd, s, tt, a.Distance, b.Distance)
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBSEGOnPowerGraphs exercises BSEG on skewed graphs where hub
// nodes produce large frontiers and many same-distance ties.
func TestQuickBSEGOnPowerGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int64(30 + rng.Intn(50))
		g := graph.Power(n, 4, seed)
		db, err := rdb.Open(rdb.Options{})
		if err != nil {
			return false
		}
		defer db.Close()
		e := NewEngine(db, Options{})
		if err := e.LoadGraph(g); err != nil {
			return false
		}
		if _, err := e.BuildSegTable(int64(10 + rng.Intn(25))); err != nil {
			return false
		}
		for trial := 0; trial < 3; trial++ {
			s, tt := rng.Int63n(n), rng.Int63n(n)
			ref := graph.MDJ(g, s, tt)
			p, _, err := shortestPath(e, AlgBSEG, s, tt)
			if err != nil || p.Found != ref.Found {
				return false
			}
			if p.Found && p.Length != ref.Distance {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
