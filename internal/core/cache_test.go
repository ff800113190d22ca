package core

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/rdb"
)

// TestCacheHitMiss covers the basic miss-then-hit cycle and that hits
// bypass SQL entirely.
func TestCacheHitMiss(t *testing.T) {
	g := graph.Power(500, 3, 13)
	e := newTestEngine(t, g, rdb.Options{}, Options{})
	q := graph.RandomQueries(g, 1, 8)[0]

	p1, qs1, err := shortestPath(e, AlgBSDJ, q[0], q[1])
	if err != nil {
		t.Fatal(err)
	}
	if qs1.CacheHit {
		t.Fatal("first query must be a miss")
	}
	stmtsBefore := e.DB().Stats().Statements

	p2, qs2, err := shortestPath(e, AlgBSDJ, q[0], q[1])
	if err != nil {
		t.Fatal(err)
	}
	if !qs2.CacheHit {
		t.Fatal("second identical query must hit the cache")
	}
	if got := e.DB().Stats().Statements; got != stmtsBefore {
		t.Fatalf("cache hit issued SQL: %d statements", got-stmtsBefore)
	}
	if p2.Found != p1.Found || p2.Length != p1.Length {
		t.Fatalf("cached answer differs: %+v vs %+v", p2, p1)
	}
	// Different algorithm or endpoints are distinct keys.
	if _, qs3, err := shortestPath(e, AlgBBFS, q[0], q[1]); err != nil {
		t.Fatal(err)
	} else if qs3.CacheHit {
		t.Fatal("different algorithm must not share cache entries")
	}

	cs := e.CacheStats()
	if cs.Hits != 1 || cs.Misses != 2 || cs.Entries != 2 {
		t.Fatalf("unexpected cache stats: %+v", cs)
	}

	// An auto query counts exactly one lookup too: one miss when it
	// searches, one hit when it repeats.
	qa := graph.RandomQueries(g, 2, 9)[1]
	for i, want := range []CacheStats{{Hits: 1, Misses: 3}, {Hits: 2, Misses: 3}} {
		res, err := e.Query(context.Background(), QueryRequest{Source: qa[0], Target: qa[1]})
		if err != nil {
			t.Fatal(err)
		}
		got := e.CacheStats()
		if got.Hits != want.Hits || got.Misses != want.Misses || res.Stats.CacheHit != (i == 1) {
			t.Fatalf("auto query %d: hit=%v, cache stats %+v, want hits %d misses %d",
				i, res.Stats.CacheHit, got, want.Hits, want.Misses)
		}
	}

	// Callers must not be able to corrupt cached entries via the shared
	// Nodes slice.
	if len(p2.Nodes) > 0 {
		p2.Nodes[0] = -42
		p4, _, err := shortestPath(e, AlgBSDJ, q[0], q[1])
		if err != nil {
			t.Fatal(err)
		}
		if p4.Nodes[0] == -42 {
			t.Fatal("cache entry aliases caller's slice")
		}
	}
}

// TestCacheInvalidationOnReload checks that swapping the graph (LoadGraph)
// discards cached answers instead of serving results for the old graph.
func TestCacheInvalidationOnReload(t *testing.T) {
	g1 := graph.Random(200, 800, 1)
	e := newTestEngine(t, g1, rdb.Options{}, Options{})
	q := graph.RandomQueries(g1, 1, 4)[0]
	p1, _, err := shortestPath(e, AlgBSDJ, q[0], q[1])
	if err != nil {
		t.Fatal(err)
	}

	// Reload a graph with every weight doubled: same topology, so the
	// same pair must now report exactly twice the distance.
	edges := make([]graph.Edge, len(g1.Edges))
	for i, ed := range g1.Edges {
		edges[i] = graph.Edge{From: ed.From, To: ed.To, Weight: 2 * ed.Weight}
	}
	g2, err := graph.New(g1.N, edges)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LoadGraph(g2); err != nil {
		t.Fatal(err)
	}
	p2, qs2, err := shortestPath(e, AlgBSDJ, q[0], q[1])
	if err != nil {
		t.Fatal(err)
	}
	if qs2.CacheHit {
		t.Fatal("query after reload must not hit the stale cache")
	}
	if p1.Found && (!p2.Found || p2.Length != 2*p1.Length) {
		t.Fatalf("stale answer after reload: before=%+v after=%+v", p1, p2)
	}
	if cs := e.CacheStats(); cs.Invalidations == 0 {
		t.Fatalf("reload did not invalidate: %+v", cs)
	}
}

// TestCacheInvalidationOnIndexAndInsert checks BuildSegTable and InsertEdge
// both start a new cache generation.
func TestCacheInvalidationOnIndexAndInsert(t *testing.T) {
	g := graph.Power(300, 3, 9)
	e := newTestEngine(t, g, rdb.Options{}, Options{})
	q := graph.RandomQueries(g, 1, 2)[0]
	p1, _, err := shortestPath(e, AlgBSDJ, q[0], q[1])
	if err != nil {
		t.Fatal(err)
	}
	if !p1.Found {
		t.Skip("query pair not connected")
	}

	v0 := e.GraphVersion()
	if _, err := e.BuildSegTable(10); err != nil {
		t.Fatal(err)
	}
	if e.GraphVersion() == v0 {
		t.Fatal("BuildSegTable must bump the graph version")
	}
	if _, qs, err := shortestPath(e, AlgBSDJ, q[0], q[1]); err != nil {
		t.Fatal(err)
	} else if qs.CacheHit {
		t.Fatal("query after index build must recompute")
	}

	// A direct s->t shortcut strictly shorter than the current distance
	// must be reflected immediately — a stale cache would keep p1.
	if p1.Length > 1 {
		if _, err := e.InsertEdge(q[0], q[1], 1); err != nil {
			t.Fatal(err)
		}
		p2, qs, err := shortestPath(e, AlgBSDJ, q[0], q[1])
		if err != nil {
			t.Fatal(err)
		}
		if qs.CacheHit {
			t.Fatal("query after edge insert must recompute")
		}
		if p2.Length != 1 {
			t.Fatalf("shortcut not visible: got %d, want 1", p2.Length)
		}
	}
}

// TestCacheEviction bounds the cache and checks LRU eviction counts.
func TestCacheEviction(t *testing.T) {
	c := newPathCache(2)
	k := func(i int64) cacheKey { return cacheKey{version: 1, alg: AlgBSDJ, s: i, t: i + 1} }
	c.put(k(1), Path{Found: true, Length: 1})
	c.put(k(2), Path{Found: true, Length: 2})
	if _, ok := c.get(k(1)); !ok { // touch 1 so 2 is LRU
		t.Fatal("entry 1 missing")
	}
	c.put(k(3), Path{Found: true, Length: 3})
	if _, ok := c.get(k(2)); ok {
		t.Fatal("entry 2 should have been evicted as LRU")
	}
	if _, ok := c.get(k(1)); !ok {
		t.Fatal("entry 1 should survive eviction")
	}
	if cs := c.snapshot(); cs.Evictions != 1 || cs.Entries != 2 || cs.Capacity != 2 {
		t.Fatalf("unexpected stats: %+v", cs)
	}
}
