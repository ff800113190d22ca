package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/rdb"
)

// newTestEngine loads g into a fresh in-memory database.
func newTestEngine(t testing.TB, g *graph.Graph, dbOpts rdb.Options, opts Options) *Engine {
	t.Helper()
	db, err := rdb.Open(dbOpts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	e := NewEngine(db, opts)
	t.Cleanup(func() { e.Close() })
	if err := e.LoadGraph(g); err != nil {
		t.Fatalf("load graph: %v", err)
	}
	return e
}

// paperGraph reproduces the example of Figure 1: nodes s,b,c,d,e,f,g,h,i,j,t.
func paperGraph(t *testing.T) (*graph.Graph, map[string]int64) {
	t.Helper()
	names := []string{"s", "b", "c", "d", "e", "f", "g", "h", "i", "j", "t"}
	id := make(map[string]int64, len(names))
	for i, n := range names {
		id[n] = int64(i)
	}
	type we struct {
		u, v string
		w    int64
	}
	// Undirected edges consistent with Figure 1/Figure 5 distances:
	// shortest path s->t has length 15 via h (d2s(h)=12 lb side d2t(h)=3).
	edges := []we{
		{"s", "d", 6}, {"s", "c", 1}, {"s", "b", 2},
		{"d", "c", 1}, {"c", "e", 3}, {"b", "e", 2},
		{"e", "f", 7}, {"e", "g", 3}, {"f", "g", 4},
		{"f", "h", 9}, {"g", "h", 5}, {"h", "t", 3},
		{"h", "i", 4}, {"i", "t", 5}, {"i", "j", 2}, {"j", "t", 8},
	}
	var list []graph.Edge
	for _, e := range edges {
		list = append(list, graph.Edge{From: id[e.u], To: id[e.v], Weight: e.w})
		list = append(list, graph.Edge{From: id[e.v], To: id[e.u], Weight: e.w})
	}
	g, err := graph.New(int64(len(names)), list)
	if err != nil {
		t.Fatalf("paper graph: %v", err)
	}
	return g, id
}

func allAlgorithms() []Algorithm {
	return []Algorithm{AlgDJ, AlgBDJ, AlgBSDJ, AlgBBFS, AlgBSEG, AlgALT}
}

// buildOracle builds a small landmark oracle so AlgALT can run; tests that
// iterate allAlgorithms call it next to BuildSegTable.
func buildOracle(t *testing.T, e *Engine) {
	t.Helper()
	if _, err := e.BuildOracle(oracle.Config{K: 4}); err != nil {
		t.Fatalf("oracle: %v", err)
	}
}

// checkPath validates a result against the in-memory reference.
func checkPath(t *testing.T, g *graph.Graph, alg Algorithm, s, tt int64, p Path) {
	t.Helper()
	ref := graph.MDJ(g, s, tt)
	if ref.Found != p.Found {
		t.Fatalf("%v s=%d t=%d: found=%v, reference=%v", alg, s, tt, p.Found, ref.Found)
	}
	if !p.Found {
		return
	}
	if p.Length != ref.Distance {
		t.Fatalf("%v s=%d t=%d: length=%d, reference=%d", alg, s, tt, p.Length, ref.Distance)
	}
	if len(p.Nodes) == 0 || p.Nodes[0] != s || p.Nodes[len(p.Nodes)-1] != tt {
		t.Fatalf("%v s=%d t=%d: path endpoints wrong: %v", alg, s, tt, p.Nodes)
	}
	got, ok := g.PathLength(p.Nodes)
	if !ok {
		t.Fatalf("%v s=%d t=%d: path uses non-edges: %v", alg, s, tt, p.Nodes)
	}
	if got != ref.Distance {
		t.Fatalf("%v s=%d t=%d: path weight %d != shortest %d (%v)", alg, s, tt, got, ref.Distance, p.Nodes)
	}
}

func TestPaperExampleAllAlgorithms(t *testing.T) {
	g, id := paperGraph(t)
	e := newTestEngine(t, g, rdb.Options{}, Options{})
	if _, err := e.BuildSegTable(6); err != nil {
		t.Fatalf("segtable: %v", err)
	}
	buildOracle(t, e)
	ref := graph.MDJ(g, id["s"], id["t"])
	if !ref.Found || ref.Distance != 15 {
		t.Fatalf("reference disagrees with the paper example: %+v", ref)
	}
	for _, alg := range allAlgorithms() {
		p, qs, err := shortestPath(e, alg, id["s"], id["t"])
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if qs.Expansions == 0 {
			t.Errorf("%v: expected at least one expansion", alg)
		}
		checkPath(t, g, alg, id["s"], id["t"], p)
	}
}

func TestRandomGraphAllAlgorithms(t *testing.T) {
	g := graph.Random(60, 180, 42)
	e := newTestEngine(t, g, rdb.Options{}, Options{})
	if _, err := e.BuildSegTable(30); err != nil {
		t.Fatalf("segtable: %v", err)
	}
	buildOracle(t, e)
	queries := graph.RandomQueries(g, 12, 7)
	for _, alg := range allAlgorithms() {
		for _, q := range queries {
			p, _, err := shortestPath(e, alg, q[0], q[1])
			if err != nil {
				t.Fatalf("%v s=%d t=%d: %v", alg, q[0], q[1], err)
			}
			checkPath(t, g, alg, q[0], q[1], p)
		}
	}
}
