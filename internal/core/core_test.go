package core

import (
	"fmt"
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
	if err := pathErr(g, s, tt, p); err != nil {
		t.Fatalf("%v s=%d t=%d: %v", alg, s, tt, err)
	}
}

// pathErr says how p fails to be a shortest s-t path of g: Found, the
// length, the endpoints, and a real path of exactly the shortest weight.
func pathErr(g *graph.Graph, s, t int64, p Path) error {
	ref := graph.MDJ(g, s, t)
	if ref.Found != p.Found {
		return fmt.Errorf("found=%v, reference=%v", p.Found, ref.Found)
	}
	if !p.Found {
		return nil
	}
	if p.Length != ref.Distance {
		return fmt.Errorf("length=%d, reference=%d", p.Length, ref.Distance)
	}
	if len(p.Nodes) == 0 || p.Nodes[0] != s || p.Nodes[len(p.Nodes)-1] != t {
		return fmt.Errorf("path endpoints wrong: %v", p.Nodes)
	}
	if got, ok := g.PathLength(p.Nodes); !ok || got != ref.Distance {
		return fmt.Errorf("path %v weighs %d (a real path: %v), shortest %d", p.Nodes, got, ok, ref.Distance)
	}
	return nil
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
