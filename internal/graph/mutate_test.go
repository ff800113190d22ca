package graph

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The mutable-mirror tests: the in-memory graph must mutate exactly like
// the relational engine (all parallel edges per pair, wmin tracking) so
// the differential harness can trust it as the reference.

func mirrorGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := New(4, []Edge{
		{From: 0, To: 1, Weight: 2},
		{From: 0, To: 1, Weight: 7}, // parallel
		{From: 1, To: 2, Weight: 3},
		{From: 2, To: 3, Weight: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestMirrorInsertEdge(t *testing.T) {
	g := mirrorGraph(t)
	if err := g.InsertEdge(3, 0, 1); err != nil {
		t.Fatal(err)
	}
	if g.M() != 5 || g.WMin() != 1 {
		t.Fatalf("M=%d wmin=%d", g.M(), g.WMin())
	}
	found := false
	g.OutEdges(3, func(v, w int64) {
		if v == 0 && w == 1 {
			found = true
		}
	})
	if !found {
		t.Error("out-adjacency missing the new edge")
	}
	found = false
	g.InEdges(0, func(v, w int64) {
		if v == 3 && w == 1 {
			found = true
		}
	})
	if !found {
		t.Error("in-adjacency missing the new edge")
	}
	if err := g.InsertEdge(0, 9, 1); err == nil {
		t.Error("out-of-range insert must fail")
	}
	if err := g.InsertEdge(0, 1, -2); err == nil {
		t.Error("negative weight must fail")
	}
}

func TestMirrorDeleteEdge(t *testing.T) {
	g := mirrorGraph(t)
	n, err := g.DeleteEdge(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("parallel delete removed %d edges, want 2", n)
	}
	if g.M() != 2 || g.OutDegree(0) != 0 {
		t.Fatalf("M=%d outdeg(0)=%d", g.M(), g.OutDegree(0))
	}
	if g.WMin() != 3 {
		t.Fatalf("wmin after deleting the minimum: %d", g.WMin())
	}
	g.InEdges(1, func(v, w int64) { t.Errorf("stale in-edge (%d,%d)", v, w) })
	if _, err := g.DeleteEdge(0, 1); err == nil {
		t.Error("deleting a missing pair must fail")
	}
	if _, err := g.DeleteEdge(0, 9); err == nil {
		t.Error("out-of-range delete must fail")
	}
	// Deleting every edge resets wmin to the empty-graph default.
	if _, err := g.DeleteEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := g.DeleteEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	if g.M() != 0 || g.WMin() != 1 {
		t.Fatalf("empty graph: M=%d wmin=%d", g.M(), g.WMin())
	}
}

func TestMirrorUpdateEdgeWeight(t *testing.T) {
	g := mirrorGraph(t)
	n, err := g.UpdateEdgeWeight(0, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("parallel update changed %d edges, want 2", n)
	}
	if g.WMin() != 3 {
		t.Fatalf("wmin after raising the minimum: %d", g.WMin())
	}
	g.OutEdges(0, func(v, w int64) {
		if w != 5 {
			t.Errorf("out-edge weight %d, want 5", w)
		}
	})
	g.InEdges(1, func(v, w int64) {
		if w != 5 {
			t.Errorf("in-edge weight %d, want 5", w)
		}
	})
	if _, err := g.UpdateEdgeWeight(1, 0, 2); err == nil {
		t.Error("updating a missing pair must fail")
	}
	if _, err := g.UpdateEdgeWeight(0, 1, -1); err == nil {
		t.Error("negative weight must fail")
	}
	// MDJ must see the new weights immediately.
	res := MDJ(g, 0, 3)
	if !res.Found || res.Distance != 12 {
		t.Fatalf("distance after update: %+v", res)
	}
}

func TestMirrorClone(t *testing.T) {
	g := mirrorGraph(t)
	c := g.Clone()
	if _, err := g.DeleteEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.InsertEdge(3, 0, 1); err != nil {
		t.Fatal(err)
	}
	if c.M() != 4 || c.WMin() != 2 {
		t.Fatalf("clone mutated alongside the original: M=%d wmin=%d", c.M(), c.WMin())
	}
	res := MDJ(c, 0, 3)
	if !res.Found || res.Distance != 9 {
		t.Fatalf("clone distances off: %+v", res)
	}
}

// TestReadCSVErrorPaths is the table-driven failure-branch suite for the
// CSV reader: every malformed shape must produce a descriptive error, and
// the documented lenient cases (duplicate/parallel edges, header-derived
// node counts) must stay accepted.
func TestReadCSVErrorPaths(t *testing.T) {
	for _, tc := range []struct {
		name    string
		in      string
		wantErr string // substring; empty means success
		nodes   int64
		edges   int
	}{
		{name: "ok with header", in: "# nodes=5 edges=1\n0,4,7\n", nodes: 5, edges: 1},
		{name: "ok without header", in: "0,4,7\n", nodes: 5, edges: 1},
		{name: "blank lines skipped", in: "\n0,1,2\n\n1,0,2\n", nodes: 2, edges: 2},
		{name: "duplicate edges accepted", in: "0,1,3\n0,1,3\n0,1,9\n", nodes: 2, edges: 3},
		{name: "zero weight accepted", in: "0,1,0\n", nodes: 2, edges: 1},
		{name: "empty input", in: "", nodes: 1, edges: 0},
		{name: "bad arity short", in: "0,1\n", wantErr: "bad CSV line"},
		{name: "bad arity long", in: "0,1,2,3\n", wantErr: "bad CSV line"},
		{name: "bad fid", in: "x,1,2\n", wantErr: "bad fid"},
		{name: "bad tid", in: "0,y,2\n", wantErr: "bad tid"},
		{name: "bad cost", in: "0,1,z\n", wantErr: "bad cost"},
		{name: "negative weight", in: "0,1,-4\n", wantErr: "negative weight"},
		{name: "edge beyond declared nodes", in: "# nodes=2\n0,5,1\n", wantErr: "out of range"},
		{name: "negative node id", in: "-1,0,1\n", wantErr: "out of range"},
		// A count or an id past MaxNodes is an error, not a panic in make
		// (the largest id plus one wraps negative) or a huge allocation.
		{name: "id overflows the count", in: "0,9223372036854775807,1\n", wantErr: "node limit"},
		{name: "id at MaxNodes", in: fmt.Sprintf("0,%d,1\n", MaxNodes), wantErr: "node limit"},
		{name: "count above MaxNodes", in: fmt.Sprintf("# nodes=%d\n", MaxNodes+1), wantErr: "bad node count"},
		{name: "count at int64 max", in: "# nodes=9223372036854775807\n", wantErr: "bad node count"},
		{name: "count overflows int64", in: "# nodes=99999999999999999999\n", wantErr: "bad node count"},
		{name: "negative count", in: "# nodes=-3\n0,1,1\n", wantErr: "bad node count"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := ReadCSV(strings.NewReader(tc.in))
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("expected error containing %q, got graph %+v", tc.wantErr, g)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %q does not contain %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if g.N != tc.nodes || g.M() != tc.edges {
				t.Fatalf("N=%d M=%d, want N=%d M=%d", g.N, g.M(), tc.nodes, tc.edges)
			}
		})
	}
}

// TestLoadFileErrorPaths: the file wrapper surfaces both I/O and parse
// failures.
func TestLoadFileErrorPaths(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.csv")); err == nil {
		t.Error("missing file must fail")
	}
	bad := filepath.Join(t.TempDir(), "bad.csv")
	if err := os.WriteFile(bad, []byte("0,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(bad); err == nil || !strings.Contains(err.Error(), "bad CSV line") {
		t.Errorf("parse failure must propagate, got %v", err)
	}
}
