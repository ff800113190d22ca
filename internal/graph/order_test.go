package graph

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestLocalityOrder: LocalityOrder is a pair of inverse permutations, and
// breadth-first: every node but a component's first has its BFS parent — the
// neighbour numbered first — numbered below it, parents never decrease in
// their children's order (a queue, not a stack), and each component starts
// at the lowest id no earlier component took.
func TestLocalityOrder(t *testing.T) {
	islands, err := New(7, []Edge{{From: 5, To: 6, Weight: 1}, {From: 4, To: 2, Weight: 1}, {From: 2, To: 0, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Graph{
		"power":   Power(2000, 3, 2011),
		"random":  Random(500, 300, 3), // sparse: many components
		"islands": islands,             // 1 and 3 isolated; edges one way only
		"empty":   {},
	} {
		toInt, toExt := LocalityOrder(g)
		if int64(len(toInt)) != g.N || int64(len(toExt)) != g.N {
			t.Fatalf("%s: %d / %d ids for %d nodes", name, len(toInt), len(toExt), g.N)
		}
		for i, v := range toExt {
			if v < 0 || v >= g.N || toInt[v] != int64(i) {
				t.Fatalf("%s: not a bijection at %d (toExt %d)", name, i, v)
			}
		}
		lastParent := int64(-1)
		for i, v := range toExt {
			parent := int64(len(toExt))
			visit := func(u, _ int64) { parent = min(parent, toInt[u]) }
			g.OutEdges(v, visit)
			g.InEdges(v, visit)
			if parent < int64(i) {
				if parent < lastParent {
					t.Fatalf("%s: node %d (number %d) has parent number %d, after a child of %d", name, v, i, parent, lastParent)
				}
				lastParent = parent
				continue
			}
			// A component's first node: every lower id is numbered already.
			for u := int64(0); u < v; u++ {
				if toInt[u] > int64(i) {
					t.Fatalf("%s: component root %d (number %d) numbered before the lower id %d", name, v, i, u)
				}
			}
		}
	}
}

// TestParseGenRejectsHostileSizes: a spec whose node count (given, or
// implied by a snapshot analog's scale) exceeds MaxNodes, or whose edge
// count (M, or N·D) exceeds MaxEdges, is an error before anything is
// generated — not a makeslice panic, or a panic in New after seconds of
// generating.
func TestParseGenRejectsHostileSizes(t *testing.T) {
	for _, spec := range []string{
		"power:2:4611686018427387904",
		"random:3:9223372036854775807",
		"power:16777217:1",
		"power:9223372036854775807:9223372036854775807",
		"power:8388608:17",       // N·D just above MaxEdges
		"random:8388609:2",       // N just above MaxNodes
		"random:2:134217729",     // M just above MaxEdges
		"dblp:2681",              // 312967 · 26.81 nodes
		"web:981",                // 855802 · 9.81 nodes
		"lj:1731",                // 4847571 · 1.731 nodes
		"lj:9223372036854775807", // a scale far past any graph
	} {
		start := time.Now()
		g, err := ParseGen(spec, 1)
		if err == nil {
			t.Errorf("%q: no error, %d nodes / %d edges", spec, g.N, g.M())
			continue
		}
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Errorf("%q: refused after %v", spec, d)
		}
	}
}

// FuzzParseGen feeds ParseGen arbitrary specs (seeds in
// testdata/fuzz/FuzzParseGen): no spec panics, a rejected spec's error
// names it, and an accepted one asks for at most MaxNodes nodes and
// MaxEdges edges. An accepted spec small enough to generate once an input
// builds a graph within those limits, every endpoint a node and every
// weight positive.
func FuzzParseGen(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		_, _, nodes, edges, err := genSpec(spec)
		if err == nil && (nodes > MaxNodes || edges > MaxEdges) {
			t.Fatalf("%q: accepted at %.0f nodes / %.0f edges", spec, nodes, edges)
		}
		if err == nil && (nodes > 1<<13 || edges > 1<<16) {
			return
		}
		g, err := ParseGen(spec, 1)
		if err != nil {
			if !strings.Contains(err.Error(), strconv.Quote(spec)) {
				t.Fatalf("%q: the error does not name the spec: %v", spec, err)
			}
			return
		}
		if g.N < 2 || g.N > MaxNodes || g.M() > MaxEdges {
			t.Fatalf("%q: %d nodes / %d edges", spec, g.N, g.M())
		}
		for _, ed := range g.Edges {
			if ed.From < 0 || ed.From >= g.N || ed.To < 0 || ed.To >= g.N || ed.Weight < 1 {
				t.Fatalf("%q: edge %+v in a %d-node graph", spec, ed, g.N)
			}
		}
	})
}
