package shard

import (
	"reflect"
	"testing"

	"repro/internal/graph"
)

// benchLikeGraph mirrors the parallel-bench workload shape: a weighted
// ring with chord edges at several strides, so both partition strategies
// see realistic cut structure.
func benchLikeGraph(t *testing.T, n int64) *graph.Graph {
	t.Helper()
	var edges []graph.Edge
	for i := int64(0); i < n; i++ {
		edges = append(edges, graph.Edge{From: i, To: (i + 1) % n, Weight: 1 + i%5})
		edges = append(edges, graph.Edge{From: i, To: (i + 8) % n, Weight: 6 + i%7})
		if i%4 == 0 {
			edges = append(edges, graph.Edge{From: i, To: (i + 64) % n, Weight: 40 + i%9})
		}
	}
	g, err := graph.New(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPartitionDeterminism(t *testing.T) {
	g := benchLikeGraph(t, 1024)
	for _, strat := range []Strategy{Hash, Range} {
		p1, err := NewPartition(g.N, 4, strat)
		if err != nil {
			t.Fatal(err)
		}
		p2, _ := NewPartition(g.N, 4, strat)
		s1, s2 := p1.SplitEdges(g), p2.SplitEdges(g)
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("%v: SplitEdges not deterministic", strat)
		}
		for nid := int64(0); nid < g.N; nid++ {
			if p1.Owner(nid) != p2.Owner(nid) {
				t.Fatalf("%v: Owner(%d) not deterministic", strat, nid)
			}
		}
	}
}

// TestPartitionBalance: hash keeps the owned-node counts within 10% of
// each other on the bench graph (it is a congruence map, so they differ by
// at most one), and range blocks are contiguous.
func TestPartitionBalance(t *testing.T) {
	g := benchLikeGraph(t, 1030) // deliberately not divisible by k
	for _, k := range []int{2, 3, 4, 7} {
		p, err := NewPartition(g.N, k, Hash)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int64, k)
		for nid := int64(0); nid < g.N; nid++ {
			counts[p.Owner(nid)]++
		}
		lo, hi := counts[0], counts[0]
		for _, c := range counts[1:] {
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		if float64(hi-lo) > 0.1*float64(lo) {
			t.Fatalf("hash k=%d: node counts %v exceed 10%% imbalance", k, counts)
		}
	}

	p, err := NewPartition(g.N, 4, Range)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for nid := int64(0); nid < g.N; nid++ {
		o := p.Owner(nid)
		if o < prev || o >= 4 {
			t.Fatalf("range: Owner(%d) = %d not contiguous non-decreasing", nid, o)
		}
		prev = o
	}
}

// TestSplitEdgesCoverage: every edge is owned by exactly its tail's shard,
// cut edges appear in both endpoint shards (and only those), and the
// total appearance count is M + cutEdges.
func TestSplitEdgesCoverage(t *testing.T) {
	g := benchLikeGraph(t, 512)
	for _, strat := range []Strategy{Hash, Range} {
		for _, k := range []int{1, 2, 4} {
			p, err := NewPartition(g.N, k, strat)
			if err != nil {
				t.Fatal(err)
			}
			sp := p.SplitEdges(g)
			if len(sp.Edges) != k {
				t.Fatalf("%v k=%d: %d shard lists", strat, k, len(sp.Edges))
			}
			type key struct{ f, to, w int64 }
			appear := map[key]map[int]int{}
			total := 0
			for i, list := range sp.Edges {
				for _, e := range list {
					kk := key{e.From, e.To, e.Weight}
					if appear[kk] == nil {
						appear[kk] = map[int]int{}
					}
					appear[kk][i]++
					total++
				}
			}
			if total != g.M()+sp.CutEdges {
				t.Fatalf("%v k=%d: %d stored edges, want M=%d + cut=%d", strat, k, total, g.M(), sp.CutEdges)
			}
			wantCut := 0
			for _, e := range g.Edges {
				os, od := p.Owner(e.From), p.Owner(e.To)
				shards := appear[key{e.From, e.To, e.Weight}]
				if shards[os] != 1 {
					t.Fatalf("%v k=%d: edge (%d,%d) appears %d times in owner shard %d, want 1",
						strat, k, e.From, e.To, shards[os], os)
				}
				if os == od {
					if len(shards) != 1 {
						t.Fatalf("%v k=%d: intra-shard edge (%d,%d) stored in shards %v", strat, k, e.From, e.To, shards)
					}
				} else {
					wantCut++
					if len(shards) != 2 || shards[od] != 1 {
						t.Fatalf("%v k=%d: cut edge (%d,%d) stored in %v, want shards %d and %d once each",
							strat, k, e.From, e.To, shards, os, od)
					}
				}
			}
			if wantCut != sp.CutEdges {
				t.Fatalf("%v k=%d: CutEdges=%d, counted %d", strat, k, sp.CutEdges, wantCut)
			}
			if k == 1 && (sp.CutEdges != 0 || len(sp.CutVertices) != 0) {
				t.Fatalf("k=1 must have no cut: %d edges, %d vertices", sp.CutEdges, len(sp.CutVertices))
			}
			for i := 1; i < len(sp.CutVertices); i++ {
				if sp.CutVertices[i-1] >= sp.CutVertices[i] {
					t.Fatalf("%v k=%d: CutVertices not strictly ascending", strat, k)
				}
			}
		}
	}
}

// TestOrderRangesCutFewerEdges records one input for the sharded mode and
// claims nothing for it: the edges graph.Power(8000, 3, 2011) cuts at k = 2
// and 4 under contiguous ranges of the engine's node order
// (graph.LocalityOrder), Hash and Range. A range of the breadth-first order
// holds whole neighbourhoods, so it cuts fewer edges than Hash.
func TestOrderRangesCutFewerEdges(t *testing.T) {
	g := graph.Power(8000, 3, 2011)
	toInt, _ := graph.LocalityOrder(g)
	for _, k := range []int{2, 4} {
		cut := map[Strategy]int{}
		for _, strat := range []Strategy{Hash, Range} {
			p, err := NewPartition(g.N, k, strat)
			if err != nil {
				t.Fatal(err)
			}
			cut[strat] = p.SplitEdges(g).CutEdges
		}
		ranges, _ := NewPartition(g.N, k, Range)
		ordered := 0
		for _, ed := range g.Edges {
			if ranges.Owner(toInt[ed.From]) != ranges.Owner(toInt[ed.To]) {
				ordered++
			}
		}
		t.Logf("k=%d: of %d edges, ranges of the order cut %d, hash %d, range %d", k, g.M(), ordered, cut[Hash], cut[Range])
		if ordered >= cut[Hash] {
			t.Errorf("k=%d: ranges of the order cut %d edges, hash %d", k, ordered, cut[Hash])
		}
	}
}

func TestParseStrategy(t *testing.T) {
	for in, want := range map[string]Strategy{"hash": Hash, "Range": Range, " HASH ": Hash} {
		got, err := ParseStrategy(in)
		if err != nil || got != want {
			t.Fatalf("ParseStrategy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseStrategy("modulo"); err == nil {
		t.Fatal("ParseStrategy accepted garbage")
	}
	if _, err := NewPartition(100, 0, Hash); err == nil {
		t.Fatal("NewPartition accepted k=0")
	}
}
