package shard

import (
	"reflect"
	"testing"

	"repro/internal/graph"
)

// benchLikeGraph mirrors the parallel-bench workload shape: a weighted
// ring with chord edges at several strides, so the partition sees a
// realistic cut structure.
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
	p1, err := NewPartition(g.N, 4)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := NewPartition(g.N, 4)
	s1, s2 := p1.SplitEdges(g), p2.SplitEdges(g)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("SplitEdges not deterministic")
	}
	for nid := int64(0); nid < g.N; nid++ {
		if p1.Owner(nid) != p2.Owner(nid) {
			t.Fatalf("Owner(%d) not deterministic", nid)
		}
	}
}

// TestPartitionBalance: the owned-node counts stay within 10% of each
// other on the bench graph (it is a congruence map, so they differ by at
// most one), and a map needs at least one shard.
func TestPartitionBalance(t *testing.T) {
	if _, err := NewPartition(100, 0); err == nil {
		t.Fatal("NewPartition accepted k=0")
	}
	g := benchLikeGraph(t, 1030) // deliberately not divisible by k
	for _, k := range []int{2, 3, 4, 7} {
		p, err := NewPartition(g.N, k)
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
			t.Fatalf("k=%d: node counts %v exceed 10%% imbalance", k, counts)
		}
	}
}

// TestSplitEdgesCoverage: every edge is owned by exactly its tail's shard,
// cut edges appear in both endpoint shards (and only those), and the
// total appearance count is M + cutEdges.
func TestSplitEdgesCoverage(t *testing.T) {
	g := benchLikeGraph(t, 512)
	for _, k := range []int{1, 2, 4} {
		p, err := NewPartition(g.N, k)
		if err != nil {
			t.Fatal(err)
		}
		sp := p.SplitEdges(g)
		if len(sp.Edges) != k {
			t.Fatalf("k=%d: %d shard lists", k, len(sp.Edges))
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
			t.Fatalf("k=%d: %d stored edges, want M=%d + cut=%d", k, total, g.M(), sp.CutEdges)
		}
		wantCut := 0
		for _, e := range g.Edges {
			os, od := p.Owner(e.From), p.Owner(e.To)
			shards := appear[key{e.From, e.To, e.Weight}]
			if shards[os] != 1 {
				t.Fatalf("k=%d: edge (%d,%d) appears %d times in owner shard %d, want 1",
					k, e.From, e.To, shards[os], os)
			}
			if os == od {
				if len(shards) != 1 {
					t.Fatalf("k=%d: intra-shard edge (%d,%d) stored in shards %v", k, e.From, e.To, shards)
				}
			} else {
				wantCut++
				if len(shards) != 2 || shards[od] != 1 {
					t.Fatalf("k=%d: cut edge (%d,%d) stored in %v, want shards %d and %d once each",
						k, e.From, e.To, shards, os, od)
				}
			}
		}
		if wantCut != sp.CutEdges {
			t.Fatalf("k=%d: CutEdges=%d, counted %d", k, sp.CutEdges, wantCut)
		}
		if k == 1 && sp.CutEdges != 0 {
			t.Fatalf("k=1 must have no cut: %d edges", sp.CutEdges)
		}
	}
}
