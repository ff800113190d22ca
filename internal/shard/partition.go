// Package shard scales the relational FEM search horizontally: the node
// set is partitioned across k independent core.Engine instances, and shard
// 0's engine coordinates them (core.Engine.SetPeers) — its searches run the
// one FEM loop Pregel-style over k handles: every shard expands its local
// slice of the frontier in parallel with the paper's prepared statements,
// boundary-node (nid, parent, cost) candidates are exchanged between
// supersteps, and the loop terminates on the same §4.1 stopping condition
// evaluated over the global minima. What lives here is what is about
// partitioning: the node-to-shard map and the edge split, the per-shard
// databases and their counters, and a small cut-vertex sketch (precomputed
// portal distances) whose admissible upper bound prunes supersteps that
// cannot improve the answer.
package shard

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/graph"
)

// Strategy picks how node ids map to shards.
type Strategy int

const (
	// Hash assigns nid % k: consecutive ids round-robin across shards, so
	// any locally dense frontier spreads over every shard — maximum
	// intra-query parallelism at the price of more cut edges.
	Hash Strategy = iota
	// Range assigns contiguous blocks of ceil(N/k) ids per shard: id-local
	// structure (generated graphs wire mostly nearby ids) stays intra-shard,
	// minimizing cut edges at the price of frontier skew — a frontier
	// confined to one block keeps the other shards idle.
	Range
)

// ParseStrategy resolves the -partition flag values.
func ParseStrategy(s string) (Strategy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "hash":
		return Hash, nil
	case "range":
		return Range, nil
	}
	return 0, fmt.Errorf("shard: unknown partition strategy %q (want hash or range)", s)
}

func (s Strategy) String() string {
	switch s {
	case Hash:
		return "hash"
	case Range:
		return "range"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Partition is a deterministic node-to-shard map over ids 0..N-1.
type Partition struct {
	K        int
	N        int64
	Strategy Strategy
	block    int64 // Range block width, ceil(N/K)
}

// NewPartition validates and builds the map.
func NewPartition(n int64, k int, strat Strategy) (Partition, error) {
	if k < 1 {
		return Partition{}, fmt.Errorf("shard: shard count must be >= 1, got %d", k)
	}
	if n < 1 {
		return Partition{}, fmt.Errorf("shard: node count must be >= 1, got %d", n)
	}
	if strat != Hash && strat != Range {
		return Partition{}, fmt.Errorf("shard: invalid strategy %d", int(strat))
	}
	p := Partition{K: k, N: n, Strategy: strat}
	p.block = (n + int64(k) - 1) / int64(k)
	return p, nil
}

// Owner returns the shard owning node nid.
func (p Partition) Owner(nid int64) int {
	if p.Strategy == Hash {
		return int(nid % int64(p.K))
	}
	o := int(nid / p.block)
	if o >= p.K { // only reachable for nid >= N; clamp defensively
		o = p.K - 1
	}
	return o
}

// Split is the partitioned edge set: per-shard edge lists plus the cut
// structure the sketch builds on.
type Split struct {
	// Edges[i] holds every edge owned by shard i (Owner(From) == i) plus a
	// mirror of every cut edge whose head it owns (Owner(To) == i): forward
	// expansion relaxes a node's out-edges in its owner shard, backward
	// expansion needs the in-edges of owned nodes present locally too.
	Edges [][]graph.Edge
	// CutEdges counts edges whose endpoints live in different shards (each
	// is stored twice, once per endpoint shard).
	CutEdges int
	// CutVertices lists, in ascending order, every node incident to a cut
	// edge — the portal candidates for the boundary-distance sketch.
	CutVertices []int64
}

// SplitEdges assigns every edge of g to its endpoint shards. Each edge is
// owned by exactly one shard (the tail's); cut edges are mirrored into the
// head's shard so both directions of expansion see them. Deterministic:
// same graph + same partition => same per-shard lists in the same order.
func (p Partition) SplitEdges(g *graph.Graph) *Split {
	sp := &Split{Edges: make([][]graph.Edge, p.K)}
	cut := make(map[int64]struct{})
	for _, e := range g.Edges {
		os, od := p.Owner(e.From), p.Owner(e.To)
		sp.Edges[os] = append(sp.Edges[os], e)
		if od != os {
			sp.Edges[od] = append(sp.Edges[od], e)
			sp.CutEdges++
			cut[e.From] = struct{}{}
			cut[e.To] = struct{}{}
		}
	}
	sp.CutVertices = make([]int64, 0, len(cut))
	for v := range cut {
		sp.CutVertices = append(sp.CutVertices, v)
	}
	sort.Slice(sp.CutVertices, func(i, j int) bool { return sp.CutVertices[i] < sp.CutVertices[j] })
	return sp
}
