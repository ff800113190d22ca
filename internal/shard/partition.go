// Package shard scales the relational FEM search horizontally: the node
// set is partitioned across k independent core.Engine instances, and shard
// 0's engine coordinates them (core.Engine.SetPeers) — its searches run the
// one FEM loop Pregel-style over k handles: every shard expands its local
// slice of the frontier in parallel with the paper's prepared statements,
// boundary-node (nid, parent, cost) candidates are exchanged between
// supersteps, and the loop terminates on the same §4.1 stopping condition
// evaluated over the global minima. What lives here is what is about
// partitioning: the node-to-shard map and the edge split, and the per-shard
// databases and their counters.
package shard

import (
	"fmt"

	"repro/internal/graph"
)

// Partition is a deterministic node-to-shard map over ids 0..N-1: node nid
// belongs to shard nid % K, so consecutive ids round-robin across shards and
// any locally dense frontier spreads over every shard.
type Partition struct {
	K int
	N int64
}

// NewPartition validates and builds the map.
func NewPartition(n int64, k int) (Partition, error) {
	if k < 1 {
		return Partition{}, fmt.Errorf("shard: shard count must be >= 1, got %d", k)
	}
	if n < 1 {
		return Partition{}, fmt.Errorf("shard: node count must be >= 1, got %d", n)
	}
	return Partition{K: k, N: n}, nil
}

// Owner returns the shard owning node nid.
func (p Partition) Owner(nid int64) int { return int(nid % int64(p.K)) }

// Split is the partitioned edge set.
type Split struct {
	// Edges[i] holds every edge owned by shard i (Owner(From) == i) plus a
	// mirror of every cut edge whose head it owns (Owner(To) == i): forward
	// expansion relaxes a node's out-edges in its owner shard, backward
	// expansion needs the in-edges of owned nodes present locally too.
	Edges [][]graph.Edge
	// CutEdges counts edges whose endpoints live in different shards (each
	// is stored twice, once per endpoint shard).
	CutEdges int
}

// SplitEdges assigns every edge of g to its endpoint shards. Each edge is
// owned by exactly one shard (the tail's); cut edges are mirrored into the
// head's shard so both directions of expansion see them. Deterministic:
// same graph + same partition => same per-shard lists in the same order.
func (p Partition) SplitEdges(g *graph.Graph) *Split {
	sp := &Split{Edges: make([][]graph.Edge, p.K)}
	for _, e := range g.Edges {
		os, od := p.Owner(e.From), p.Owner(e.To)
		sp.Edges[os] = append(sp.Edges[os], e)
		if od != os {
			sp.Edges[od] = append(sp.Edges[od], e)
			sp.CutEdges++
		}
	}
	return sp
}
