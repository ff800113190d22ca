package core

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/fem"
)

// A partitioned graph is served by one engine per partition. The engine of
// partition 0 coordinates: it is an ordinary Engine whose searches seat one
// more handle per peer in the FEM loop, so validation, the planner, the path
// cache, commit-time validation, the batch pool and the latency instruments
// are the ones every engine has. The single engine is the empty peer set.

// ErrPartitioned refuses an operation that needs the whole graph — loads,
// index builds, mutations, snapshots, MST, reachability, landmark intervals —
// on an engine that holds one partition of it, and any query put to a
// partition other than the coordinating one.
var ErrPartitioned = errors.New("core: not available on a partitioned graph (the operation needs the whole graph, this engine holds one partition)")

// ErrUnsupportedSuperstep refuses an algorithm hint a partitioned graph
// cannot serve. Node-at-a-time BDJ/DJ never fan out (their frontier is one
// node), and ALT/Label lean on whole-graph indexes that are unsound on a
// partition's subgraph, so only the set-at-a-time frontier algorithms
// (BSDJ, BBFS, BSEG) run over peers.
var ErrUnsupportedSuperstep = errors.New("core: algorithm not supported on a partitioned graph (want BSDJ, BBFS or BSEG)")

// Peers describes a partitioned graph to the engine that coordinates it.
type Peers struct {
	// Others are the engines of partitions 1..k-1 in owner order; the
	// receiver of SetPeers holds partition 0. Every engine is loaded over
	// the full node-id space with its partition's edges (cut edges mirrored
	// at both endpoints' partitions), in one node order (LoadPartition), and
	// carries the indexes it will serve.
	Others []*Engine
	// Owner maps a node, by external id, to the partition holding its
	// authoritative visited row.
	Owner func(nid int64) int
	// Edges is the whole graph's edge pair count, which Engine.Edges reports
	// from then on (partition 0's own rows count its mirrors).
	Edges int
}

// partition is what every member of a peer set shares.
type partition struct {
	Peers
	coord *Engine // partition 0's engine, which coordinates
	// supersteps and exchanged total QueryStats.Iterations and .Exchanged
	// over the coordinator's searches.
	supersteps, exchanged atomic.Uint64
}

// SetPeers makes e the coordinator of a partitioned graph and every engine
// of p a member of it. Call it once, after every member is loaded and
// indexed and before any of them serves: from then on each member refuses
// the whole-graph operations with ErrPartitioned.
func (e *Engine) SetPeers(p Peers) error {
	members := append([]*Engine{e}, p.Others...)
	for i, m := range members {
		switch {
		case m.part != nil:
			return fmt.Errorf("core: partition %d already belongs to a peer set", i)
		case m.Nodes() == 0:
			return fmt.Errorf("partition %d: %w", i, ErrNoGraph)
		case m.Nodes() != e.Nodes():
			return fmt.Errorf("core: partition %d spans %d nodes, partition 0 spans %d", i, m.Nodes(), e.Nodes())
		case !slices.Equal(m.nodeOrder().toExt, e.nodeOrder().toExt):
			return fmt.Errorf("core: partition %d numbers its nodes in another order than partition 0", i)
		case m.level != fem.MergeWindow:
			return fmt.Errorf("core: partition %d lacks the MERGE + window-function SQL level the exchange needs", i)
		}
	}
	pt := &partition{Peers: p, coord: e}
	for _, m := range members {
		m.part = pt
	}
	e.mu.Lock()
	e.edges = p.Edges
	e.mu.Unlock()
	return nil
}

// wholeGraph is guard's argument for an operation that is not a search.
const wholeGraph Algorithm = -1

// guard is the first check of every public entry point: a member of a peer
// set refuses what needs the whole graph, a query unless it coordinates,
// and the hints that cannot run over peers.
func (e *Engine) guard(alg Algorithm) error {
	switch {
	case e.part == nil:
		return nil
	case alg == wholeGraph || e.part.coord != e:
		return ErrPartitioned
	}
	switch alg {
	case AlgAuto, AlgBSDJ, AlgBBFS, AlgBSEG:
		return nil
	}
	return fmt.Errorf("%w: %v", ErrUnsupportedSuperstep, alg)
}

// ExchangeStats reports what the coordinator's searches cost in supersteps
// and in candidates routed between partitions (zero without peers).
func (e *Engine) ExchangeStats() (supersteps, exchanged uint64) {
	if e.part == nil {
		return 0, 0
	}
	return e.part.supersteps.Load(), e.part.exchanged.Load()
}
