// Package oracle implements a relational landmark distance oracle in the
// spirit of the paper's SegTable (§4.3): precomputed shortest-path state
// stored as a relation and queried with SQL. The k highest-degree nodes are
// the landmarks, and for every landmark l the exact distances dist(l, v)
// and dist(v, l) are computed by the SegTable construction's set-Dijkstra
// sweep (internal/sweep), seeded with l alone and run without a bound, and
// materialized into
//
//	TLandmark(lid, nid, dout, din)
//
// with a composite index on (nid, lid). Two consumers sit on top:
//
//   - ALT pruning: for a search toward t, every candidate v carries the
//     lower bound max_l max(dout(t)-dout(v), din(v)-din(t)) <= dist(v,t)
//     (triangle inequality, both directions of a directed graph). The
//     engine folds this term into the frontier-selection SQL so
//     provably-unhelpful tuples never enter the frontier.
//   - Approximate answers: dist(s,t) is bracketed by
//     [max_l lower-bound, min_l dist(s,l)+dist(l,t)] with two aggregate
//     SELECTs over TLandmark and no touch of TEdges.
//
// The package speaks to the database through the sweep.Runner the engine
// hands it; the engine integration (the build's exclusive gate admission,
// versioned invalidation, the ALT femSpec and DistanceInterval) lives in
// internal/core.
package oracle

import (
	"fmt"
	"time"

	"repro/internal/sweep"
)

// TblLandmark is the oracle relation (declared in internal/sweep): one row
// per (landmark, node) with the landmark's id, the node, dist(l, node) and
// dist(node, l).
const TblLandmark = sweep.TblLandmark

// Unreached is the sentinel distance for (landmark, node) pairs with no
// connecting path. It matches core.MaxDist so sentinel arithmetic stays
// consistent across TVisited and TLandmark: a lower bound derived from one
// finite and one Unreached distance is a genuine unreachability proof (see
// the bound derivation in the package comment). It is also the bound the
// per-landmark sweeps run with, i.e. none.
const Unreached = sweep.NoBound

// Config is the caller-facing build configuration.
type Config struct {
	// K is the number of landmarks, the K highest-degree nodes (in+out):
	// cheap, and on power-law graphs the hubs cover most shortest paths. 0
	// selects DefaultK; K is clamped to the number of nodes.
	K int
}

// DefaultK is the landmark count used when Config.K is zero.
const DefaultK = 8

// Oracle describes a built landmark oracle. It carries only scalar
// metadata — the distances themselves live in TLandmark.
type Oracle struct {
	K         int
	Landmarks []int64
	// Rows is |TLandmark| = K * |V|.
	Rows int
}

// BuildStats reports one oracle construction.
type BuildStats struct {
	K          int
	Landmarks  []int64
	Rows       int
	Iterations int // relaxation rounds across all landmarks and directions
	Statements int // SQL statements issued
	BuildTime  time.Duration
}

func (s *BuildStats) String() string {
	return fmt.Sprintf("Oracle(k=%d): rows=%d iters=%d stmts=%d time=%v",
		s.K, s.Rows, s.Iterations, s.Statements,
		s.BuildTime.Round(time.Millisecond))
}
