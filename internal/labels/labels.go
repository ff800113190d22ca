// Package labels implements a relational pruned 2-hop (hub) label index
// in the spirit of pruned landmark labeling ("Shortest Paths in
// Microseconds", Akiba et al.): for every node v two label sets are
// materialized as relations,
//
//	TLabelOut(nid, hub, dist)  — dist(nid, hub) for hubs on v's out-side
//	TLabelIn (nid, hub, dist)  — dist(hub, nid) for hubs on v's in-side
//
// with a composite index on (nid, hub). The 2-hop cover property makes
// every exact distance a single merge-join over two index scans:
//
//	d(s,t) = MIN(a.dist + b.dist)
//	         FROM TLabelOut a, TLabelIn b
//	         WHERE a.nid = s AND b.nid = t AND a.hub = b.hub
//
// — no frontier loop, no touch of TEdges. Construction processes every
// node with at least one edge as a hub in degree-descending order and runs
// one pruned single-source pass per direction — the SegTable construction's
// set-Dijkstra sweep (internal/sweep), seeded with the hub alone, no bound,
// plus a prune statement: candidates settle in wmin-widened waves, and a
// settled candidate x is pruned (flag 1, not expanded, not labeled) when
// the labels of the already-processed hubs prove d(hub, x) via an earlier
// hub is no longer than the settled distance. Pruning keeps the index near-linear on hub-heavy graphs while
// preserving exactness: a pruned pair is by definition covered by an
// earlier hub, and the classic PLL induction (Akiba et al., Theorem 1)
// carries over because each pass prunes against fully materialized earlier
// labels only (this pass's rows land at pass end, so the batch prunes no
// more aggressively than the sequential algorithm).
//
// The package speaks to the database through the sweep.Runner the engine
// hands it; the engine integration (build latching, AlgLabel, the planner's "labels" decision,
// mutation keep-or-invalidate analysis) lives in internal/core.
package labels

import (
	"fmt"
	"time"

	"repro/internal/sweep"
)

// The label index's relations (declared in internal/sweep).
const (
	// TblOut holds the out-label sets: one row per (nid, hub) with
	// dist(nid, hub).
	TblOut = sweep.TblLabelOut
	// TblIn holds the in-label sets: one row per (nid, hub) with
	// dist(hub, nid).
	TblIn = sweep.TblLabelIn
	// TblScrTo / TblScrFrom are scratch relations for the engine's
	// decremental keep-analysis: label distances to / from a mutated
	// edge's endpoints, materialized per check.
	TblScrTo   = sweep.TblLblTo
	TblScrFrom = sweep.TblLblFrom
)

// Labels describes a built hub-label index. It carries only scalar
// metadata — the label entries themselves live in TLabelOut / TLabelIn.
type Labels struct {
	// Hubs is the number of nodes processed as hubs (every node with at
	// least one edge).
	Hubs int
	// RowsOut / RowsIn are |TLabelOut| and |TLabelIn|.
	RowsOut int
	RowsIn  int
}

// Rows is the total label entry count.
func (l *Labels) Rows() int { return l.RowsOut + l.RowsIn }

// BuildStats reports one label construction.
type BuildStats struct {
	Hubs       int
	RowsOut    int
	RowsIn     int
	Pruned     int64 // settled candidates discarded by the prune rule
	Iterations int   // relaxation rounds across all hubs and directions
	Statements int   // SQL statements issued
	BuildTime  time.Duration
}

func (s *BuildStats) String() string {
	return fmt.Sprintf("Labels(hubs=%d): rows=%d+%d pruned=%d iters=%d stmts=%d time=%v",
		s.Hubs, s.RowsOut, s.RowsIn, s.Pruned, s.Iterations, s.Statements,
		s.BuildTime.Round(time.Millisecond))
}
