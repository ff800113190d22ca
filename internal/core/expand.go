package core

import (
	"context"

	"repro/internal/fem"
)

// direction captures the column asymmetry between forward expansion (from s
// along outgoing edges, maintaining d2s/p2s/f) and backward expansion (from
// t along incoming edges, maintaining d2t/p2t/b) — §4.1's extension of
// TVisited.
type direction struct {
	forward bool
	dist    string // d2s / d2t
	par     string // p2s / p2t
	sign    string // f / b
}

func fwdDir() direction { return direction{forward: true, dist: "d2s", par: "p2s", sign: "f"} }
func bwdDir() direction { return direction{forward: false, dist: "d2t", par: "p2t", sign: "b"} }

// sentinelArgs bind a search's insert list: the not-yet-reached distance
// and unset parent of the direction a new row was not discovered from.
var sentinelArgs = []any{MaxDist, NoParent}

// searchOps is the search's E+M round over sc, as an internal/fem spec:
// expand the rows the frontier predicate selects (over the alias q, e.g.
// "q.f = ?" or "q.nid = ?") through edges, relax d's distance where the
// offer is cheaper, re-opening the row (sign = 0), and insert undiscovered
// nodes with the other direction at the MaxDist sentinel and sign = 1 (not
// a candidate until relaxed from that side). prune appends the Theorem-1
// bound. Rendered once per set and round shape: only bound values change
// between rounds and queries, so the plans come from the cache instead of
// being re-parsed like the paper's client's, which shipped SQL text through
// JDBC every iteration.
func (e *Engine) searchOps(sc *scratchSet, d direction, edges, frontier string, prune bool) fem.Ops {
	if prune {
		frontier += " AND out.cost + q." + d.dist + " + ? < ?"
	}
	key := d.sign + " " + edges + " " + frontier
	if ops, ok := sc.ops[key]; ok {
		return ops
	}
	vals := "source.nid, source.cost, source.par, 0, ?, ?, 1"
	if !d.forward {
		vals = "source.nid, ?, ?, 1, source.cost, source.par, 0"
	}
	sc.ops[key] = fem.Operators(e.level,
		fem.Expand{Edges: edges, Forward: d.forward, Cost: "out.cost + q." + d.dist, Where: frontier, StageCost: sc.expCost},
		fem.Merge{Table: sc.visited, Key: []string{"nid"}, Stage: sc.expand,
			Matched: []fem.Branch{{When: "target." + d.dist + " > source.cost",
				Set: d.dist + " = source.cost, " + d.par + " = source.par, " + d.sign + " = 0"}},
			InsertCols: "nid, d2s, p2s, f, d2t, p2t, b", InsertVals: vals})
	return sc.ops[key]
}

// expandArgs binds the placeholders of the handle's expansions: the
// frontier's stamp, then Theorem-1's when its algorithm prunes.
func (ss *superstep) expandArgs(mark, lOther, minCost int64) []any {
	if !ss.spec.prune {
		return []any{mark}
	}
	bound := minCost
	if ss.e.opts.DisablePruning || bound >= MaxDist {
		bound = 4 * MaxDist // effectively unbounded
	}
	return []any{mark, lOther, bound}
}

// runOps executes the statements of one E+M round, charging each to the E-
// or M-operator's clock, and returns the number of affected working-table
// rows (the SQLCA count Algorithm 1/2 read).
func (e *Engine) runOps(ctx context.Context, qs *QueryStats, stmts []fem.Stmt, src, ins []any) (int64, error) {
	return fem.Run(stmts, func(s fem.Stmt, args []any) (int64, error) {
		op := &qs.EOp
		if s.Op == fem.M {
			op = &qs.MOp
		}
		return e.exec(ctx, qs, &qs.PE, op, s.Text, args...)
	}, src, ins)
}
