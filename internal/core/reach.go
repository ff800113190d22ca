package core

import (
	"context"
	"time"
)

// Reachability via the FEM framework (§3.1 cites it as the simplest graph
// search query): breadth-first search is the shortest-path search under
// unit weights, so Reachable runs the one FEM loop (runSupersteps) with
// specReach — BSDJ's frontier rule, one way, every edge of weight 1. Each
// expansion is one BFS level, and the loop stops at t's.

// ReachResult reports one reachability test.
type ReachResult struct {
	Reachable  bool
	Hops       int // BFS depth at which t appeared (0 when s == t)
	Visited    int
	Iterations int
	Statements int
	Time       time.Duration
}

// Reachable reports whether t is reachable from s following directed edges.
// Like a search it is admitted shared and runs over a leased scratch set.
func (e *Engine) Reachable(s, t int64) (*ReachResult, error) {
	if err := e.guard(wholeGraph); err != nil {
		return nil, err
	}
	ctx := context.Background()
	if err := e.lockShared(ctx); err != nil {
		return nil, err
	}
	defer e.unlockShared()
	snap := e.snapshotStats()
	if err := snap.endpoints(s, t); err != nil {
		return nil, err
	}
	s, t = snap.ord.toInt[s], snap.ord.toInt[t]
	sc, err := e.scratch.acquire()
	if err != nil {
		return nil, err
	}
	defer e.scratch.release(sc)
	hs := []*superstep{e.newSuperstep(sc, specReach(sc), 0)}
	p, qs, err := runSupersteps(ctx, hs, soleOwner, s, t)
	if err != nil {
		return nil, err
	}
	return &ReachResult{Reachable: p.Found, Hops: int(p.Length), Visited: qs.VisitedRows,
		Iterations: qs.Expansions, Statements: qs.Statements, Time: qs.Total}, nil
}
