package core

import (
	"context"
	"fmt"

	"repro/internal/oracle"
)

// The oracle's Unreached sentinel must equal MaxDist: the ALT prune mixes
// TVisited distances with TLandmark bound differences in one comparison,
// and the approximate-answer thresholds assume one sentinel scale.
var _ [1]struct{} = [MaxDist - oracle.Unreached + 1]struct{}{}

// BuildOracle constructs (or rebuilds) the landmark distance oracle for
// the loaded graph: k landmarks picked by the configured strategy, exact
// per-landmark distances computed by the SegTable sweep seeded with one
// node and run without a bound, materialized into
// TLandmark(lid, nid, dout, din). Like
// BuildSegTable, the build excludes searches and bumps the graph version
// (conservatively invalidating cached answers).
func (e *Engine) BuildOracle(cfg oracle.Config) (*oracle.BuildStats, error) {
	return e.BuildOracleContext(context.Background(), cfg)
}

// BuildOracleContext is BuildOracle with cooperative cancellation: a
// cancelled ctx aborts the build at the next statement or relaxation round.
// The oracle pointer is only installed after a complete build, so a
// cancelled build reads as "not built" (or "went cold", if one existed) —
// never as a partial TLandmark.
func (e *Engine) BuildOracleContext(ctx context.Context, cfg oracle.Config) (*oracle.BuildStats, error) {
	release, err := e.beginBuild(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	if cfg.K < 0 {
		return nil, fmt.Errorf("core: landmark count must be non-negative, got %d (0 selects the default of %d)", cfg.K, oracle.DefaultK)
	}
	// Invalidate before touching TLandmark: ApproxDistance runs off the
	// query latch, and a rebuild over a live oracle must make concurrent
	// lookups refuse cleanly rather than read a half-built relation. A
	// live oracle also goes stale here, so a failed rebuild reads as
	// "went cold" — not "never built" — to operators.
	e.mu.Lock()
	if e.orc != nil {
		e.orcStale = true
	}
	e.orc = nil
	e.mu.Unlock()
	orc, st, err := oracle.Build(ctx, e.sweeper(nil), cfg)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.orc = orc
	e.orcStale = false
	e.bumpVersionLocked()
	e.mu.Unlock()
	return st, nil
}

// Interval is an approximate-distance answer: Lower <= dist(s,t) <= Upper.
// Upper == MaxDist means no landmark certifies a path (the upper bound is
// unknown); Lower == MaxDist is a proof that no path exists at all.
type Interval struct {
	Lower int64
	Upper int64
}

// Unreachable reports a certified absence of any s-t path.
func (iv Interval) Unreachable() bool { return iv.Lower >= MaxDist }

// UpperKnown reports whether some landmark lies on an s-t path, making
// Upper a real path length.
func (iv Interval) UpperKnown() bool { return iv.Upper < MaxDist }

// Exact reports a closed interval: the approximate answer IS the distance.
func (iv Interval) Exact() bool { return iv.UpperKnown() && iv.Lower == iv.Upper }

// approxRetries bounds the optimistic-concurrency loop in DistanceInterval.
const approxRetries = 3

// DistanceInterval is the latch-free interval primitive behind the query
// planner: it brackets dist(s, t) from the landmark oracle alone — three
// aggregate SELECTs over TLandmark, never touching TEdges and never taking
// the query latch, so approximate answers stay fast while exact searches
// are running:
//
//	Upper = min_l dist(s,l) + dist(l,t)   (a real path through l)
//	Lower = max(0, max_l dout_l(t)-dout_l(s), max_l din_l(s)-din_l(t))
//
// Sentinel arithmetic is deliberate: a landmark that reaches s but not t
// pushes the lower bound past MaxDist/2, which is a genuine proof that no
// s-t path exists (l would reach t through it). Consistency with
// concurrent graph changes comes from optimistic version validation — the
// reads retry when the (graph, index) generation moves underneath them;
// cancellation is honored at every statement boundary through ctx.
func (e *Engine) DistanceInterval(ctx context.Context, s, t int64) (Interval, error) {
	if err := e.guard(wholeGraph); err != nil {
		return Interval{}, err
	}
	iv, _, err := e.distanceIntervalStats(ctx, s, t)
	return iv, err
}

// distanceIntervalStats is DistanceInterval plus the number of statements
// the reads issued (three per optimistic attempt), so callers that answer
// from the oracle alone can report a truthful cost.
func (e *Engine) distanceIntervalStats(ctx context.Context, s, t int64) (Interval, int, error) {
	stmts := 0
	for try := 0; try < approxRetries; try++ {
		e.mu.RLock()
		nodes, version, orc := e.nodes, e.version, e.orc
		e.mu.RUnlock()
		if nodes == 0 {
			return Interval{}, stmts, ErrNoGraph
		}
		if s < 0 || t < 0 || int(s) >= nodes || int(t) >= nodes {
			return Interval{}, stmts, fmt.Errorf("core: node out of range (n=%d)", nodes)
		}
		if orc == nil {
			return Interval{}, stmts, fmt.Errorf("core: approximate distance requires BuildOracle first (rebuild after graph changes)")
		}
		if s == t {
			return Interval{Lower: 0, Upper: 0}, stmts, nil
		}

		iv, n, err := e.approxOnce(ctx, s, t)
		stmts += n
		e.mu.RLock()
		stable := e.version == version && e.orc == orc
		e.mu.RUnlock()
		if err != nil {
			if !stable {
				continue // the read straddled a rebuild; retry cleanly
			}
			return Interval{}, stmts, err
		}
		if stable {
			return iv, stmts, nil
		}
	}
	return Interval{}, stmts, fmt.Errorf("core: graph kept changing during approximate lookup")
}

// The three interval-read shapes over TLandmark: constant texts, endpoints
// bound as parameters, executed as prepared statements so the latch-free
// approximate path pays no parse/plan cost per lookup.
const (
	approxUpperQ = "SELECT MIN(a.din + b.dout) FROM " + oracle.TblLandmark + " a, " + oracle.TblLandmark +
		" b WHERE a.lid = b.lid AND a.nid = ? AND b.nid = ?"
	approxLowFQ = "SELECT MAX(b.dout - a.dout) FROM " + oracle.TblLandmark + " a, " + oracle.TblLandmark +
		" b WHERE a.lid = b.lid AND a.nid = ? AND b.nid = ?"
	approxLowBQ = "SELECT MAX(a.din - b.din) FROM " + oracle.TblLandmark + " a, " + oracle.TblLandmark +
		" b WHERE a.lid = b.lid AND a.nid = ? AND b.nid = ?"
)

// approxQueryInt runs one interval read through the engine statement cache.
func (e *Engine) approxQueryInt(ctx context.Context, q string, s, t int64) (int64, bool, error) {
	st, err := e.stmt(q)
	if err != nil {
		return 0, false, err
	}
	return st.QueryIntContext(ctx, s, t)
}

// approxOnce runs the three bound queries against the current TLandmark,
// also reporting how many statements actually ran (fewer on error).
func (e *Engine) approxOnce(ctx context.Context, s, t int64) (Interval, int, error) {
	upper, nullU, err := e.approxQueryInt(ctx, approxUpperQ, s, t)
	if err != nil {
		return Interval{}, 1, err
	}
	lowF, nullF, err := e.approxQueryInt(ctx, approxLowFQ, s, t)
	if err != nil {
		return Interval{}, 2, err
	}
	lowB, nullB, err := e.approxQueryInt(ctx, approxLowBQ, s, t)
	if err != nil {
		return Interval{}, 3, err
	}
	lower := int64(0)
	if !nullF && lowF > lower {
		lower = lowF
	}
	if !nullB && lowB > lower {
		lower = lowB
	}
	if lower >= MaxDist/2 {
		lower = MaxDist // certified unreachable
	}
	if nullU || upper >= MaxDist/2 {
		upper = MaxDist // no landmark-certified path
	}
	return Interval{Lower: lower, Upper: upper}, 3, nil
}
