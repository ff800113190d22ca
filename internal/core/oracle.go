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
// BuildSegTable, the build holds the exclusive side of the query gate and
// bumps the graph version (conservatively invalidating cached answers).
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
	// Null the oracle before touching TLandmark: a live oracle goes stale
	// here, so a failed or cancelled rebuild reads as "went cold" — not
	// "never built" — to operators.
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
	// The landmarks are reported, and snapshotted, in external ids.
	orc.Landmarks = e.nodeOrder().external(orc.Landmarks)
	st.Landmarks = orc.Landmarks
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

// DistanceInterval brackets dist(s, t) from the landmark oracle alone —
// three aggregate SELECTs over TLandmark, never touching TEdges:
//
//	Upper = min_l dist(s,l) + dist(l,t)   (a real path through l)
//	Lower = max(0, max_l dout_l(t)-dout_l(s), max_l din_l(s)-din_l(t))
//
// Sentinel arithmetic is deliberate: a landmark that reaches s but not t
// pushes the lower bound past MaxDist/2, which is a genuine proof that no
// s-t path exists (l would reach t through it). It is an ordinary reader:
// one shared admission of the query gate, so it runs beside searches and
// queues behind a writer, abandoning the wait when ctx is cancelled;
// cancellation is honored at every statement boundary too.
func (e *Engine) DistanceInterval(ctx context.Context, s, t int64) (Interval, error) {
	if err := e.guard(wholeGraph); err != nil {
		return Interval{}, err
	}
	if err := e.lockShared(ctx); err != nil {
		return Interval{}, err
	}
	defer e.unlockShared()
	snap := e.snapshotStats()
	if err := snap.endpoints(s, t); err != nil {
		return Interval{}, err
	}
	if snap.orc == nil {
		return Interval{}, fmt.Errorf("core: approximate distance requires BuildOracle first (rebuild after graph changes)")
	}
	if s == t {
		return Interval{Lower: 0, Upper: 0}, nil
	}
	iv, _, err := e.readInterval(ctx, snap.ord.toInt[s], snap.ord.toInt[t])
	return iv, err
}

// The three interval-read shapes over TLandmark: constant texts, endpoints
// bound as parameters, executed as prepared statements so an interval
// read pays no parse/plan cost per lookup.
const (
	approxUpperQ = "SELECT MIN(a.din + b.dout) FROM " + oracle.TblLandmark + " a, " + oracle.TblLandmark +
		" b WHERE a.lid = b.lid AND a.nid = ? AND b.nid = ?"
	approxLowFQ = "SELECT MAX(b.dout - a.dout) FROM " + oracle.TblLandmark + " a, " + oracle.TblLandmark +
		" b WHERE a.lid = b.lid AND a.nid = ? AND b.nid = ?"
	approxLowBQ = "SELECT MAX(a.din - b.din) FROM " + oracle.TblLandmark + " a, " + oracle.TblLandmark +
		" b WHERE a.lid = b.lid AND a.nid = ? AND b.nid = ?"
)

// readInterval runs the three bound queries against the current TLandmark,
// also reporting how many statements actually ran (fewer on error). The
// caller holds a shared admission and has checked the oracle is built;
// readInterval never takes the gate itself, because the gate is
// writer-preferring and a second shared acquire queued behind a waiting
// writer would deadlock.
func (e *Engine) readInterval(ctx context.Context, s, t int64) (Interval, int, error) {
	upper, nullU, err := e.queryInt(ctx, nil, nil, approxUpperQ, s, t)
	if err != nil {
		return Interval{}, 1, err
	}
	lowF, nullF, err := e.queryInt(ctx, nil, nil, approxLowFQ, s, t)
	if err != nil {
		return Interval{}, 2, err
	}
	lowB, nullB, err := e.queryInt(ctx, nil, nil, approxLowBQ, s, t)
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
