package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/rdb"
)

// The planner suite: table-driven decision pins across graph shapes and
// index states, plus the differential check that every planner choice
// returns a path equal in weight to the in-memory reference.

// lineGraph builds a directed chain 0 -> 1 -> ... -> n-1 with uniform edge
// weight w (both directions, so landmarks cover it well).
func lineGraph(t *testing.T, n int64, w int64) *graph.Graph {
	t.Helper()
	var edges []graph.Edge
	for i := int64(0); i < n-1; i++ {
		edges = append(edges, graph.Edge{From: i, To: i + 1, Weight: w})
		edges = append(edges, graph.Edge{From: i + 1, To: i, Weight: w})
	}
	g, err := graph.New(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPlannerDecisions pins the planner's algorithm choice per graph shape
// and index state. Every case also differentially checks the answer when
// it is exact, so a decision can never be "right" by returning garbage.
func TestPlannerDecisions(t *testing.T) {
	type setup struct {
		name string
		g    *graph.Graph
		seg  int64 // BuildSegTable threshold (0 = skip)
		lmk  int   // BuildOracle landmarks (0 = skip)
		req  QueryRequest
		// wantDecision pins QueryStats.Planner; wantAlg the algorithm that
		// ran (AlgAuto for oracle-only answers).
		wantDecision string
		wantAlg      Algorithm
		wantApprox   bool
	}
	power := graph.Power(400, 3, 5)
	cases := []setup{
		{
			// Tiny graph: indexes exist but indirection cannot pay off.
			name: "tiny", g: graph.Random(60, 180, 3), seg: 8, lmk: 4,
			req:          QueryRequest{Source: 0, Target: 30},
			wantDecision: DecisionTinyBSDJ, wantAlg: AlgBSDJ,
		},
		{
			// Power-law, oracle only: goal-directed ALT.
			name: "power-law-oracle", g: power, lmk: 8,
			req:          QueryRequest{Source: 0, Target: 200},
			wantDecision: DecisionALT, wantAlg: AlgALT,
		},
		{
			// Oracle-cold with a SegTable: BSEG.
			name: "oracle-cold-seg", g: power, seg: 20,
			req:          QueryRequest{Source: 0, Target: 200},
			wantDecision: DecisionBSEG, wantAlg: AlgBSEG,
		},
		{
			// Oracle-cold, no index at all: BSDJ.
			name: "oracle-cold-bare", g: power,
			req:          QueryRequest{Source: 0, Target: 200},
			wantDecision: DecisionBSDJ, wantAlg: AlgBSDJ,
		},
		{
			// Both indexes, compressing SegTable (lthd >> wmin): BSEG.
			name: "both-strong-seg", g: power, seg: 20, lmk: 8,
			req:          QueryRequest{Source: 0, Target: 200},
			wantDecision: DecisionBSEG, wantAlg: AlgBSEG,
		},
		{
			// Both indexes, but lthd < 2*wmin: the segments are single
			// edges, BSEG degenerates to BSDJ, ALT's pruning wins.
			name: "both-weak-seg", g: lineGraph(t, 300, 10), seg: 15, lmk: 4,
			req:          QueryRequest{Source: 0, Target: 299},
			wantDecision: DecisionALTWeakSeg, wantAlg: AlgALT,
		},
		{
			// Positive tolerance with hub landmarks on a chain: the
			// interval closes (every node lies on landmark paths), so the
			// oracle answers without a search.
			name: "tolerance", g: lineGraph(t, 300, 10), lmk: 4,
			req:          QueryRequest{Source: 10, Target: 290, MaxRelError: 0.5},
			wantDecision: DecisionApprox, wantAlg: AlgAuto, wantApprox: true,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEngine(t, tc.g, rdb.Options{}, Options{})
			if tc.seg > 0 {
				if _, err := e.BuildSegTable(tc.seg); err != nil {
					t.Fatal(err)
				}
			}
			if tc.lmk > 0 {
				if _, err := e.BuildOracle(oracle.Config{K: tc.lmk}); err != nil {
					t.Fatal(err)
				}
			}
			res, err := e.Query(context.Background(), tc.req)
			if err != nil {
				t.Fatalf("Query: %v", err)
			}
			if res.Stats == nil || res.Stats.Planner != tc.wantDecision {
				t.Fatalf("planner decision %q, want %q", res.Stats.Planner, tc.wantDecision)
			}
			if res.Algorithm != tc.wantAlg {
				t.Fatalf("algorithm %v, want %v", res.Algorithm, tc.wantAlg)
			}
			if res.Approximate != tc.wantApprox {
				t.Fatalf("approximate=%v, want %v", res.Approximate, tc.wantApprox)
			}
			ref := graph.MDJ(tc.g, tc.req.Source, tc.req.Target)
			if tc.wantApprox {
				if !ref.Found {
					t.Fatal("tolerance case must target a connected pair")
				}
				if res.Lower > ref.Distance || res.Upper < ref.Distance {
					t.Fatalf("interval [%d,%d] misses exact %d", res.Lower, res.Upper, ref.Distance)
				}
				if res.Stats.Statements != 3 {
					// Exactly the three landmark-interval reads, so the
					// auto-vs-manual bench comparison stays truthful.
					t.Fatalf("approximate answer reported %d statements, want 3", res.Stats.Statements)
				}
				return
			}
			checkPath(t, tc.g, res.Algorithm, tc.req.Source, tc.req.Target, res.Path)
			if res.Stats.Iterations == 0 {
				t.Error("exact search should record iterations")
			}
		})
	}
}

// TestPlannerUnreachable: the oracle's sentinel arithmetic proves the
// isolated node unreachable, and the planner answers without any search.
func TestPlannerUnreachable(t *testing.T) {
	g := graph.Power(300, 3, 9)
	widened, err := graph.New(g.N+1, g.Edges) // node g.N is isolated
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, widened, rdb.Options{}, Options{})
	if _, err := e.BuildOracle(oracle.Config{K: 4}); err != nil {
		t.Fatal(err)
	}
	v0 := e.DB().Stats().Statements
	res, err := e.Query(context.Background(), QueryRequest{Source: 0, Target: widened.N - 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("isolated target reported found")
	}
	if res.Stats.Planner != DecisionUnreachable {
		t.Fatalf("decision %q, want %q", res.Stats.Planner, DecisionUnreachable)
	}
	// Only the three interval SELECTs may have run — no search statements.
	if got := e.DB().Stats().Statements - v0; got > 3 {
		t.Fatalf("unreachable answer ran %d statements, want <= 3", got)
	}
}

func mustSeg(t *testing.T, e *Engine, lthd int64) {
	t.Helper()
	if _, err := e.BuildSegTable(lthd); err != nil {
		t.Fatal(err)
	}
}

// TestQueryCacheSharesPlannerChoice: an AlgAuto answer lands in the cache
// under the resolved algorithm, so an explicit hint for that algorithm
// hits it (and vice versa).
func TestQueryCacheSharesPlannerChoice(t *testing.T) {
	g := graph.Power(400, 3, 23)
	e := newTestEngine(t, g, rdb.Options{}, Options{})
	mustSeg(t, e, 20)
	res, err := e.Query(context.Background(), QueryRequest{Source: 1, Target: 300})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != AlgBSEG || res.Stats.CacheHit {
		t.Fatalf("setup: %v cachehit=%v", res.Algorithm, res.Stats.CacheHit)
	}
	hinted, err := e.Query(context.Background(), QueryRequest{Source: 1, Target: 300, Alg: AlgBSEG})
	if err != nil {
		t.Fatal(err)
	}
	if !hinted.Stats.CacheHit {
		t.Error("explicit BSEG hint should hit the auto-cached entry")
	}
	auto, err := e.Query(context.Background(), QueryRequest{Source: 1, Target: 300})
	if err != nil {
		t.Fatal(err)
	}
	if !auto.Stats.CacheHit {
		t.Error("repeated auto query should hit the cache")
	}
}

// TestPlannerReplansOnIndexLoss: a queued auto query whose plan named
// BSEG must replan — not hard-error — when the index vanished while it
// waited on the latch. The regression scenario is a cancelled rebuild,
// which clears segBuilt WITHOUT bumping the graph version (the graph
// itself is unchanged), so a version-only staleness check would miss it.
func TestPlannerReplansOnIndexLoss(t *testing.T) {
	g := graph.Power(400, 3, 41)
	e := newTestEngine(t, g, rdb.Options{}, Options{})
	mustSeg(t, e, 20)

	if err := e.lockQuery(context.Background()); err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res QueryResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := e.Query(context.Background(), QueryRequest{Source: 0, Target: 300})
		done <- outcome{res, err}
	}()
	// Let the goroutine plan (BSEG) and queue behind the held latch, then
	// put the engine in the state a cancelled rebuild leaves: SegTable
	// gone, version untouched (buildSegTableLocked invalidates exactly
	// like this before recreating the tables).
	time.Sleep(50 * time.Millisecond)
	e.mu.Lock()
	e.segBuilt = false
	e.mu.Unlock()
	e.unlockQuery()

	o := <-done
	if o.err != nil {
		t.Fatalf("queued auto query must replan around the lost index, got %v", o.err)
	}
	if o.res.Algorithm == AlgBSEG {
		t.Fatal("BSEG ran without a SegTable")
	}
	checkPath(t, g, o.res.Algorithm, 0, 300, o.res.Path)
}

// TestMaxItersCapAbortsSearch: a tiny iteration cap fails a long search
// loudly instead of spinning.
func TestMaxItersCapAbortsSearch(t *testing.T) {
	g := graph.Power(300, 3, 31)
	small := newTestEngine(t, g, rdb.Options{}, Options{})
	small.maxItersCap = 1
	_, err := small.Query(context.Background(), QueryRequest{Source: 0, Target: 250, Alg: AlgBSDJ})
	if err == nil {
		t.Fatal("an iteration cap of 1 should abort a long search")
	}
	// A trivial query still fits inside one iteration's budget.
	res, err := small.Query(context.Background(), QueryRequest{Source: 7, Target: 7, Alg: AlgAuto})
	if err != nil || !res.Found || res.Distance != 0 {
		t.Fatalf("trivial query under an iteration cap of 1: %v %+v", err, res)
	}
}
