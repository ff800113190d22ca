package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/rdb"
)

// The hub-label test battery: an all-pairs differential against graph.MDJ
// on the shared differential graphs, the planner preference / degradation
// contract and the per-mutation keep-vs-invalidate analysis on a
// handcrafted graph where every verdict is provable by eye. The randomized
// churn with rebuild-on-invalidation, TestLabelMutationDifferential, is a
// model script (model_test.go).

// buildLabels builds the hub-label index or fails the test.
func buildLabels(t *testing.T, e *Engine) {
	t.Helper()
	if _, err := e.BuildLabels(); err != nil {
		t.Fatalf("labels: %v", err)
	}
}

// TestLabelDifferential: the label answer, distance and recovered route,
// is exact on every pair, s == t and the isolated node included.
func TestLabelDifferential(t *testing.T) {
	for name, g := range differentialGraphs() {
		t.Run(name, func(t *testing.T) {
			m := newModel(t, 1, rdb.Options{}, Options{})
			m.algs = []Algorithm{AlgLabel}
			m.load(g)
			m.buildLabels()
			if lbl := m.e.Labels(); lbl.Rows() == 0 || lbl.Hubs == 0 {
				t.Fatalf("label index empty after build: %+v", lbl)
			}
			var pairs [][2]int64
			for s := int64(0); s < g.N; s++ {
				for d := int64(0); d < g.N; d++ {
					pairs = append(pairs, [2]int64{s, d})
				}
			}
			m.query(pairs)
		})
	}
}

func TestLabelPlannerPreference(t *testing.T) {
	g := graph.Power(60, 3, 7)
	mirror := g.Clone()
	e := newTestEngine(t, g, rdb.Options{}, Options{})
	buildLabels(t, e)

	queries := graph.RandomQueries(mirror, 8, 11)
	for _, q := range queries {
		res, err := e.Query(context.Background(), QueryRequest{Source: q[0], Target: q[1]})
		if err != nil {
			t.Fatalf("auto s=%d t=%d: %v", q[0], q[1], err)
		}
		if q[0] != q[1] {
			if res.Stats.Planner != DecisionLabels {
				t.Fatalf("planner chose %q with a valid label index", res.Stats.Planner)
			}
			if res.Algorithm != AlgLabel {
				t.Fatalf("decision %q ran %v, want %v", res.Stats.Planner, res.Algorithm, AlgLabel)
			}
		}
		checkPath(t, mirror, res.Algorithm, q[0], q[1], res.Path)
	}

	// A shortcut edge (strictly below the current distance) cannot be
	// absorbed: the index must go cold and the planner must degrade to a
	// frontier search — still exact — while the AlgLabel hint refuses.
	u, v := findDistantPair(t, mirror)
	v0 := e.GraphVersion()
	st, err := e.InsertEdge(u, v, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := mirror.InsertEdge(u, v, 1); err != nil {
		t.Fatal(err)
	}
	if !st.LabelsInvalidated {
		t.Error("shortcut insert must report LabelsInvalidated")
	}
	if e.Labels() != nil || !e.LabelsInvalidated() {
		t.Fatalf("shortcut insert must kill the index: labels=%v stale=%v",
			e.Labels(), e.LabelsInvalidated())
	}
	if e.GraphVersion() != v0+1 {
		t.Errorf("mutation must bump the version: %d -> %d", v0, e.GraphVersion())
	}
	if _, _, err := shortestPath(e, AlgLabel, u, v); err == nil ||
		!strings.Contains(err.Error(), "BuildLabels") {
		t.Fatalf("AlgLabel hint must refuse while stale, got %v", err)
	}
	for _, q := range queries {
		res, err := e.Query(context.Background(), QueryRequest{Source: q[0], Target: q[1]})
		if err != nil {
			t.Fatalf("degraded auto s=%d t=%d: %v", q[0], q[1], err)
		}
		if res.Stats.Planner == DecisionLabels {
			t.Fatalf("planner still says %q after invalidation", res.Stats.Planner)
		}
		checkPath(t, mirror, res.Algorithm, q[0], q[1], res.Path)
	}

	// Rebuilding restores the preference; a graph reload clears both the
	// index and the stale marker (fresh graph, clean slate).
	buildLabels(t, e)
	if e.Labels() == nil || e.LabelsInvalidated() {
		t.Fatal("rebuild must clear the stale marker")
	}
	res, err := e.Query(context.Background(), QueryRequest{Source: u, Target: v})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Planner != DecisionLabels {
		t.Fatalf("planner chose %q after rebuild", res.Stats.Planner)
	}
	checkPath(t, mirror, res.Algorithm, u, v, res.Path)
	if err := e.LoadGraph(mirror); err != nil {
		t.Fatal(err)
	}
	if e.Labels() != nil || e.LabelsInvalidated() {
		t.Fatal("LoadGraph must reset the label state to never-built")
	}
}

// findDistantPair returns a reachable pair at distance > 1, so inserting a
// weight-1 edge between them strictly shortens the graph.
func findDistantPair(t *testing.T, g *graph.Graph) (int64, int64) {
	t.Helper()
	for s := int64(0); s < g.N; s++ {
		for d := int64(0); d < g.N; d++ {
			if s == d {
				continue
			}
			if ref := graph.MDJ(g, s, d); ref.Found && ref.Distance > 1 {
				return s, d
			}
		}
	}
	t.Fatal("no reachable pair at distance > 1")
	return 0, 0
}

// TestLabelKeepAnalysis drives each keep / invalidate verdict on a
// four-node graph small enough to verify by hand:
//
//	0 -> 1 -> 2 -> 3   (weight 2 each; the only shortest chain)
//	0 ------> 2        (weight 5; strictly non-shortest chord)
func TestLabelKeepAnalysis(t *testing.T) {
	mirror, err := graph.New(4, []graph.Edge{
		{From: 0, To: 1, Weight: 2},
		{From: 1, To: 2, Weight: 2},
		{From: 2, To: 3, Weight: 2},
		{From: 0, To: 2, Weight: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, mirror.Clone(), rdb.Options{}, Options{})
	buildLabels(t, e)

	allPairs := func(stage string) {
		t.Helper()
		for s := int64(0); s < mirror.N; s++ {
			for d := int64(0); d < mirror.N; d++ {
				p, _, err := shortestPath(e, AlgLabel, s, d)
				if err != nil {
					t.Fatalf("%s: label s=%d t=%d: %v", stage, s, d, err)
				}
				checkPath(t, mirror, AlgLabel, s, d, p)
			}
		}
	}
	expectKeep := func(stage string, st *MaintStats) {
		t.Helper()
		if st.LabelsInvalidated || e.Labels() == nil {
			t.Fatalf("%s: keep-analysis should have absorbed this mutation (stats %+v)", stage, st)
		}
		allPairs(stage)
	}
	expectInvalidate := func(stage string, st *MaintStats) {
		t.Helper()
		if !st.LabelsInvalidated || e.Labels() != nil || !e.LabelsInvalidated() {
			t.Fatalf("%s: mutation must invalidate the index (stats %+v)", stage, st)
		}
		buildLabels(t, e)
		allPairs(stage + " (rebuilt)")
	}
	allPairs("initial build")

	// Insert at exactly the current distance: redundant, kept.
	st, err := e.InsertEdge(0, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := mirror.InsertEdge(0, 3, 6); err != nil {
		t.Fatal(err)
	}
	expectKeep("insert 0->3 w6 (= d)", st)

	// Insert strictly above the current distance: kept.
	if st, err = e.InsertEdge(1, 3, 7); err != nil {
		t.Fatal(err)
	}
	if err := mirror.InsertEdge(1, 3, 7); err != nil {
		t.Fatal(err)
	}
	expectKeep("insert 1->3 w7 (> d)", st)

	// Decrease down to the current distance: still covered, kept.
	if st, err = e.UpdateEdgeWeight(1, 3, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := mirror.UpdateEdgeWeight(1, 3, 4); err != nil {
		t.Fatal(err)
	}
	expectKeep("update 1->3 w7->4 (= d)", st)

	// Delete the strictly non-shortest chord: no label entry can have
	// routed through it, kept.
	if st, err = e.DeleteEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := mirror.DeleteEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	expectKeep("delete non-shortest chord 0->2 w5", st)

	keeps := e.MutationStats().LabelKeeps
	if keeps != 4 {
		t.Errorf("LabelKeeps = %d, want 4", keeps)
	}

	// Shortcut insert below the current distance: invalidated.
	if st, err = e.InsertEdge(0, 2, 3); err != nil {
		t.Fatal(err)
	}
	if err := mirror.InsertEdge(0, 2, 3); err != nil {
		t.Fatal(err)
	}
	expectInvalidate("shortcut insert 0->2 w3", st)

	// Increase a bridge on shortest paths: invalidated.
	if st, err = e.UpdateEdgeWeight(2, 3, 6); err != nil {
		t.Fatal(err)
	}
	if _, err := mirror.UpdateEdgeWeight(2, 3, 6); err != nil {
		t.Fatal(err)
	}
	expectInvalidate("update bridge 2->3 w2->6", st)

	// Delete a bridge — pair (1, 2) becomes unreachable; the rebuilt index
	// must certify that too.
	if st, err = e.DeleteEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := mirror.DeleteEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	expectInvalidate("delete bridge 1->2", st)
	if ref := graph.MDJ(mirror, 1, 2); ref.Found {
		t.Fatal("test premise broken: 1->2 should be unreachable now")
	}

	ms := e.MutationStats()
	if ms.LabelKeeps != 4 || ms.LabelInvalidations != 3 {
		t.Errorf("counters: keeps=%d invalidations=%d, want 4 and 3",
			ms.LabelKeeps, ms.LabelInvalidations)
	}
}
