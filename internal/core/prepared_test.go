package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rdb"
)

// TestEngineStatementsHitPlanCache checks the FEM loops execute through
// the plan cache: after the first search compiled its shapes, repeated
// searches are almost entirely cache hits, and the parse/plan duration
// stops growing with the workload.
func TestEngineStatementsHitPlanCache(t *testing.T) {
	g := graph.Power(400, 3, 5)
	e := newTestEngine(t, g, rdb.Options{}, Options{CacheSize: -1}) // no path cache: every query runs SQL
	q := graph.RandomQueries(g, 4, 9)

	if _, _, err := shortestPath(e, AlgBSDJ, q[0][0], q[0][1]); err != nil {
		t.Fatal(err)
	}
	warm := e.DB().Stats()
	for _, pair := range q {
		if _, _, err := shortestPath(e, AlgBSDJ, pair[0], pair[1]); err != nil {
			t.Fatal(err)
		}
	}
	st := e.DB().Stats()
	hits := st.PlanCacheHits - warm.PlanCacheHits
	misses := st.PlanCacheMisses - warm.PlanCacheMisses
	if hits == 0 {
		t.Fatal("repeated searches produced zero plan-cache hits")
	}
	if misses > hits/10 {
		t.Errorf("warm searches still compiling: %d misses vs %d hits", misses, hits)
	}
}

// TestLoadGraphInvalidatesPlans is the core-level dropped-heapfile test:
// LoadGraph drops and recreates every table, so every cached plan must
// recompile — and queries on the new graph must be answered from the new
// tables.
func TestLoadGraphInvalidatesPlans(t *testing.T) {
	g1 := graph.Power(300, 3, 5)
	e := newTestEngine(t, g1, rdb.Options{}, Options{})
	q := graph.RandomQueries(g1, 2, 9)
	if _, _, err := shortestPath(e, AlgBSDJ, q[0][0], q[0][1]); err != nil {
		t.Fatal(err)
	}

	base := e.DB().Stats()
	// A different graph under the same table names.
	g2 := graph.Power(200, 2, 11)
	if err := e.LoadGraph(g2); err != nil {
		t.Fatal(err)
	}
	if st := e.DB().Stats(); st.SchemaEpoch <= base.SchemaEpoch {
		t.Fatalf("LoadGraph did not advance the schema epoch: %d -> %d", base.SchemaEpoch, st.SchemaEpoch)
	}
	// The engine's cached plans were compiled against dropped tables; they
	// must transparently recompile, not read stale storage.
	p, _, err := shortestPath(e, AlgBSDJ, 0, 1)
	if err != nil {
		t.Fatalf("query after reload: %v", err)
	}
	if e.Nodes() != 200 {
		t.Fatalf("engine reports %d nodes after reload", e.Nodes())
	}
	_ = p
	if st := e.DB().Stats(); st.PlanCacheInvalidations == base.PlanCacheInvalidations {
		t.Error("expected plan invalidations after LoadGraph's table rebuild")
	}
}
