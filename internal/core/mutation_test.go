package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/rdb"
)

// mutationGraph returns a connected-ish random graph and a deep copy to
// mutate as the in-memory mirror.
func mutationGraph(t *testing.T, n int64, m int, seed int64) (*graph.Graph, *graph.Graph) {
	t.Helper()
	g := graph.Random(n, m, seed)
	return g, g.Clone()
}

// checkAllAlgorithms runs every algorithm (ALT only when an oracle is
// built) over the queries and compares against the mirror.
func checkAllAlgorithms(t *testing.T, e *Engine, mirror *graph.Graph, queries [][2]int64) {
	t.Helper()
	for _, alg := range allAlgorithms() {
		if alg == AlgALT && e.Oracle() == nil {
			continue
		}
		if alg == AlgBSEG && e.SegLthd() == 0 {
			continue
		}
		for _, q := range queries {
			p, _, err := shortestPath(e, alg, q[0], q[1])
			if err != nil {
				t.Fatalf("%v s=%d t=%d: %v", alg, q[0], q[1], err)
			}
			checkPath(t, mirror, alg, q[0], q[1], p)
		}
	}
}

// TestDeleteEdgeScopedRepair is the acceptance-criterion test: DeleteEdge
// followed by a re-query returns exact distances with no manual
// BuildSegTable, and the scoped (non-rebuild) repair path is the one that
// ran. The repaired SegTable must equal a from-scratch rebuild row for row.
func TestDeleteEdgeScopedRepair(t *testing.T) {
	m := newModel(t, 5, rdb.Options{}, Options{})
	m.load(modelGraph(graph.Random(30, 70, 21), m.rnd, 9))
	m.buildSeg(15) // small weights against lthd keep multi-hop segments common
	var repaired int64
	for i := 0; i < 8; i++ {
		ed := m.mirror.Edges[m.rnd.Intn(m.mirror.M())]
		st := m.apply(Mutation{Op: MutDelete, From: ed.From, To: ed.To})
		if st.Rebuilt {
			t.Fatalf("delete (%d,%d): fell back to a rebuild under the default threshold", ed.From, ed.To)
		}
		repaired += st.Repaired
	}
	if repaired == 0 || m.want.SegRepairs == 0 {
		t.Errorf("eight deletions on a dense graph repaired %d rows in %d scoped repairs", repaired, m.want.SegRepairs)
	}
	m.sameAsRebuild()
	m.query(m.draw(8))
}

// TestUpdateEdgeWeight covers both repair directions: a relaxation takes
// the insertion-style maintenance, a weakening the decremental pass, and
// every algorithm stays exact against the mirror either way.
func TestUpdateEdgeWeight(t *testing.T) {
	m := newModel(t, 17, rdb.Options{}, Options{})
	m.load(graph.Random(25, 60, 8))
	m.buildSeg(15)
	for step := 0; step < 10; step++ {
		ed := m.mirror.Edges[m.rnd.Intn(m.mirror.M())]
		w := 1 + m.rnd.Int63n(3) // likely a relaxation
		if step%2 == 1 {
			w = 50 + m.rnd.Int63n(50) // likely a weakening
		}
		m.apply(Mutation{Op: MutUpdate, From: ed.From, To: ed.To, Weight: w})
	}
	m.sameAsRebuild()
	m.query(m.draw(8))
}

// TestMutationsOnPostgresProfile drives delete and weaken repairs through
// the merge-free statement forms.
func TestMutationsOnPostgresProfile(t *testing.T) {
	m := newModel(t, 9, rdb.Options{Profile: rdb.ProfilePostgreSQL9}, Options{})
	m.load(graph.Random(20, 50, 9))
	m.buildSeg(12)
	del, upd := m.mirror.Edges[0], m.mirror.Edges[1]
	m.apply(Mutation{Op: MutDelete, From: del.From, To: del.To})
	m.apply(Mutation{Op: MutUpdate, From: upd.From, To: upd.To, Weight: upd.Weight + 40})
	m.sameAsRebuild()
}

// TestRepairThresholdFallback: a negative threshold forces every
// decremental repair into the rebuild path, which must stay exact too.
func TestRepairThresholdFallback(t *testing.T) {
	m := newModel(t, 33, rdb.Options{}, Options{})
	m.e.repairThreshold = -1
	m.load(graph.Random(25, 60, 33))
	m.buildSeg(15)
	ed := m.mirror.Edges[4]
	if st := m.apply(Mutation{Op: MutDelete, From: ed.From, To: ed.To}); !st.Rebuilt {
		t.Fatalf("negative threshold must force a rebuild: %+v", st)
	}
	if w := m.want; w.SegRebuilds != 1 || w.SegRepairs != 0 {
		t.Errorf("counters after forced rebuild: %+v", w)
	}
	m.query(m.draw(6)) // checkEngine: the rebuild kept the lthd
}

// TestDeleteEdgeRefreshesWMin: removing the cheapest edge must re-derive
// the engine's minimal weight (the frontier-selection bound).
func TestDeleteEdgeRefreshesWMin(t *testing.T) {
	edges := []graph.Edge{
		{From: 0, To: 1, Weight: 1},
		{From: 1, To: 2, Weight: 5},
		{From: 0, To: 2, Weight: 9},
	}
	g, err := graph.New(3, edges)
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, g, rdb.Options{}, Options{})
	if e.WMin() != 1 {
		t.Fatalf("wmin: %d", e.WMin())
	}
	if _, err := e.DeleteEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if e.WMin() != 5 {
		t.Fatalf("wmin after delete: %d", e.WMin())
	}
	if _, err := e.UpdateEdgeWeight(1, 2, 12); err != nil {
		t.Fatal(err)
	}
	if e.WMin() != 9 {
		t.Fatalf("wmin after weaken: %d", e.WMin())
	}
	if _, err := e.UpdateEdgeWeight(1, 2, 2); err != nil {
		t.Fatal(err)
	}
	if e.WMin() != 2 {
		t.Fatalf("wmin after relax: %d", e.WMin())
	}
	if e.Edges() != 2 {
		t.Fatalf("edge count: %d", e.Edges())
	}
}

// TestMutationErrors pins the validation surface.
func TestMutationErrors(t *testing.T) {
	g := graph.Random(10, 20, 4)
	e := newTestEngine(t, g, rdb.Options{}, Options{})
	for name, fn := range map[string]func() error{
		"delete missing":      func() error { _, err := e.DeleteEdge(0, 9); return err },
		"delete out of range": func() error { _, err := e.DeleteEdge(0, 99); return err },
		"update missing":      func() error { _, err := e.UpdateEdgeWeight(0, 9, 3); return err },
		"update zero weight":  func() error { _, err := e.UpdateEdgeWeight(0, 1, 0); return err },
		"insert zero weight":  func() error { _, err := e.InsertEdge(0, 1, 0); return err },
		"batch bad op":        func() error { _, err := e.ApplyMutations([]Mutation{{Op: MutOp(9), From: 0, To: 1}}); return err },
	} {
		if err := fn(); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
	// DeleteEdge(0, 9) depends on the workload not containing that pair.
	found := false
	for _, ed := range g.Edges {
		if ed.From == 0 && ed.To == 9 {
			found = true
		}
	}
	if found {
		t.Fatal("test workload has edge (0,9); pick another seed")
	}
}

// TestApplyMutationsBatch: one latch acquisition, one version bump, one
// cache purge for the whole batch — and the result is exact.
func TestApplyMutationsBatch(t *testing.T) {
	g, mirror := mutationGraph(t, 25, 60, 11)
	e := newTestEngine(t, g, rdb.Options{}, Options{})
	if _, err := e.BuildSegTable(12); err != nil {
		t.Fatal(err)
	}
	// Warm the cache so the purge is observable.
	queries := graph.RandomQueries(mirror, 5, 6)
	for _, q := range queries {
		if _, _, err := shortestPath(e, AlgBSDJ, q[0], q[1]); err != nil {
			t.Fatal(err)
		}
	}
	v0 := e.GraphVersion()
	inv0 := e.CacheStats().Invalidations

	del := mirror.Edges[2]
	upd := mirror.Edges[7]
	muts := []Mutation{
		{Op: MutInsert, From: 1, To: 18, Weight: 2},
		{Op: MutDelete, From: del.From, To: del.To},
		{Op: MutUpdate, From: upd.From, To: upd.To, Weight: upd.Weight + 25},
	}
	if err := mirror.InsertEdge(1, 18, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := mirror.DeleteEdge(del.From, del.To); err != nil {
		t.Fatal(err)
	}
	if _, err := mirror.UpdateEdgeWeight(upd.From, upd.To, upd.Weight+25); err != nil {
		t.Fatal(err)
	}
	st, err := e.ApplyMutations(muts)
	if err != nil {
		t.Fatal(err)
	}
	if e.GraphVersion() != v0+1 {
		t.Errorf("batch must bump the version exactly once: %d -> %d", v0, e.GraphVersion())
	}
	if st.Version != v0+1 {
		t.Errorf("MaintStats must carry the committed version: %d, want %d", st.Version, v0+1)
	}
	if st.Applied != len(muts) {
		t.Errorf("applied %d, want %d", st.Applied, len(muts))
	}
	if inv := e.CacheStats().Invalidations; inv != inv0+1 {
		t.Errorf("batch must purge the cache exactly once: %d -> %d", inv0, inv)
	}
	if st.Rebuilt {
		t.Errorf("small batch fell back to rebuild: %+v", st)
	}
	if ms := e.MutationStats(); ms.Batches != 1 || ms.Inserts != 1 || ms.Deletes != 1 || ms.Updates != 1 {
		t.Errorf("batch counters: %+v", ms)
	}
	if pairs := len(graph.Collapse(slices.Clone(mirror.Edges))); e.Edges() != pairs {
		t.Errorf("edge count %d, mirror %d pairs", e.Edges(), pairs)
	}
	checkAllAlgorithms(t, e, mirror, append(queries, graph.RandomQueries(mirror, 5, 7)...))
}

// TestApplyMutationsValidation: a bad mutation anywhere in the batch
// applies nothing — no version bump, no edge change.
func TestApplyMutationsValidation(t *testing.T) {
	g := graph.Random(12, 30, 5)
	e := newTestEngine(t, g, rdb.Options{}, Options{})
	v0 := e.GraphVersion()
	edges0 := e.Edges()
	_, err := e.ApplyMutations([]Mutation{
		{Op: MutInsert, From: 0, To: 1, Weight: 3},
		{Op: MutInsert, From: 0, To: 99, Weight: 3}, // out of range
	})
	if err == nil || !strings.Contains(err.Error(), "mutation 1") {
		t.Fatalf("expected a positional validation error, got %v", err)
	}
	if e.GraphVersion() != v0 || e.Edges() != edges0 {
		t.Errorf("failed validation must apply nothing: version %d->%d edges %d->%d",
			v0, e.GraphVersion(), edges0, e.Edges())
	}
	if ms := e.MutationStats(); ms.Batches != 0 {
		t.Errorf("a rejected batch must not count: %+v", ms)
	}
	// The empty batch is a no-op, not an error.
	st, err := e.ApplyMutations(nil)
	if err != nil || st.Statements != 0 {
		t.Fatalf("empty batch: %+v, %v", st, err)
	}
	if e.GraphVersion() != v0 {
		t.Error("empty batch must not bump the version")
	}
}

// TestWeightBound: a weight above MaxWeight is refused by a mutation and by
// a load, so no simple path reaches the MaxDist sentinel the searches read
// as "unreached"; a path through a weight at the bound answers as graph.MDJ
// does, whatever the algorithm.
func TestWeightBound(t *testing.T) {
	g, err := graph.New(3, []graph.Edge{{From: 0, To: 1, Weight: 1}, {From: 1, To: 2, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, g, rdb.Options{}, Options{})
	if _, err := e.BuildSegTable(4); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int64{MaxWeight + 1, 2 * MaxDist} {
		if _, err := e.InsertEdge(0, 2, w); err == nil {
			t.Errorf("insert at weight %d was accepted", w)
		}
		if _, err := e.UpdateEdgeWeight(0, 1, w); err == nil {
			t.Errorf("update to weight %d was accepted", w)
		}
	}
	if e.Edges() != 2 || e.MutationStats().Batches != 0 {
		t.Fatalf("refused batches changed the graph: %d edges, %+v", e.Edges(), e.MutationStats())
	}

	over, err := graph.New(2, []graph.Edge{{From: 0, To: 1, Weight: MaxWeight + 1}})
	if err != nil {
		t.Fatal(err)
	}
	db, err := rdb.Open(rdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	other := NewEngine(db, Options{})
	t.Cleanup(func() { other.Close() })
	if err := other.LoadGraph(over); err == nil {
		t.Error("a graph with an edge above MaxWeight was loaded")
	}

	mirror := g.Clone()
	if _, err := e.InsertEdge(0, 2, MaxWeight); err != nil {
		t.Fatal(err)
	}
	if _, err := e.DeleteEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := mirror.InsertEdge(0, 2, MaxWeight); err != nil {
		t.Fatal(err)
	}
	if _, err := mirror.DeleteEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	checkAllAlgorithms(t, e, mirror, [][2]int64{{0, 2}, {0, 1}, {1, 2}})
}

// TestMutationOracleInvalidation: any mutation kills a built oracle, the
// engine and MaintStats both say so, and BuildOracle clears the flag.
func TestMutationOracleInvalidation(t *testing.T) {
	g, mirror := mutationGraph(t, 20, 50, 14)
	e := newTestEngine(t, g, rdb.Options{}, Options{})
	// Without an oracle the flag stays down.
	st, err := e.InsertEdge(0, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.OracleInvalidated || e.OracleInvalidated() {
		t.Error("no oracle built, nothing to invalidate")
	}
	if err := mirror.InsertEdge(0, 9, 2); err != nil {
		t.Fatal(err)
	}

	if _, err := e.BuildOracle(oracle.Config{K: 3}); err != nil {
		t.Fatal(err)
	}
	ed := mirror.Edges[3]
	if _, err := mirror.DeleteEdge(ed.From, ed.To); err != nil {
		t.Fatal(err)
	}
	st, err = e.DeleteEdge(ed.From, ed.To)
	if err != nil {
		t.Fatal(err)
	}
	if !st.OracleInvalidated {
		t.Error("MaintStats must surface the oracle invalidation")
	}
	if !e.OracleInvalidated() {
		t.Error("engine must report the oracle as cold")
	}
	if _, err := approxDistance(e, 0, 1); err == nil {
		t.Error("DistanceInterval must refuse on a cold oracle")
	}
	// The single-edge helpers are one-mutation batches.
	if ms := e.MutationStats(); ms.OracleInvalidations != 1 || ms.Batches != 2 {
		t.Errorf("invalidation and batch counters: %+v", ms)
	}
	if _, err := e.BuildOracle(oracle.Config{K: 3}); err != nil {
		t.Fatal(err)
	}
	if e.OracleInvalidated() {
		t.Error("BuildOracle must clear the stale flag")
	}
	checkAllAlgorithms(t, e, mirror, graph.RandomQueries(mirror, 5, 9))
}

// TestFailedMutationKeepsOracle: a batch with a delete or an update of a
// pair that has no edge — none in the graph, or none after the batch's own
// delete — is refused whole, before anything is logged or written, alone or
// after a mutation that would have applied. The graph, its version and the
// counters stay as they were, and approximate service stays warm.
func TestFailedMutationKeepsOracle(t *testing.T) {
	g := graph.Random(15, 40, 6)
	e := newTestEngine(t, g, rdb.Options{}, Options{})
	if _, err := e.BuildOracle(oracle.Config{K: 3}); err != nil {
		t.Fatal(err)
	}
	present := map[[2]int64]bool{}
	for _, ed := range g.Edges {
		present[[2]int64{ed.From, ed.To}] = true
	}
	pair := [2]int64{-1, -1}
	for u := int64(0); u < g.N && pair[0] < 0; u++ {
		for v := int64(0); v < g.N; v++ {
			if u != v && !present[[2]int64{u, v}] {
				pair = [2]int64{u, v}
				break
			}
		}
	}
	ed := g.Edges[0]
	edges0, v0, ms0 := e.Edges(), e.GraphVersion(), e.MutationStats()
	for _, tc := range []struct {
		batch []Mutation
		want  string
	}{
		{[]Mutation{{Op: MutDelete, From: pair[0], To: pair[1]}}, "mutation 0 (delete"},
		{[]Mutation{{Op: MutInsert, From: pair[1], To: pair[0], Weight: 2}, {Op: MutDelete, From: pair[0], To: pair[1]}},
			"mutation 1 (delete"},
		{[]Mutation{{Op: MutDelete, From: ed.From, To: ed.To}, {Op: MutUpdate, From: ed.From, To: ed.To, Weight: 3}},
			"mutation 1 (update"},
	} {
		st, err := e.ApplyMutations(tc.batch)
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "no edge to") {
			t.Fatalf("%v: error %v, want %q and the missing edge", tc.batch, err, tc.want)
		}
		if st != nil {
			t.Errorf("%v: stats %+v for a refused batch, want nil", tc.batch, st)
		}
		if e.Edges() != edges0 || e.GraphVersion() != v0 || e.MutationStats() != ms0 {
			t.Errorf("%v moved the engine: %d edges at v%d, counters %+v; was %d at v%d, %+v",
				tc.batch, e.Edges(), e.GraphVersion(), e.MutationStats(), edges0, v0, ms0)
		}
		if e.Oracle() == nil || e.OracleInvalidated() {
			t.Errorf("%v: a refused batch must leave the oracle warm", tc.batch)
		}
		if _, err := approxDistance(e, 0, 1); err != nil {
			t.Errorf("approx after refused batch: %v", err)
		}
	}

	// A delete of the edge the batch itself inserted applies: the batch's
	// own writes carry forward.
	st, err := e.ApplyMutations([]Mutation{
		{Op: MutInsert, From: pair[0], To: pair[1], Weight: 2},
		{Op: MutDelete, From: pair[0], To: pair[1]},
	})
	if err != nil || st.Applied != 2 || !st.OracleInvalidated {
		t.Fatalf("insert then delete: %+v, %v", st, err)
	}
	if ms := e.MutationStats(); e.Edges() != edges0 || ms.Batches != 1 || ms.OracleInvalidations != 1 {
		t.Errorf("insert then delete: %d edges, was %d; counters %+v", e.Edges(), edges0, ms)
	}
}

// TestFailedMutationKeepsMaintainedIndexes: a batch whose later mutation
// deletes a pair with no edge is refused whole, so the insert before it
// never runs: the graph, its version and the counters stay put, and the
// SegTable, the oracle and the hub labels stay built and exact, the
// SegTable equal to a rebuild of the unchanged graph.
func TestFailedMutationKeepsMaintainedIndexes(t *testing.T) {
	g := unitWeights(graph.Power(200, 3, 2))
	for _, ed := range g.Edges {
		if ed.From == 1 && ed.To == 2 {
			t.Fatal("test workload has edge (1,2); pick another seed")
		}
	}
	e := newTestEngine(t, g, rdb.Options{}, Options{})
	if _, err := e.BuildSegTable(8); err != nil {
		t.Fatal(err)
	}
	if _, err := e.BuildOracle(oracle.Config{K: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.BuildLabels(); err != nil {
		t.Fatal(err)
	}
	edges0, v0, ms0 := e.Edges(), e.GraphVersion(), e.MutationStats()
	st, err := e.ApplyMutations([]Mutation{
		{Op: MutInsert, From: 1, To: 2, Weight: 3},
		{Op: MutDelete, From: 0, To: 0}, // no self-loop exists
	})
	if err == nil || !strings.Contains(err.Error(), "no edge to delete") {
		t.Fatalf("batch error %v, want the delete's missing edge", err)
	}
	if st != nil {
		t.Fatalf("stats %+v for a refused batch, want nil", st)
	}
	if e.Edges() != edges0 || e.GraphVersion() != v0 || e.MutationStats() != ms0 {
		t.Errorf("the refused batch moved the engine: %d edges at v%d, counters %+v; was %d at v%d, %+v",
			e.Edges(), e.GraphVersion(), e.MutationStats(), edges0, v0, ms0)
	}
	if e.SegLthd() != 8 || e.Oracle() == nil || e.OracleInvalidated() || e.Labels() == nil || e.LabelsInvalidated() {
		t.Fatalf("indexes after a refused batch: lthd %d, oracle %v (stale %v), labels %v (stale %v)",
			e.SegLthd(), e.Oracle() != nil, e.OracleInvalidated(), e.Labels() != nil, e.LabelsInvalidated())
	}
	queries := append(graph.RandomQueries(g, 8, 3), [2]int64{1, 2}, [2]int64{0, 2})
	checkAllAlgorithms(t, e, g, queries)
	ref := newTestEngine(t, g.Clone(), rdb.Options{}, Options{})
	if _, err := ref.BuildSegTable(8); err != nil {
		t.Fatal(err)
	}
	sameSegTable(t, e, ref)
}

// TestParseMutOp is the table-driven parser test shared with spdbd.
func TestParseMutOp(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want MutOp
		ok   bool
	}{
		{"insert", MutInsert, true},
		{"INSERT", MutInsert, true},
		{"Delete", MutDelete, true},
		{"update", MutUpdate, true},
		{"upsert", 0, false},
		{"", 0, false},
	} {
		got, err := ParseMutOp(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParseMutOp(%q): err=%v", tc.in, err)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseMutOp(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	for _, op := range []MutOp{MutInsert, MutDelete, MutUpdate} {
		back, err := ParseMutOp(op.String())
		if err != nil || back != op {
			t.Errorf("round-trip %v: %v, %v", op, back, err)
		}
	}
	if s := MutOp(9).String(); !strings.Contains(s, "9") {
		t.Errorf("unknown op string: %q", s)
	}
}
